// Micro-benchmarks of the per-event measurement costs: what one function
// entry+exit pair costs under each backend. These are the per-event
// constants behind Table II, including the cost of a Score-P runtime-filtered
// probe — the "overhead of invoking the probe and cross-checking the filter
// list is retained" point from Sec. II-B.
#include <benchmark/benchmark.h>

#include "binsim/compiler.hpp"
#include "binsim/process.hpp"
#include "mpisim/mpi_world.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/filter_file.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "talpsim/talp.hpp"

namespace {

using namespace capi;

/// Score-P region enter+exit (profiled).
void BM_ScorePEnterExit(benchmark::State& state) {
    scorep::Measurement measurement;
    scorep::RegionHandle region = measurement.defineRegion("kernel");
    for (auto _ : state) {
        measurement.enter(region);
        measurement.exit(region);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ScorePEnterExit);

/// Score-P with a deep current call path (tree descent cost).
void BM_ScorePDeepStack(benchmark::State& state) {
    scorep::Measurement measurement;
    std::vector<scorep::RegionHandle> stack;
    for (int i = 0; i < 12; ++i) {
        stack.push_back(measurement.defineRegion("frame" + std::to_string(i)));
        measurement.enter(stack.back());
    }
    scorep::RegionHandle leaf = measurement.defineRegion("leaf");
    for (auto _ : state) {
        measurement.enter(leaf);
        measurement.exit(leaf);
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        measurement.exit(*it);
    }
}
BENCHMARK(BM_ScorePDeepStack);

/// Runtime-filtered probe: the region is excluded, but the probe still runs.
void BM_ScorePFilteredProbe(benchmark::State& state) {
    scorep::MeasurementOptions options;
    options.runtimeFiltering = true;
    options.runtimeFilter.addRule(false, "noisy_*");
    scorep::Measurement measurement(options);
    scorep::RegionHandle region = measurement.defineRegion("noisy_helper");
    for (auto _ : state) {
        measurement.enter(region);
        measurement.exit(region);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ScorePFilteredProbe);

/// Multi-threaded enter/exit contention on one shared Measurement: the
/// scaling (or collapse) of the per-event path under 2/4/8 threads. With
/// per-thread trees and cache-line-padded per-thread counters this should be
/// near-linear; any shared cacheline on the event path shows up here first.
void BM_ScorePEnterExitMT(benchmark::State& state) {
    static scorep::Measurement* measurement = nullptr;
    static scorep::RegionHandle region{};
    if (state.thread_index() == 0) {
        measurement = new scorep::Measurement();
        region = measurement->defineRegion("kernel");
    }
    for (auto _ : state) {
        measurement->enter(region);
        measurement->exit(region);
    }
    state.SetItemsProcessed(state.iterations() * 2);
    if (state.thread_index() == 0) {
        delete measurement;
        measurement = nullptr;
    }
}
BENCHMARK(BM_ScorePEnterExitMT)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Multi-threaded filtered probes: the retained-probe-cost path (counter
/// bump + filter flag check) under contention.
void BM_ScorePFilteredProbeMT(benchmark::State& state) {
    static scorep::Measurement* measurement = nullptr;
    static scorep::RegionHandle region{};
    if (state.thread_index() == 0) {
        scorep::MeasurementOptions options;
        options.runtimeFiltering = true;
        options.runtimeFilter.addRule(false, "noisy_*");
        measurement = new scorep::Measurement(options);
        region = measurement->defineRegion("noisy_helper");
    }
    for (auto _ : state) {
        measurement->enter(region);
        measurement->exit(region);
    }
    state.SetItemsProcessed(state.iterations() * 2);
    if (state.thread_index() == 0) {
        delete measurement;
        measurement = nullptr;
    }
}
BENCHMARK(BM_ScorePFilteredProbeMT)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

binsim::CompiledProgram dispatchProgram() {
    binsim::AppModel model;
    model.name = "dispatch";
    binsim::AppFunction mainFn;
    mainFn.name = "main";
    mainFn.unit = "u.cpp";
    mainFn.metrics.numInstructions = 100;
    mainFn.flags.hasBody = true;
    model.functions.push_back(mainFn);
    binsim::AppFunction kernel;
    kernel.name = "kernel";
    kernel.unit = "u.cpp";
    kernel.metrics.numInstructions = 100;
    kernel.flags.hasBody = true;
    model.functions.push_back(kernel);
    model.functions[0].calls.push_back({1, 1});
    model.entry = 0;
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    return binsim::compile(model, options);
}

/// Cyg-profile adapter resolve-hit path: address -> handle through the
/// published open-addressing snapshot, then the measurement enter/exit.
/// Threads(>1) exercises the wait-free read path under contention.
void BM_CygResolveHitMT(benchmark::State& state) {
    static binsim::Process* process = nullptr;
    static scorep::Measurement* measurement = nullptr;
    static scorep::CygProfileAdapter* adapter = nullptr;
    static std::uint64_t address = 0;
    if (state.thread_index() == 0) {
        process = new binsim::Process(dispatchProgram());
        measurement = new scorep::Measurement();
        adapter = new scorep::CygProfileAdapter(
            *measurement,
            scorep::SymbolResolver::fromExecutable(process->program().executable()));
        std::uint32_t kernel = process->program().model().indexOf("kernel");
        address = process->execInfo()[kernel].entryAddress;
        adapter->funcEnter(address, 0);  // Warm: first sighting off the clock.
        adapter->funcExit(address, 0);
    }
    for (auto _ : state) {
        adapter->funcEnter(address, 0);
        adapter->funcExit(address, 0);
    }
    state.SetItemsProcessed(state.iterations() * 2);
    if (state.thread_index() == 0) {
        delete adapter;
        adapter = nullptr;
        delete measurement;
        measurement = nullptr;
        delete process;
        process = nullptr;
    }
}
BENCHMARK(BM_CygResolveHitMT)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

/// TALP region start/stop with a varying number of already-open regions:
/// the MPI-attribution walk is O(open regions), so this is the knob that
/// makes TALP's `mpi` IC expensive (Table II crossover).
void BM_TalpStartStop(benchmark::State& state) {
    const auto openRegions = static_cast<std::size_t>(state.range(0));
    mpi::MpiWorld world(1);
    talp::TalpRuntime talp(world);
    world.init(0, 0.0);
    std::vector<talp::MonitorHandle> open;
    for (std::size_t i = 0; i < openRegions; ++i) {
        open.push_back(talp.regionRegister("outer" + std::to_string(i), 0));
        talp.regionStart(open.back(), 0, 0.0);
    }
    talp::MonitorHandle leaf = talp.regionRegister("leaf", 0);
    double clock = 1000.0;
    for (auto _ : state) {
        talp.regionStart(leaf, 0, clock);
        talp.regionStop(leaf, 0, clock + 10.0);
        clock += 20.0;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TalpStartStop)->Arg(0)->Arg(4)->Arg(16)->ArgNames({"open"});

/// The per-MPI-op attribution walk itself.
void BM_TalpMpiAttribution(benchmark::State& state) {
    const auto openRegions = static_cast<std::size_t>(state.range(0));
    mpi::LatencyModel latency;
    latency.allreduceNs = 0;
    latency.initNs = 0;
    mpi::MpiWorld world(1, latency);
    talp::TalpRuntime talp(world);
    double clock = world.init(0, 0.0);
    for (std::size_t i = 0; i < openRegions; ++i) {
        talp::MonitorHandle h = talp.regionRegister("r" + std::to_string(i), 0);
        talp.regionStart(h, 0, clock);
    }
    for (auto _ : state) {
        clock = world.allreduce(0, clock);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TalpMpiAttribution)->Arg(1)->Arg(8)->Arg(32)->ArgNames({"open"});

}  // namespace

BENCHMARK_MAIN();
