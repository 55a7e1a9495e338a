// The per-event cost ladder: what one function entry+exit pair costs at
// each layer it passes through, each rung a tight loop over public calls.
//   xraysim.unpatched_ns   two invokeSled on unpatched sleds
//   xraysim.dispatch_ns    two invokeSled on patched sleds, no-op handler
//   scorepsim.cyg_pair_ns  CygProfileAdapter::funcEnter + funcExit
//   scorepsim.enter_exit_ns Measurement::enter + exit at the app's median
//                          call-path depth
//   talpsim.start_stop_ns  TalpRuntime::regionStart + regionStop
//   pair_ns.scorep         two invokeSled through DynCapi's cyg handler
//   pair_ns.talp           two invokeSled through DynCapi's TALP handler
// pair_ns.scorep should be dispatch_ns + cyg_pair_ns plus the handler's own
// address lookup; run.py prints the gap.
#include <algorithm>
#include <functional>
#include <unordered_map>

#include "binsim/execution_engine.hpp"
#include "common.hpp"
#include "dyncapi/dyncapi.hpp"
#include "mpisim/mpi_world.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/measurement.hpp"
#include "talpsim/talp.hpp"

namespace perfbench {

namespace {

namespace dyncapi = capi::dyncapi;
namespace mpi = capi::mpi;
namespace scorep = capi::scorep;
namespace talp = capi::talp;
namespace xray = capi::xray;

/// `main` (which performs MPI_Init) calls `leaf` once.
binsim::CompiledProgram ladderProgram() {
    binsim::AppModel model;
    model.name = "ladder";
    for (const char* name : {"main", "leaf"}) {
        binsim::AppFunction fn;
        fn.name = name;
        fn.unit = "ladder.cpp";
        fn.metrics.numInstructions = 100;
        fn.flags.hasBody = true;
        model.functions.push_back(fn);
    }
    model.functions[0].mpiOp = binsim::MpiOp::Init;
    model.functions[0].calls.push_back({1, 1});
    model.entry = 0;
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    return binsim::compile(model, options);
}

/// Median ns per call of `pair` over several timed trials, each sized to
/// take a few milliseconds.
double nsPerPair(const std::function<void()>& pair) {
    constexpr int kTrials = 7;
    constexpr std::uint64_t kTrialNs = 4'000'000;
    std::uint64_t calls = 1000;
    for (;;) {  // calibrate
        const std::uint64_t start = nowNs();
        for (std::uint64_t i = 0; i < calls; ++i) {
            pair();
        }
        const std::uint64_t took = nowNs() - start;
        if (took >= kTrialNs / 4) {
            calls = std::max<std::uint64_t>(
                calls, calls * kTrialNs / std::max<std::uint64_t>(took, 1));
            break;
        }
        calls *= 4;
    }
    std::vector<double> trials;
    for (int t = 0; t < kTrials; ++t) {
        const std::uint64_t start = nowNs();
        for (std::uint64_t i = 0; i < calls; ++i) {
            pair();
        }
        trials.push_back(static_cast<double>(nowNs() - start) /
                         static_cast<double>(calls));
    }
    std::nth_element(trials.begin(), trials.begin() + kTrials / 2, trials.end());
    return trials[kTrials / 2];
}

void noopHandler(void*, xray::PackedId, xray::XRayEntryType) {}

/// Runs `probe` on the rank thread when the program performs MPI_Init, so
/// handlers that need the rank's execution context (TALP) see it.
class ProbePort final : public binsim::MpiPort {
public:
    ProbePort(mpi::MpiWorld& world, std::function<void()> probe)
        : world_(&world), probe_(std::move(probe)) {}

    void execute(binsim::MpiOp op, binsim::RankState& rank) override {
        if (op == binsim::MpiOp::Init) {
            rank.virtualNs = world_->init(rank.rank, rank.virtualNs);
            probe_();
        }
    }

private:
    mpi::MpiWorld* world_;
    std::function<void()> probe_;
};

}  // namespace

std::size_t medianCallDepth(const binsim::AppModel& model) {
    // Dynamic calls per depth, walking the call counts down from main.
    std::vector<double> callsAtDepth;
    std::unordered_map<std::uint32_t, double> level{{model.entry, 1.0}};
    while (!level.empty() && callsAtDepth.size() < 256) {
        std::unordered_map<std::uint32_t, double> next;
        double total = 0.0;
        for (const auto& [fn, calls] : level) {
            total += calls;
            for (const binsim::AppCallSite& site : model.functions[fn].calls) {
                next[site.callee] += calls * site.count;
            }
        }
        callsAtDepth.push_back(total);
        level.swap(next);
    }
    double all = 0.0;
    for (double calls : callsAtDepth) {
        all += calls;
    }
    double seen = 0.0;
    for (std::size_t d = 0; d < callsAtDepth.size(); ++d) {
        seen += callsAtDepth[d];
        if (seen * 2 >= all) {
            return d + 1;
        }
    }
    return callsAtDepth.size();
}

void runLadder(std::size_t depth, Tracer& tracer, Result& result) {
    Span ladder(tracer, "bench.ladder_s");
    binsim::Process process(ladderProgram());
    xray::XRayRuntime& runtime = process.xray();
    const binsim::ExecInfo leaf = process.execInfo()[1];
    auto sledPair = [&] {
        runtime.invokeSled(leaf.entryAddress);
        runtime.invokeSled(leaf.exitAddress);
    };
    result.set("ladder.depth", static_cast<double>(depth));
    result.set("xraysim.unpatched_ns", nsPerPair(sledPair));

    runtime.patchFunction(leaf.packedId);
    runtime.setHandler(&noopHandler, nullptr);
    result.set("xraysim.dispatch_ns", nsPerPair(sledPair));
    runtime.clearHandler();
    runtime.unpatchFunction(leaf.packedId);

    capi::select::InstrumentationConfig ic;
    ic.addFunction("leaf");
    {
        dyncapi::DynCapi dyn(process);
        dyn.applyIc(ic);
        scorep::Measurement measurement;
        scorep::CygProfileAdapter adapter(
            measurement, scorep::SymbolResolver::withSymbolInjection(process));
        dyn.attachCygHandler(adapter);
        result.set("pair_ns.scorep", nsPerPair(sledPair));
        const std::uint64_t address = dyn.addressOf(leaf.packedId);
        result.set("scorepsim.cyg_pair_ns", nsPerPair([&] {
                       adapter.funcEnter(address, 0);
                       adapter.funcExit(address, 0);
                   }));
        dyn.detachHandler();
    }
    {
        scorep::Measurement measurement;
        std::vector<scorep::RegionHandle> frames;
        for (std::size_t d = 1; d < depth; ++d) {
            frames.push_back(measurement.defineRegion("frame" + std::to_string(d)));
            measurement.enter(frames.back());
        }
        const scorep::RegionHandle region = measurement.defineRegion("leaf");
        result.set("scorepsim.enter_exit_ns", nsPerPair([&] {
                       measurement.enter(region);
                       measurement.exit(region);
                   }));
        for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
            measurement.exit(*it);
        }
    }
    {
        mpi::MpiWorld world(1);
        world.init(0, 0.0);
        talp::TalpRuntime runtimeTalp(world);
        const talp::MonitorHandle region = runtimeTalp.regionRegister("leaf", 0);
        double clock = 1000.0;
        result.set("talpsim.start_stop_ns", nsPerPair([&] {
                       runtimeTalp.regionStart(region, 0, clock);
                       runtimeTalp.regionStop(region, 0, clock + 10.0);
                       clock += 20.0;
                   }));
    }
    {
        dyncapi::DynCapi dyn(process);
        dyn.applyIc(ic);
        mpi::MpiWorld world(1);
        talp::TalpRuntime runtimeTalp(world);
        dyn.attachTalpHandler(runtimeTalp);
        double pairNs = 0.0;
        ProbePort port(world, [&] { pairNs = nsPerPair(sledPair); });
        binsim::ExecutionEngine engine(process);
        engine.setMpiPort(&port);
        engine.run(0, 1);
        dyn.detachHandler();
        result.set("pair_ns.talp", pairNs);
    }
}

}  // namespace perfbench
