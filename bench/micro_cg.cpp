// Micro-benchmarks of the MetaCG substrate: the streaming whole-program
// build, JSON (de)serialization throughput, Node-vs-CSR adjacency traversal
// (the data-layout win every selector rides on), and Tinit over a shared
// compiled image, whole and by rung.
#include <benchmark/benchmark.h>

#include <optional>

#include "apps/lulesh.hpp"
#include "apps/openfoam.hpp"
#include "bench_util.hpp"
#include "binsim/compiler.hpp"
#include "binsim/process.hpp"
#include "cg/csr_view.hpp"
#include "cg/metacg_builder.hpp"
#include "cg/metacg_json.hpp"
#include "dyncapi/dyncapi.hpp"

namespace {

using namespace capi;
using bench::scaledOpenFoamGraph;

binsim::AppModel modelOfSize(std::uint32_t nodes) {
    apps::OpenFoamParams params;
    params.targetNodes = nodes;
    return apps::makeOpenFoam(params);
}

void BM_BuildWholeProgramCg(benchmark::State& state) {
    binsim::AppModel model = modelOfSize(static_cast<std::uint32_t>(state.range(0)));
    cg::SourceModel source = model.toSourceModel();
    for (auto _ : state) {
        cg::MetaCgBuilder builder;
        cg::CallGraph graph = builder.build(source);
        benchmark::DoNotOptimize(graph.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildWholeProgramCg)->Arg(10000)->Arg(50000);

// The set-up shape: derive the source model, then stream it (as a temporary)
// into the whole-program graph.
void BM_BuildFromAppModel(benchmark::State& state) {
    binsim::AppModel model = modelOfSize(static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state) {
        cg::MetaCgBuilder builder;
        cg::CallGraph graph = builder.build(model.toSourceModel());
        benchmark::DoNotOptimize(graph.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildFromAppModel)->Arg(10000)->Arg(50000);

// Tinit: load a process from a compiled program that stays shared (no image
// copy) and resolve every sled to a name.
void BM_ProcessTinit(benchmark::State& state) {
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    const binsim::CompiledProgram compiled = binsim::compile(
        modelOfSize(static_cast<std::uint32_t>(state.range(0))), options);
    for (auto _ : state) {
        binsim::Process process(compiled);
        dyncapi::DynCapi dyn(process);
        benchmark::DoNotOptimize(dyn.sleddedFunctionCount());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProcessTinit)->Arg(10000)->Arg(50000);

// Tinit by rung, on one shared compiled image: loading the process (XRay
// registration, sled index, execution facts), DynCapi's name resolution, and
// applying a fixed IC to a freshly loaded process.
binsim::CompiledProgram tinitProgram(std::uint32_t nodes) {
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    return binsim::compile(modelOfSize(nodes), options);
}

void BM_TinitProcess(benchmark::State& state) {
    const binsim::CompiledProgram compiled =
        tinitProgram(static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state) {
        binsim::Process process(compiled);
        benchmark::DoNotOptimize(process.execInfo().data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TinitProcess)->Arg(10000);

void BM_TinitResolve(benchmark::State& state) {
    binsim::Process process(tinitProgram(static_cast<std::uint32_t>(state.range(0))));
    for (auto _ : state) {
        dyncapi::DynCapi dyn(process);
        benchmark::DoNotOptimize(dyn.sleddedFunctionCount());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TinitResolve)->Arg(10000);

void BM_TinitApply(benchmark::State& state) {
    const binsim::CompiledProgram compiled =
        tinitProgram(static_cast<std::uint32_t>(state.range(0)));
    // Every 8th model function: a spread-out IC touching most code pages.
    select::InstrumentationConfig ic;
    const std::vector<binsim::AppFunction>& functions = compiled.model().functions;
    for (std::size_t i = 0; i < functions.size(); i += 8) {
        ic.addFunction(functions[i].name);
    }
    const select::InstrumentationPolicy policy = select::InstrumentationPolicy::fullOf(ic);
    for (auto _ : state) {
        state.PauseTiming();
        std::optional<binsim::Process> process(std::in_place, compiled);
        std::optional<dyncapi::DynCapi> dyn(std::in_place, *process);
        state.ResumeTiming();
        dyncapi::InitStats stats = dyn->applyPolicy(policy);
        benchmark::DoNotOptimize(stats.patchedFunctions);
        state.PauseTiming();
        dyn.reset();
        process.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TinitApply)->Arg(10000);

void BM_MetaCgToJson(benchmark::State& state) {
    binsim::AppModel model = modelOfSize(static_cast<std::uint32_t>(state.range(0)));
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    for (auto _ : state) {
        std::string text = cg::toMetaCgJson(graph).dump();
        benchmark::DoNotOptimize(text.size());
        state.counters["bytes"] = static_cast<double>(text.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetaCgToJson)->Arg(10000)->Arg(50000);

void BM_MetaCgFromJson(benchmark::State& state) {
    binsim::AppModel model = modelOfSize(static_cast<std::uint32_t>(state.range(0)));
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    std::string text = cg::toMetaCgJson(graph).dump();
    for (auto _ : state) {
        cg::CallGraph parsed = cg::fromMetaCgJson(support::Json::parse(text));
        benchmark::DoNotOptimize(parsed.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetaCgFromJson)->Arg(10000)->Arg(50000);

// --- Node-vs-CSR traversal -------------------------------------------------
// The same whole-graph edge walk (every callee row, then every caller row),
// first through CallGraph::Node's per-node vectors, then through the flat
// CsrView arrays. The delta is the cache-locality win the CSR-backed
// selectors inherit.

void BM_NodeAdjacencyTraversal(benchmark::State& state) {
    const cg::CallGraph& graph =
        scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (cg::FunctionId id = 0; id < graph.size(); ++id) {
            for (cg::FunctionId callee : graph.callees(id)) sum += callee;
            for (cg::FunctionId caller : graph.callers(id)) sum += caller;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 2 * graph.edgeCount());
}
BENCHMARK(BM_NodeAdjacencyTraversal)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_CsrAdjacencyTraversal(benchmark::State& state) {
    const cg::CallGraph& graph =
        scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    cg::CsrView csr(graph);
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (cg::FunctionId id = 0; id < csr.size(); ++id) {
            for (cg::FunctionId callee : csr.callees(id)) sum += callee;
            for (cg::FunctionId caller : csr.callers(id)) sum += caller;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 2 * csr.edgeCount());
}
BENCHMARK(BM_CsrAdjacencyTraversal)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_CsrViewBuild(benchmark::State& state) {
    const cg::CallGraph& graph =
        scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state) {
        cg::CsrView csr(graph);
        benchmark::DoNotOptimize(csr.edgeCount());
    }
    state.SetItemsProcessed(state.iterations() * graph.size());
}
BENCHMARK(BM_CsrViewBuild)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_LuleshModelGeneration(benchmark::State& state) {
    for (auto _ : state) {
        binsim::AppModel model = apps::makeLulesh();
        benchmark::DoNotOptimize(model.functions.size());
    }
}
BENCHMARK(BM_LuleshModelGeneration);

}  // namespace

BENCHMARK_MAIN();
