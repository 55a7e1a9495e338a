// Integration tests: the complete CaPI workflow from Fig. 3 end to end.
//
//   MetaCG call-graph analysis -> selection pipeline -> IC
//   -> compile (XRay sleds) -> load (DSO registration) -> DynCaPI patching
//   -> measurement (Score-P / TALP) -> reports,
// plus the headline property: refining the IC without recompiling.
#include <gtest/gtest.h>

#include "apps/lulesh.hpp"
#include "apps/openfoam.hpp"
#include "apps/specs.hpp"
#include "binsim/execution_engine.hpp"
#include "cg/metacg_builder.hpp"
#include "cg/metacg_json.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/mpi_port.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/profile_report.hpp"
#include "select/selection_driver.hpp"
#include "talpsim/talp.hpp"

namespace {

using namespace capi;

struct LuleshWorkbench {
    binsim::AppModel model;
    cg::CallGraph graph;
    binsim::CompiledProgram compiled;

    LuleshWorkbench() {
        apps::LuleshParams params;
        params.targetNodes = 800;
        params.iterations = 4;
        params.kernelWorkUnits = 50;
        params.helperCallsPerKernel = 5;
        model = apps::makeLulesh(params);
        cg::MetaCgBuilder builder;
        graph = builder.build(model.toSourceModel());
        binsim::CompileOptions options;
        options.xrayThreshold.instructionThreshold = 1;
        compiled = binsim::compile(model, options);
    }

    select::SelectionReport select(const std::string& specText,
                                   const std::string& name) {
        static spec::ModuleResolver resolver = apps::bundledResolver();
        dyncapi::ProcessSymbolOracle oracle(compiled);
        select::SelectionOptions options;
        options.specText = specText;
        options.specName = name;
        options.resolver = &resolver;
        options.symbolOracle = &oracle;
        return select::runSelection(graph, options);
    }
};

TEST(Integration, KernelsSelectionProfilesKernelsUnderScoreP) {
    LuleshWorkbench bench;
    select::SelectionReport report =
        bench.select(apps::kernelsSpec(), "kernels");
    ASSERT_GT(report.ic.size(), 0u);
    EXPECT_LT(report.selectedFinal, bench.graph.size() / 10);

    binsim::Process process(bench.compiled);
    dyncapi::DynCapi dyn(process);
    dyncapi::InitStats init = dyn.applyIc(report.ic);
    EXPECT_GT(init.patchedFunctions, 0u);

    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);

    binsim::ExecutionEngine engine(process);
    binsim::RunStats stats = engine.run();
    EXPECT_GT(stats.sledHits, 0u);

    scorep::ProfileTree profile = measurement.mergedProfile();
    // LULESH's kernels are `static inline`, so the spec excludes them and
    // selects the call-path ancestors instead: the hourglass *driver* must
    // be profiled with one visit per iteration.
    scorep::RegionHandle hourglass =
        measurement.defineRegion("CalcHourglassControlForElems");
    EXPECT_EQ(profile.totalVisits(hourglass), 4u);
    // And the profile has call-path structure, not just flat counts.
    EXPECT_GE(profile.depth(), 3u);
}

TEST(Integration, SelectionReportMatchesPatchableReality) {
    LuleshWorkbench bench;
    select::SelectionReport report = bench.select(apps::mpiSpec(), "mpi");

    binsim::Process process(bench.compiled);
    dyncapi::DynCapi dyn(process);
    dyncapi::InitStats init = dyn.applyIc(report.ic);
    // Inline compensation already removed functions without symbols, so
    // every IC entry must resolve and patch.
    EXPECT_EQ(init.patchedFunctions, report.ic.size());
    EXPECT_EQ(init.requestedUnavailable, 0u);
}

TEST(Integration, RefinementLoopWithoutRecompilation) {
    LuleshWorkbench bench;
    binsim::Process process(bench.compiled);
    dyncapi::DynCapi dyn(process);

    // The user iterates over ICs; each refinement is a re-patch, not a
    // rebuild. The rebuild-cost model tells us what each iteration would
    // have cost with static instrumentation.
    double repatchSeconds = 0.0;
    for (const apps::NamedSpec& spec : apps::evaluationSpecs()) {
        select::SelectionReport report = bench.select(spec.text, spec.name);
        dyncapi::InitStats init = dyn.applyIc(report.ic);
        repatchSeconds += init.totalSeconds;

        binsim::ExecutionEngine engine(process);
        binsim::RunStats stats = engine.run();
        if (report.ic.size() > 0) {
            EXPECT_GT(stats.sledHits, 0u) << spec.name;
        }
    }
    // Four refinements by re-patching must be far cheaper than even one
    // static-instrumentation rebuild.
    EXPECT_LT(repatchSeconds, bench.compiled.fullRebuildSeconds());
}

TEST(Integration, MetaCgJsonRoundTripPreservesSelection) {
    LuleshWorkbench bench;
    // Serialize the whole-program CG to MetaCG JSON and back; the selection
    // result must be identical (the CaPI file-based workflow).
    support::Json doc = cg::toMetaCgJson(bench.graph);
    cg::CallGraph roundTripped = cg::fromMetaCgJson(doc);

    spec::ModuleResolver resolver = apps::bundledResolver();
    select::SelectionOptions options;
    options.specText = apps::kernelsSpec();
    options.resolver = &resolver;
    options.applyInlineCompensation = false;

    select::SelectionReport a = select::runSelection(bench.graph, options);
    select::SelectionReport b = select::runSelection(roundTripped, options);
    EXPECT_EQ(a.ic.functions, b.ic.functions);
}

TEST(Integration, OpenFoamTalpCoarseRegions) {
    apps::OpenFoamParams params;
    params.targetNodes = 1200;
    params.iterations = 3;
    params.pcgIterations = 3;
    params.helpersPerApply = 4;
    binsim::AppModel model = apps::makeOpenFoam(params);

    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());

    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    binsim::CompiledProgram compiled = binsim::compile(model, copts);
    dyncapi::ProcessSymbolOracle oracle(compiled);

    spec::ModuleResolver resolver = apps::bundledResolver();
    select::SelectionOptions options;
    options.specText = apps::kernelsCoarseSpec();
    options.specName = "kernels coarse";
    options.resolver = &resolver;
    options.symbolOracle = &oracle;
    select::SelectionReport report = select::runSelection(graph, options);
    ASSERT_GT(report.ic.size(), 0u);

    binsim::Process process(compiled);
    dyncapi::DynCapi dyn(process);
    dyn.applyIc(report.ic);

    mpi::MpiWorld world(2);
    talp::TalpRuntime talp(world);
    dyn.attachTalpHandler(talp);
    dyncapi::WorldMpiPort port(world);

    mpi::runRanks(world, [&](int rank) {
        binsim::ExecutionEngine engine(process);
        engine.setMpiPort(&port);
        engine.run(rank, world.worldSize());
    });

    // The coarse IC keeps the computational kernel; its region must carry
    // sane POP metrics on both ranks.
    auto amul = talp.metrics("Foam::lduMatrix::Amul");
    ASSERT_TRUE(amul.has_value());
    EXPECT_EQ(amul->ranks, 2);
    EXPECT_GT(amul->visits, 0u);
    EXPECT_GT(amul->parallelEfficiency, 0.0);
    EXPECT_LE(amul->parallelEfficiency, 1.0);

    // The global region exists and spans everything.
    auto global = talp.metrics(talp::TalpRuntime::kGlobalRegionName);
    ASSERT_TRUE(global.has_value());
    EXPECT_GE(global->elapsedNs, amul->elapsedNs);

    // Coarse dropped the sole-caller wrapper chain around the solver.
    EXPECT_FALSE(report.ic.contains("Foam::fvMatrix<double>::solveSegregatedOrCoupled"));
}

TEST(Integration, InlinedKernelStillMeasuredViaCompensation) {
    // Build a model where the kernel itself gets inlined: compensation must
    // instrument its first available caller so the work is still measured.
    binsim::AppModel model;
    model.name = "inline-comp";
    auto add = [&](const char* name, std::uint32_t instr, std::uint32_t flops,
                   std::uint32_t loops) {
        binsim::AppFunction fn;
        fn.name = name;
        fn.unit = "m.cpp";
        fn.metrics.numInstructions = instr;
        fn.metrics.flops = flops;
        fn.metrics.loopDepth = loops;
        fn.metrics.numStatements = 5;
        fn.flags.hasBody = true;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };
    std::uint32_t mainFn = add("main", 100, 0, 0);
    std::uint32_t driver = add("driver", 90, 0, 0);
    // Kernel is marked inline and small: inlined at all call sites.
    std::uint32_t kernel = add("hotKernel", 30, 50, 2);
    model.functions[kernel].flags.inlineSpecified = true;
    model.entry = mainFn;
    model.functions[mainFn].calls.push_back({driver, 2});
    model.functions[driver].calls.push_back({kernel, 3});

    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    binsim::CompiledProgram compiled = binsim::compile(model, copts);
    dyncapi::ProcessSymbolOracle oracle(compiled);

    // Select only the kernel (no exclusion of inline-marked functions here).
    select::SelectionOptions options;
    options.specText = "flops(\">=\", 10, %%)";
    options.symbolOracle = &oracle;
    select::SelectionReport report = select::runSelection(graph, options);

    // Compensation swapped the inlined kernel for its caller.
    EXPECT_FALSE(report.ic.contains("hotKernel"));
    EXPECT_TRUE(report.ic.contains("driver"));
    EXPECT_EQ(report.added, 1u);

    binsim::Process process(compiled);
    dyncapi::DynCapi dyn(process);
    dyn.applyIc(report.ic);

    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);

    binsim::ExecutionEngine engine(process);
    engine.run();
    scorep::ProfileTree profile = measurement.mergedProfile();
    // The kernel's execution is recorded under its caller's name.
    EXPECT_EQ(profile.totalVisits(measurement.defineRegion("driver")), 2u);
}

}  // namespace
