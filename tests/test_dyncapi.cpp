// Tests for DynCaPI: fid<->name resolution (hidden symbols), IC-driven
// patching, runtime re-patching, the static-ID extension, measurement
// backends and the process symbol oracle.
#include <gtest/gtest.h>

#include "binsim/compiler.hpp"
#include "binsim/execution_engine.hpp"
#include "binsim/process.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/mpi_port.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "mpisim/mpi_world.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "talpsim/talp.hpp"

namespace {

using namespace capi;
using namespace capi::binsim;

/// Executable + one DSO, with a hidden DSO function and an inlined function.
AppModel testModel() {
    AppModel model;
    model.name = "dyntest";
    model.dsos.push_back({"libsolve.so"});
    auto add = [&](const char* name, int dso, std::uint32_t instr, bool hidden,
                   MpiOp op = MpiOp::None) {
        AppFunction fn;
        fn.name = name;
        fn.prettyName = name;
        fn.unit = std::string(name) + ".cpp";
        fn.dso = dso;
        fn.metrics.numInstructions = instr;
        fn.metrics.numStatements = instr / 4 + 1;
        fn.flags.hasBody = true;
        fn.flags.hiddenVisibility = hidden;
        fn.workUnits = 3;
        fn.mpiOp = op;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };
    std::uint32_t mainFn = add("main", -1, 120, false);
    std::uint32_t mpiInit = add("MPI_Init", -1, 0, false, MpiOp::Init);
    model.functions[mpiInit].flags.hasBody = false;
    std::uint32_t solve = add("solve", 0, 200, false);
    std::uint32_t amul = add("Amul", 0, 300, false);
    std::uint32_t hiddenInit = add("_GLOBAL__sub_I_solve", 0, 80, true);
    std::uint32_t tiny = add("tinyWrapper", -1, 6, false);  // auto-inlined
    std::uint32_t mpiFin = add("MPI_Finalize", -1, 0, false, MpiOp::Finalize);
    model.functions[mpiFin].flags.hasBody = false;
    model.entry = mainFn;

    auto call = [&](std::uint32_t a, std::uint32_t b, std::uint32_t n = 1) {
        model.functions[a].calls.push_back({b, n});
    };
    call(mainFn, mpiInit);
    call(mainFn, tiny, 2);
    call(tiny, solve, 1);
    call(solve, amul, 4);
    call(mainFn, mpiFin);
    (void)hiddenInit;
    return model;
}

CompileOptions lowThreshold() {
    CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    return options;
}

TEST(DynCapi, ResolutionFindsVisibleAndCountsHidden) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    EXPECT_EQ(dyn.unresolvableFunctionCount(), 1u);  // the hidden initializer
    EXPECT_TRUE(dyn.resolveName("main").has_value());
    EXPECT_TRUE(dyn.resolveName("solve").has_value());
    EXPECT_TRUE(dyn.resolveName("Amul").has_value());
    EXPECT_FALSE(dyn.resolveName("_GLOBAL__sub_I_solve").has_value());
    EXPECT_FALSE(dyn.resolveName("tinyWrapper").has_value());  // inlined away

    // DSO functions resolve to object 1.
    EXPECT_EQ(xray::objectIdOf(*dyn.resolveName("Amul")), 1u);
    EXPECT_EQ(dyn.nameOf(*dyn.resolveName("Amul")).value_or(""), "Amul");
}

TEST(DynCapi, ApplyIcPatchesExactlyTheSelection) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig ic;
    ic.addFunction("Amul");
    ic.addFunction("solve");
    ic.addFunction("tinyWrapper");  // inlined: unavailable

    dyncapi::InitStats stats = dyn.applyIc(ic);
    EXPECT_EQ(stats.requestedFunctions, 3u);
    EXPECT_EQ(stats.patchedFunctions, 2u);
    EXPECT_EQ(stats.requestedUnavailable, 1u);
    EXPECT_GT(stats.totalSeconds, 0.0);

    xray::XRayRuntime& xr = process.xray();
    EXPECT_TRUE(xr.functionPatched(*dyn.resolveName("Amul")));
    EXPECT_TRUE(xr.functionPatched(*dyn.resolveName("solve")));
    EXPECT_FALSE(xr.functionPatched(*dyn.resolveName("main")));
}

TEST(DynCapi, RepatchingSwapsConfigurationsWithoutRebuild) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig icA;
    icA.addFunction("Amul");
    dyn.applyIc(icA);
    EXPECT_TRUE(process.xray().functionPatched(*dyn.resolveName("Amul")));
    EXPECT_FALSE(process.xray().functionPatched(*dyn.resolveName("solve")));

    select::InstrumentationConfig icB;
    icB.addFunction("solve");
    dyn.applyIc(icB);  // runtime-adaptable: no recompilation
    EXPECT_FALSE(process.xray().functionPatched(*dyn.resolveName("Amul")));
    EXPECT_TRUE(process.xray().functionPatched(*dyn.resolveName("solve")));
}

TEST(DynCapi, StaticIdExtensionReachesHiddenSymbols) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    // Determine the hidden function's packed id via the process (the
    // offline path that would compute static IDs at selection time).
    std::uint32_t hidden =
        process.program().model().indexOf("_GLOBAL__sub_I_solve");
    auto pid = process.packedIdOf(hidden);
    ASSERT_TRUE(pid.has_value());

    select::InstrumentationConfig ic;
    ic.addFunction("_GLOBAL__sub_I_solve");
    ic.staticIds["_GLOBAL__sub_I_solve"] = *pid;

    dyncapi::InitStats stats = dyn.applyIc(ic);
    EXPECT_EQ(stats.patchedFunctions, 1u);  // patched despite being hidden
    EXPECT_TRUE(process.xray().functionPatched(*pid));
}

TEST(DynCapi, PatchAllMatchesSleddedCount) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);
    dyncapi::InitStats stats = dyn.patchAll();
    // main, solve, Amul, hidden initializer have sleds (tiny inlined away).
    EXPECT_EQ(stats.patchedFunctions, 4u);
    EXPECT_EQ(process.xray().patchedSledCount(), 8u);
}

TEST(DynCapi, CygBackendProducesProfile) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig ic;
    ic.addFunction("solve");
    ic.addFunction("Amul");
    dyn.applyIc(ic);

    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);

    ExecutionEngine engine(process);
    RunStats stats = engine.run();
    // solve called 2x, Amul 4x per solve -> 8x: 20 events.
    EXPECT_EQ(stats.sledHits, 20u);

    scorep::ProfileTree profile = measurement.mergedProfile();
    EXPECT_EQ(profile.totalVisits(measurement.defineRegion("solve")), 2u);
    EXPECT_EQ(profile.totalVisits(measurement.defineRegion("Amul")), 8u);
    EXPECT_EQ(adapter.droppedEvents(), 0u);
}

TEST(DynCapi, TalpBackendRecordsRegionsAndPreInitFailures) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig ic;
    ic.addFunction("main");   // entered before MPI_Init -> cannot register
    ic.addFunction("solve");
    ic.addFunction("Amul");
    dyn.applyIc(ic);

    mpi::MpiWorld world(2);
    talp::TalpRuntime talp(world);
    dyn.attachTalpHandler(talp);

    dyncapi::WorldMpiPort port(world);
    mpi::runRanks(world, [&](int rank) {
        ExecutionEngine engine(process);
        engine.setMpiPort(&port);
        engine.run(rank, world.worldSize());
    });

    // main's region failed to register (entered before MPI_Init), so only
    // solve and Amul (plus the implicit global region) are recorded.
    EXPECT_GE(dyn.talpFailedRegistrations(), 1u);
    EXPECT_TRUE(talp.metrics("solve").has_value());
    EXPECT_TRUE(talp.metrics("Amul").has_value());
    EXPECT_FALSE(talp.metrics("main").has_value());
    auto amul = talp.metrics("Amul");
    EXPECT_EQ(amul->ranks, 2);
    EXPECT_EQ(amul->visits, 16u);  // 8 per rank
}

TEST(ProcessSymbolOracle, ReflectsNmVisibility) {
    CompiledProgram program = compile(testModel(), lowThreshold());
    dyncapi::ProcessSymbolOracle oracle(program);
    EXPECT_TRUE(oracle.hasSymbol("main"));
    EXPECT_TRUE(oracle.hasSymbol("Amul"));
    EXPECT_FALSE(oracle.hasSymbol("tinyWrapper"));          // inlined away
    EXPECT_FALSE(oracle.hasSymbol("_GLOBAL__sub_I_solve")); // hidden
    EXPECT_FALSE(oracle.hasSymbol("ghost"));
}

}  // namespace
