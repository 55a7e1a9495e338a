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

TEST(DynCapi, PatchAllAndUnpatchAllResetTheCachedPolicy) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);
    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);

    select::InstrumentationPolicy policy;
    policy.setRegion("Amul", {select::Tier::Sampled, {8, 0}});
    policy.setRegion("solve", {select::Tier::Full, {}});
    dyn.applyPolicy(policy);
    const xray::PackedId amul = *dyn.resolveName("Amul");
    const scorep::RegionHandle amulRegion = measurement.defineRegion("Amul");
    ASSERT_EQ(process.xray().functionTierTag(amul),
              xray::XRayRuntime::kSampledTier);
    ASSERT_EQ(measurement.regionSampling(amulRegion).first, 8u);

    // patchAll makes every sled Full: the cached policy and the gate must
    // not survive it, not even through a re-attach that re-syncs the gates.
    dyn.patchAll();
    EXPECT_EQ(process.xray().functionTierTag(amul), xray::XRayRuntime::kFullTier);
    EXPECT_EQ(dyn.currentPolicy().size(), 0u);
    EXPECT_EQ(measurement.regionSampling(amulRegion).first, 1u);
    dyn.attachCygHandler(adapter);
    EXPECT_EQ(measurement.regionSampling(amulRegion).first, 1u);

    dyn.applyPolicy(policy);
    ASSERT_EQ(measurement.regionSampling(amulRegion).first, 8u);
    dyn.unpatchAll();
    EXPECT_EQ(process.xray().patchedSledCount(), 0u);
    EXPECT_EQ(dyn.currentPolicy().size(), 0u);
    EXPECT_EQ(measurement.regionSampling(amulRegion).first, 1u);
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

/// Executable plus two DSOs: `a` lives in liba.so (DSO 0), `b` in libb.so
/// (DSO 1).
AppModel twoPluginModel() {
    AppModel model;
    model.name = "plugins";
    model.dsos.push_back({"liba.so"});
    model.dsos.push_back({"libb.so"});
    for (const auto& [name, dso] :
         {std::pair<const char*, int>{"main", -1}, {"a", 0}, {"b", 1}}) {
        AppFunction fn;
        fn.name = name;
        fn.prettyName = name;
        fn.unit = std::string(name) + ".cpp";
        fn.dso = dso;
        fn.metrics.numInstructions = 100;
        fn.flags.hasBody = true;
        model.functions.push_back(fn);
    }
    model.entry = 0;
    return model;
}

/// dlclose both DSOs, then dlopen libb before liba: libb takes object id 1,
/// which was liba's. A DynCapi built before the swap must follow the ids on
/// its next apply, through the full and the delta path alike.
void expectTablesFollowReassignedIds(bool delta) {
    Process process(compile(twoPluginModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);
    ASSERT_EQ(xray::objectIdOf(*dyn.resolveName("a")), 1u);

    ASSERT_TRUE(process.dlcloseDso(0));
    ASSERT_TRUE(process.dlcloseDso(1));
    ASSERT_TRUE(process.dlopenDso(1));
    ASSERT_TRUE(process.dlopenDso(0));
    const AppModel& model = process.program().model();
    const xray::PackedId a = *process.packedIdOf(model.indexOf("a"));
    const xray::PackedId b = *process.packedIdOf(model.indexOf("b"));
    ASSERT_EQ(xray::objectIdOf(b), 1u);
    ASSERT_EQ(xray::objectIdOf(a), 2u);

    select::InstrumentationConfig ic;
    ic.addFunction("a");
    if (delta) {
        dyncapi::DeltaStats stats =
            dyn.applyPolicyDelta(select::InstrumentationPolicy::fullOf(ic));
        EXPECT_EQ(stats.functionsPatched, 1u);
        EXPECT_EQ(stats.requestedUnavailable, 0u);
    } else {
        dyncapi::InitStats stats = dyn.applyIc(ic);
        EXPECT_EQ(stats.patchedFunctions, 1u);
        EXPECT_EQ(stats.requestedUnavailable, 0u);
    }
    EXPECT_TRUE(process.xray().functionPatched(a));
    EXPECT_FALSE(process.xray().functionPatched(b));

    EXPECT_EQ(dyn.resolveName("a"), a);
    EXPECT_EQ(dyn.resolveName("b"), b);
    EXPECT_EQ(dyn.nameOf(a).value_or(""), "a");
    EXPECT_EQ(dyn.nameOf(b).value_or(""), "b");
    EXPECT_EQ(dyn.addressOf(a), process.execInfo()[model.indexOf("a")].entryAddress);
    EXPECT_EQ(dyn.addressOf(b), process.execInfo()[model.indexOf("b")].entryAddress);
    EXPECT_EQ(dyn.sleddedFunctionCount(), 3u);
}

TEST(DynCapi, ApplyPolicyFollowsObjectIdsReassignedByDlopen) {
    expectTablesFollowReassignedIds(/*delta=*/false);
}

TEST(DynCapi, ApplyPolicyDeltaFollowsObjectIdsReassignedByDlopen) {
    expectTablesFollowReassignedIds(/*delta=*/true);
}

TEST(DynCapi, TalpRegionsFollowObjectIdsReassignedByDlopen) {
    // main -> MPI_Init, then drive: a once, b twice. After libb takes
    // liba's old object id, a stale region cache would book b's visits on
    // region "a" and a's on "b".
    AppModel model = twoPluginModel();
    AppFunction init;
    init.name = "MPI_Init";
    init.mpiOp = MpiOp::Init;
    model.functions.push_back(init);
    AppFunction drive = model.functions[0];
    drive.name = drive.prettyName = "drive";
    drive.calls = {{1, 1}, {2, 2}};
    model.functions.push_back(drive);
    const auto driveIndex = static_cast<std::uint32_t>(model.functions.size() - 1);
    model.functions[0].calls = {{driveIndex - 1, 1}, {driveIndex, 1}};
    Process process(compile(model, lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig ic;
    ic.addFunction("a");
    ic.addFunction("b");
    mpi::MpiWorld world(1);
    talp::TalpRuntime talp(world);
    dyncapi::WorldMpiPort port(world);
    dyn.applyIc(ic);
    dyn.attachTalpHandler(talp);
    mpi::runRanks(world, [&](int rank) {
        ExecutionEngine engine(process);
        engine.setMpiPort(&port);
        engine.run(rank, world.worldSize());
    });

    ASSERT_TRUE(process.dlcloseDso(0));
    ASSERT_TRUE(process.dlcloseDso(1));
    ASSERT_TRUE(process.dlopenDso(1));
    ASSERT_TRUE(process.dlopenDso(0));
    dyn.applyIc(ic);
    mpi::runRanks(world, [&](int rank) {
        ExecutionEngine engine(process);
        engine.setMpiPort(&port);
        engine.runFunction(driveIndex, rank, world.worldSize());
    });

    ASSERT_TRUE(talp.metrics("a").has_value());
    ASSERT_TRUE(talp.metrics("b").has_value());
    EXPECT_EQ(talp.metrics("a")->visits, 2u);
    EXPECT_EQ(talp.metrics("b")->visits, 4u);
}

TEST(DynCapi, ClosedObjectsDropOutOfResolution) {
    Process process(compile(twoPluginModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);
    const xray::PackedId a = *dyn.resolveName("a");
    ASSERT_TRUE(process.dlcloseDso(0));
    EXPECT_FALSE(dyn.resolveName("a").has_value());
    EXPECT_EQ(dyn.addressOf(a), 0u);
    EXPECT_EQ(dyn.sleddedFunctionCount(), 2u);
    ASSERT_TRUE(process.dlopenDso(0));
    EXPECT_EQ(dyn.resolveName("a"),
              process.packedIdOf(process.program().model().indexOf("a")));
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
