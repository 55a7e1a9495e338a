// Oracle properties of Tinit: the dense home index, the flat sled index and
// DynCapi's merge-join resolution must agree with the reference lookups in
// reference_tinit.hpp on every model function and every packed id — over
// random models (hidden symbols, retained out-of-line inlined symbols, at
// least three DSOs) and OpenFOAM, through dlclose/dlopen sequences that hand
// DSOs different XRay object ids. Score-P's symbol injection, which sorts
// once over every mapped object, must resolve like the executable's
// resolver with each mapped DSO injected one at a time.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/openfoam.hpp"
#include "binsim/compiler.hpp"
#include "binsim/process.hpp"
#include "dyncapi/dyncapi.hpp"
#include "reference_tinit.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "support/rng.hpp"

namespace {

using namespace capi;

/// Random model: `functions` functions over 3-5 DSOs and the executable.
/// Small bodies get auto-inlined, some keep a retained out-of-line symbol,
/// and roughly one in eight symbols is hidden.
binsim::AppModel randomModel(std::uint64_t seed, std::uint32_t functions) {
    support::SplitMix64 rng(seed);
    binsim::AppModel model;
    model.name = "random" + std::to_string(seed);
    const std::size_t dsos = 3 + rng.nextBelow(3);
    for (std::size_t d = 0; d < dsos; ++d) {
        model.dsos.push_back({"lib" + std::to_string(d) + ".so"});
    }
    for (std::uint32_t i = 0; i < functions; ++i) {
        binsim::AppFunction fn;
        fn.name = i == 0 ? "main" : "fn" + std::to_string(i);
        fn.prettyName = fn.name;
        fn.unit = "u" + std::to_string(i % 17) + ".cpp";
        fn.dso = i == 0 ? -1 : static_cast<int>(rng.nextBelow(dsos + 1)) - 1;
        fn.metrics.numInstructions = static_cast<std::uint32_t>(rng.nextBelow(160));
        fn.metrics.loopDepth = rng.nextBool(0.2) ? 1 : 0;
        fn.flags.hasBody = i == 0 || rng.nextBool(0.93);
        fn.flags.hiddenVisibility = rng.nextBool(0.12);
        fn.flags.inlineSpecified = rng.nextBool(0.25);
        fn.flags.isVirtual = rng.nextBool(0.05);
        model.functions.push_back(std::move(fn));
    }
    model.entry = 0;
    return model;
}

binsim::CompileOptions optionsFor(std::uint64_t seed) {
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = seed % 2 == 0 ? 1 : 40;
    options.retainedInlineSymbolPeriod = 3;
    return options;
}

void expectSameExecInfo(const binsim::ExecInfo& actual, const binsim::ExecInfo& expected,
                        std::uint32_t modelIndex) {
    SCOPED_TRACE("model function " + std::to_string(modelIndex));
    EXPECT_EQ(actual.hasCode, expected.hasCode);
    EXPECT_EQ(actual.inlined, expected.inlined);
    EXPECT_EQ(actual.hasSleds, expected.hasSleds);
    EXPECT_EQ(actual.entryAddress, expected.entryAddress);
    EXPECT_EQ(actual.exitAddress, expected.exitAddress);
    EXPECT_EQ(actual.packedId, expected.packedId);
}

void expectInjectionMatchesReference(const binsim::Process& process) {
    const binsim::CompiledProgram& program = process.program();
    scorep::SymbolResolver expected =
        scorep::SymbolResolver::fromExecutable(program.executable());
    for (const binsim::MapEntry& map : process.memoryMap()) {
        for (std::size_t d = 0; d < program.dsos().size(); ++d) {
            if (!map.isMainExecutable && program.dsos()[d].name == map.object &&
                process.loadBase(static_cast<int>(d)) == map.loadBase) {
                expected.injectObject(program.dsos()[d], map.loadBase);
            }
        }
    }
    const scorep::SymbolResolver actual =
        scorep::SymbolResolver::withSymbolInjection(process);
    EXPECT_EQ(actual.symbolCount(), expected.symbolCount());
    for (int dso = -1; dso < static_cast<int>(program.dsos().size()); ++dso) {
        const binsim::ObjectImage& image = process.objectImage(dso);
        const std::uint64_t delta = process.loadBase(dso) - image.linkBase;
        for (const binsim::Symbol& symbol : image.symbols) {
            const std::uint64_t begin = symbol.address + delta;
            for (std::uint64_t address : {begin, begin + symbol.size - 1,
                                          begin + symbol.size}) {
                EXPECT_EQ(actual.resolve(address), expected.resolve(address))
                    << symbol.name << " @" << address;
            }
        }
    }
}

/// Compares the process and a DynCapi on it with the references, in the
/// process's current load state.
void expectMatchesReference(binsim::Process& process, const dyncapi::DynCapi& dyn) {
    const binsim::CompiledProgram& program = process.program();
    const binsim::AppModel& model = program.model();
    const reference::ModelToLocal homes(program);

    // The counts are control-plane calls: they also bring the tables up to
    // the live object ids before nameOf/addressOf are read below.
    const reference::Resolution expected = reference::resolveAllObjects(process);
    EXPECT_EQ(dyn.sleddedFunctionCount(), expected.sledded);
    EXPECT_EQ(dyn.unresolvableFunctionCount(), expected.unresolvable);

    const std::vector<binsim::ExecInfo> info = reference::execInfo(process, homes);
    ASSERT_EQ(process.execInfo().size(), info.size());
    for (std::uint32_t i = 0; i < model.functions.size(); ++i) {
        EXPECT_EQ(program.objectOf(i), homes.objectOf(i)) << model.functions[i].name;
        EXPECT_EQ(program.compiledOf(i), homes.compiledOf(i)) << model.functions[i].name;
        expectSameExecInfo(process.execInfo()[i], info[i], i);
        EXPECT_EQ(dyn.resolveName(model.functions[i].name),
                  expected.resolveName(model.functions[i].name))
            << model.functions[i].name;
    }
    const auto outOfRange = static_cast<std::uint32_t>(model.functions.size());
    EXPECT_EQ(program.objectOf(outOfRange), nullptr);
    EXPECT_EQ(program.compiledOf(outOfRange), nullptr);
    EXPECT_FALSE(dyn.resolveName("no such function").has_value());
    expectInjectionMatchesReference(process);

    // Every packed id the tables could hold, plus one past each object's
    // id space and the ids of objects not registered now.
    std::size_t widest = 0;
    for (const auto& names : expected.nameByObject) {
        widest = std::max(widest, names.size());
    }
    for (xray::ObjectId object = 0; object <= program.dsos().size() + 1; ++object) {
        for (xray::FunctionId fid = 0; fid <= widest; ++fid) {
            const xray::PackedId pid = xray::packId(object, fid);
            EXPECT_EQ(dyn.nameOf(pid), expected.nameOf(pid)) << "pid " << pid;
            EXPECT_EQ(dyn.addressOf(pid), expected.addressOf(pid)) << "pid " << pid;
        }
    }
}

/// Closes and reopens DSOs at random, then closes every DSO and reopens
/// them in reverse order, so ids get handed out differently from the
/// initial load. Checks the long-lived DynCapi and a fresh one each step.
void runLoadSequence(binsim::Process& process, std::uint64_t seed, int steps) {
    const binsim::CompiledProgram& program = process.program();
    std::size_t retainedInline = 0;
    for (std::uint32_t i = 0; i < program.model().functions.size(); ++i) {
        retainedInline += program.inlinedAway()[i] && program.objectOf(i) != nullptr;
    }
    EXPECT_GT(retainedInline, 0u);

    dyncapi::DynCapi dyn(process);
    expectMatchesReference(process, dyn);
    support::SplitMix64 rng(seed ^ 0x5eedULL);
    const std::size_t dsos = program.dsos().size();
    for (int step = 0; step < steps; ++step) {
        const std::size_t d = rng.nextBelow(dsos);
        if (!process.dlcloseDso(d)) {
            process.dlopenDso(d);
        }
        SCOPED_TRACE("step " + std::to_string(step));
        expectMatchesReference(process, dyn);
    }
    for (std::size_t d = 0; d < dsos; ++d) {
        process.dlcloseDso(d);
    }
    expectMatchesReference(process, dyn);
    for (std::size_t d = dsos; d-- > 0;) {
        process.dlopenDso(d);
    }
    SCOPED_TRACE("after reverse reopen");
    if (process.xrayObjectId(0).has_value()) {
        // DSO 0 reopened last, behind every other DSO with sleds.
        EXPECT_GT(*process.xrayObjectId(0), 1u);
    }
    expectMatchesReference(process, dyn);
    const dyncapi::DynCapi fresh(process);
    expectMatchesReference(process, fresh);
}

class TinitOracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TinitOracleProperty, RandomModelMatchesReferenceAcrossDlopenSequences) {
    const std::uint64_t seed = GetParam();
    binsim::ProcessOptions options;
    options.registerDsos = seed % 5 != 4;  // some processes never register DSOs
    binsim::Process process(binsim::compile(randomModel(seed, 400), optionsFor(seed)),
                            options);
    runLoadSequence(process, seed, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TinitOracleProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

class TinitOracleOpenFoam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TinitOracleOpenFoam, MatchesReferenceAcrossDlopenSequences) {
    apps::OpenFoamParams params;
    params.targetNodes = 3000;
    params.seed = GetParam();
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    binsim::Process process(binsim::compile(apps::makeOpenFoam(params), options));
    ASSERT_GE(process.program().dsos().size(), 3u);
    runLoadSequence(process, GetParam(), 6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TinitOracleOpenFoam, ::testing::Values(3u, 11u));

}  // namespace
