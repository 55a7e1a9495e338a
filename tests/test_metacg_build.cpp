// Tests for the streaming whole-program build and CallGraph bulk assembly.
//
// The oracle is the per-edge construction the builder used to run: one
// standalone graph per TU (MetaCgBuilder::buildLocal), merged through the
// journaled addFunction / lookup / addCallEdge / addOverride API. The
// streaming build must reproduce it exactly: ids, descs, both adjacency
// directions, both override directions, the entry, MergeStats and the order
// of the unresolved pointer sites.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/lulesh.hpp"
#include "apps/openfoam.hpp"
#include "cg/call_graph.hpp"
#include "cg/metacg_builder.hpp"
#include "cg/metacg_json.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace {

using namespace capi;

// ------------------------------------------------------------ reference ---

struct ReferenceBuild {
    cg::CallGraph graph;
    cg::MergeStats stats;
    std::vector<cg::UnresolvedPointerCall> unresolved;
};

/// The per-edge merge over buildLocal results.
ReferenceBuild referenceBuild(const cg::SourceModel& model) {
    std::vector<cg::LocalCallGraph> locals;
    for (const cg::TranslationUnit& unit : model.units) {
        locals.push_back(cg::MetaCgBuilder::buildLocal(unit));
    }
    ReferenceBuild out;
    cg::CallGraph& whole = out.graph;
    out.stats.translationUnits = locals.size();

    for (const cg::LocalCallGraph& local : locals) {
        for (cg::FunctionId id = 0; id < local.graph.size(); ++id) {
            whole.addFunction(local.graph.desc(id));
        }
    }
    for (const cg::LocalCallGraph& local : locals) {
        for (cg::FunctionId id = 0; id < local.graph.size(); ++id) {
            cg::FunctionId caller = whole.lookup(local.graph.name(id));
            for (cg::FunctionId localCallee : local.graph.callees(id)) {
                cg::FunctionId callee = whole.lookup(local.graph.name(localCallee));
                if (!whole.hasEdge(caller, callee)) {
                    ++out.stats.directEdges;
                    whole.addCallEdge(caller, callee);
                }
            }
        }
    }
    for (const cg::OverrideRelation& rel : model.overrides) {
        cg::FunctionId base = whole.lookup(rel.base);
        cg::FunctionId derived = whole.lookup(rel.derived);
        if (base != cg::kInvalidFunction && derived != cg::kInvalidFunction) {
            whole.addOverride(base, derived);
        }
    }
    for (const cg::LocalCallGraph& local : locals) {
        for (const auto& pending : local.pendingVirtual) {
            cg::FunctionId caller = whole.lookup(pending.caller);
            cg::FunctionId base = whole.lookup(pending.site.target);
            if (caller == cg::kInvalidFunction || base == cg::kInvalidFunction) {
                continue;
            }
            std::deque<cg::FunctionId> queue{base};
            std::unordered_set<cg::FunctionId> seen{base};
            while (!queue.empty()) {
                cg::FunctionId target = queue.front();
                queue.pop_front();
                if (!whole.hasEdge(caller, target)) {
                    whole.addCallEdge(caller, target);
                    ++out.stats.virtualEdges;
                }
                for (cg::FunctionId derived : whole.overriddenBy(target)) {
                    if (seen.insert(derived).second) {
                        queue.push_back(derived);
                    }
                }
            }
        }
    }
    std::unordered_map<std::string, std::vector<cg::FunctionId>> bySignature;
    for (cg::FunctionId id = 0; id < whole.size(); ++id) {
        const cg::FunctionDesc& desc = whole.desc(id);
        if (desc.flags.addressTaken && !desc.signature.empty()) {
            bySignature[desc.signature].push_back(id);
        }
    }
    for (const cg::LocalCallGraph& local : locals) {
        for (const auto& pending : local.pendingPointer) {
            cg::FunctionId caller = whole.lookup(pending.caller);
            auto it = bySignature.find(pending.site.signature);
            if (caller != cg::kInvalidFunction && it != bySignature.end() &&
                it->second.size() == 1) {
                whole.addCallEdge(caller, it->second.front());
                ++out.stats.pointerEdgesResolved;
            } else {
                ++out.stats.pointerSitesUnresolved;
                out.unresolved.push_back({pending.caller, pending.site.signature});
            }
        }
    }
    out.stats.totalNodes = whole.size();
    return out;
}

// ------------------------------------------------------------ comparison ---

void expectSameDesc(const cg::FunctionDesc& a, const cg::FunctionDesc& b) {
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.prettyName, b.prettyName) << a.name;
    EXPECT_EQ(a.translationUnit, b.translationUnit) << a.name;
    EXPECT_EQ(a.sourceFile, b.sourceFile) << a.name;
    EXPECT_EQ(a.line, b.line) << a.name;
    EXPECT_EQ(a.signature, b.signature) << a.name;
    EXPECT_EQ(a.flags.hasBody, b.flags.hasBody) << a.name;
    EXPECT_EQ(a.flags.inlineSpecified, b.flags.inlineSpecified) << a.name;
    EXPECT_EQ(a.flags.inSystemHeader, b.flags.inSystemHeader) << a.name;
    EXPECT_EQ(a.flags.isVirtual, b.flags.isVirtual) << a.name;
    EXPECT_EQ(a.flags.isMpi, b.flags.isMpi) << a.name;
    EXPECT_EQ(a.flags.addressTaken, b.flags.addressTaken) << a.name;
    EXPECT_EQ(a.flags.hiddenVisibility, b.flags.hiddenVisibility) << a.name;
    EXPECT_EQ(a.metrics.numStatements, b.metrics.numStatements) << a.name;
    EXPECT_EQ(a.metrics.flops, b.metrics.flops) << a.name;
    EXPECT_EQ(a.metrics.loopDepth, b.metrics.loopDepth) << a.name;
    EXPECT_EQ(a.metrics.cyclomaticComplexity, b.metrics.cyclomaticComplexity)
        << a.name;
    EXPECT_EQ(a.metrics.numCallSites, b.metrics.numCallSites) << a.name;
    EXPECT_EQ(a.metrics.numInstructions, b.metrics.numInstructions) << a.name;
    EXPECT_EQ(a.metrics.profiledVisits, b.metrics.profiledVisits) << a.name;
}

void expectSameGraph(const cg::CallGraph& actual, const cg::CallGraph& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    EXPECT_EQ(actual.aliveCount(), expected.aliveCount());
    EXPECT_EQ(actual.edgeCount(), expected.edgeCount());
    EXPECT_EQ(actual.entryPoint(), expected.entryPoint());
    for (cg::FunctionId id = 0; id < expected.size(); ++id) {
        SCOPED_TRACE(expected.name(id));
        expectSameDesc(actual.desc(id), expected.desc(id));
        EXPECT_EQ(actual.lookup(expected.name(id)), id);
        EXPECT_EQ(actual.callees(id), expected.callees(id));
        EXPECT_EQ(actual.callers(id), expected.callers(id));
        EXPECT_EQ(actual.overrides(id), expected.overrides(id));
        EXPECT_EQ(actual.overriddenBy(id), expected.overriddenBy(id));
        if (::testing::Test::HasFailure()) {
            return;  // One node's report is enough.
        }
    }
}

void expectMatchesReference(const cg::SourceModel& model) {
    const ReferenceBuild reference = referenceBuild(model);

    cg::MetaCgBuilder borrowed;
    const cg::CallGraph fromConst = borrowed.build(model);
    cg::MetaCgBuilder owned;
    const cg::CallGraph fromTemporary = owned.build(cg::SourceModel(model));

    for (const cg::MetaCgBuilder* builder : {&borrowed, &owned}) {
        const cg::MergeStats& s = builder->stats();
        EXPECT_EQ(s.translationUnits, reference.stats.translationUnits);
        EXPECT_EQ(s.totalNodes, reference.stats.totalNodes);
        EXPECT_EQ(s.directEdges, reference.stats.directEdges);
        EXPECT_EQ(s.virtualEdges, reference.stats.virtualEdges);
        EXPECT_EQ(s.pointerEdgesResolved, reference.stats.pointerEdgesResolved);
        EXPECT_EQ(s.pointerSitesUnresolved, reference.stats.pointerSitesUnresolved);
        const auto& unresolved = builder->unresolvedPointerCalls();
        ASSERT_EQ(unresolved.size(), reference.unresolved.size());
        for (std::size_t i = 0; i < unresolved.size(); ++i) {
            EXPECT_EQ(unresolved[i].caller, reference.unresolved[i].caller);
            EXPECT_EQ(unresolved[i].signature, reference.unresolved[i].signature);
        }
    }
    expectSameGraph(fromConst, reference.graph);
    expectSameGraph(fromTemporary, reference.graph);
}

// ---------------------------------------------------------------- models ---

cg::SourceFunction sighting(const std::string& name, bool hasBody) {
    cg::SourceFunction fn;
    fn.desc.name = name;
    fn.desc.prettyName = name + "()";
    fn.desc.flags.hasBody = hasBody;
    return fn;
}

cg::CallSite direct(const std::string& target) {
    return {cg::CallSite::Kind::Direct, target, ""};
}
cg::CallSite virtualCall(const std::string& base) {
    return {cg::CallSite::Kind::Virtual, base, ""};
}
cg::CallSite pointerCall(const std::string& signature) {
    return {cg::CallSite::Kind::FunctionPointer, "", signature};
}

/// Every shape the merge has a rule for, in three TUs.
cg::SourceModel handBuiltModel() {
    cg::SourceModel model;

    cg::TranslationUnit a;
    a.name = "a.cpp";
    {
        cg::SourceFunction mainFn = sighting("main", true);
        mainFn.callSites = {direct("helper"), direct("helper"), direct("ext_lib"),
                            direct("later"), virtualCall("Base::run"),
                            virtualCall("Unknown::run"), pointerCall("void(int)"),
                            pointerCall("void(double)"), pointerCall("void(char)")};
        a.functions.push_back(mainFn);
        // Declaration first, then the definition, in the same TU.
        cg::SourceFunction helperDecl = sighting("helper", false);
        helperDecl.desc.flags.addressTaken = true;
        a.functions.push_back(helperDecl);
        cg::SourceFunction helperDef = sighting("helper", true);
        helperDef.desc.metrics.flops = 7;
        helperDef.callSites = {direct("helper"), direct("inl")};  // recursion
        a.functions.push_back(helperDef);
        // A repeated definition sighting inside one TU.
        cg::SourceFunction inl = sighting("inl", true);
        inl.desc.flags.inlineSpecified = false;
        inl.callSites = {direct("ext_lib")};
        a.functions.push_back(inl);
        cg::SourceFunction inlAgain = sighting("inl", true);
        inlAgain.desc.flags.inlineSpecified = true;
        inlAgain.desc.metrics.flops = 99;  // ignored: the first definition wins
        inlAgain.callSites = {direct("ext_other")};
        a.functions.push_back(inlAgain);
        // The address of an external callback is taken here; b.cpp defines it.
        cg::SourceFunction cbDecl = sighting("cb", false);
        cbDecl.desc.flags.addressTaken = true;
        cbDecl.desc.signature = "void(int)";
        a.functions.push_back(cbDecl);
        for (const char* name : {"Base::run", "Mid::run", "Leaf::run"}) {
            cg::SourceFunction method = sighting(name, true);
            method.desc.flags.isVirtual = true;
            a.functions.push_back(method);
        }
    }

    cg::TranslationUnit b;
    b.name = "b.cpp";
    {
        cg::SourceFunction cbDef = sighting("cb", true);
        cbDef.desc.signature = "void(int)";
        cbDef.desc.translationUnit = "explicit.cpp";
        b.functions.push_back(cbDef);
        cg::SourceFunction later = sighting("later", true);
        later.callSites = {direct("main"), virtualCall("Mid::run"),
                           pointerCall("void(int)")};
        b.functions.push_back(later);
        // The same inline function defined again in a second TU.
        cg::SourceFunction inl = sighting("inl", true);
        inl.callSites = {direct("ext_lib"), direct("later")};
        b.functions.push_back(inl);
        for (const char* name : {"d1", "d2"}) {
            cg::SourceFunction fn = sighting(name, true);
            fn.desc.flags.addressTaken = true;
            fn.desc.signature = "void(double)";
            b.functions.push_back(fn);
        }
        // A declaration-only sighting of something defined nowhere.
        b.functions.push_back(sighting("ext_lib", false));
        cg::SourceFunction derivedLate = sighting("Other::run", true);
        derivedLate.desc.flags.isVirtual = true;
        derivedLate.callSites = {direct("Other::run")};
        b.functions.push_back(derivedLate);
    }

    cg::TranslationUnit c;
    c.name = "c.cpp";
    {
        cg::SourceFunction lateDef = sighting("ext_other", true);
        lateDef.desc.flags.addressTaken = true;
        c.functions.push_back(lateDef);
        c.functions.push_back(sighting("main", false));
    }

    model.units = {a, b, c};
    model.overrides = {{"Base::run", "Mid::run"},
                       {"Mid::run", "Leaf::run"},
                       {"Base::run", "Other::run"},
                       {"Base::run", "Mid::run"},  // repeated
                       {"Ghost::run", "Leaf::run"}};  // unknown base
    return model;
}

/// Random small models: few names so sightings collide often, every call
/// kind, declarations and definitions in any order across TUs.
cg::SourceModel randomModel(std::uint64_t seed) {
    support::SplitMix64 rng(seed);
    auto uniform = [&](std::uint64_t bound) {
        return static_cast<std::uint32_t>(rng.nextBelow(bound));
    };
    const std::uint32_t names = 4 + uniform(20);
    auto name = [&] { return "f" + std::to_string(uniform(names)); };
    const char* signatures[] = {"s0", "s1", "s2", ""};
    cg::SourceModel model;
    const std::uint32_t units = 1 + uniform(5);
    for (std::uint32_t u = 0; u < units; ++u) {
        cg::TranslationUnit unit;
        unit.name = "tu" + std::to_string(u) + ".cpp";
        const std::uint32_t functions = uniform(8);
        for (std::uint32_t f = 0; f < functions; ++f) {
            cg::SourceFunction fn = sighting(name(), uniform(3) != 0);
            fn.desc.prettyName += std::to_string(uniform(3));
            fn.desc.flags.addressTaken = uniform(4) == 0;
            fn.desc.flags.inlineSpecified = uniform(3) == 0;
            fn.desc.signature = signatures[uniform(4)];
            fn.desc.metrics.flops = uniform(100);
            if (uniform(4) == 0) {
                fn.desc.translationUnit = "explicit.cpp";
            }
            const std::uint32_t sites = uniform(5);
            for (std::uint32_t s = 0; s < sites; ++s) {
                switch (uniform(4)) {
                    case 0: fn.callSites.push_back(virtualCall(name())); break;
                    case 1:
                        fn.callSites.push_back(pointerCall(signatures[uniform(4)]));
                        break;
                    default: fn.callSites.push_back(direct(name())); break;
                }
            }
            unit.functions.push_back(std::move(fn));
        }
        model.units.push_back(std::move(unit));
    }
    const std::uint32_t overrides = uniform(6);
    for (std::uint32_t o = 0; o < overrides; ++o) {
        model.overrides.push_back({name(), name()});
    }
    return model;
}

// ----------------------------------------------------------------- oracle ---

TEST(StreamingBuild, MatchesPerEdgeReferenceOnHandBuiltModel) {
    const cg::SourceModel model = handBuiltModel();
    expectMatchesReference(model);

    cg::MetaCgBuilder builder;
    const cg::CallGraph g = builder.build(model);
    const cg::FunctionId mainId = g.lookup("main");
    EXPECT_EQ(g.entryPoint(), mainId);
    EXPECT_TRUE(g.hasEdge(g.lookup("helper"), g.lookup("helper")));
    EXPECT_FALSE(g.desc(g.lookup("ext_lib")).flags.hasBody);
    EXPECT_EQ(g.desc(g.lookup("inl")).metrics.flops, 0u);
    EXPECT_TRUE(g.desc(g.lookup("inl")).flags.inlineSpecified);
    EXPECT_EQ(g.desc(g.lookup("helper")).translationUnit, "a.cpp");
    EXPECT_EQ(g.desc(g.lookup("cb")).translationUnit, "explicit.cpp");
    EXPECT_TRUE(g.hasEdge(mainId, g.lookup("Leaf::run")));
    EXPECT_TRUE(g.hasEdge(mainId, g.lookup("Other::run")));
    EXPECT_EQ(g.overriddenBy(g.lookup("Base::run")).size(), 2u);
    EXPECT_EQ(builder.stats().pointerSitesUnresolved, 2u);  // void(double), void(char)
}

TEST(StreamingBuild, MatchesPerEdgeReferenceOnRandomModels) {
    cg::MergeStats total;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const cg::SourceModel model = randomModel(seed);
        expectMatchesReference(model);
        if (HasFailure()) {
            return;
        }
        cg::MetaCgBuilder builder;
        builder.build(model);
        total.virtualEdges += builder.stats().virtualEdges;
        total.pointerEdgesResolved += builder.stats().pointerEdgesResolved;
        total.pointerSitesUnresolved += builder.stats().pointerSitesUnresolved;
    }
    // The sweep reaches every whole-program rule.
    EXPECT_GT(total.virtualEdges, 0u);
    EXPECT_GT(total.pointerEdgesResolved, 0u);
    EXPECT_GT(total.pointerSitesUnresolved, 0u);
}

TEST(StreamingBuild, MatchesPerEdgeReferenceOnOpenFoam) {
    for (std::uint32_t nodes : {3000u, 12000u}) {
        for (std::uint64_t seed : {3u, 11u}) {
            SCOPED_TRACE("nodes " + std::to_string(nodes) + " seed " +
                         std::to_string(seed));
            apps::OpenFoamParams params;
            params.targetNodes = nodes;
            params.seed = seed;
            expectMatchesReference(apps::makeOpenFoam(params).toSourceModel());
        }
    }
}

TEST(StreamingBuild, MatchesPerEdgeReferenceOnLulesh) {
    expectMatchesReference(apps::makeLulesh().toSourceModel());
}

// ------------------------------------------------------ addressTaken fix ---

cg::SourceModel callbackAcrossUnits() {
    cg::SourceModel model;
    cg::TranslationUnit user;
    user.name = "user.cpp";
    cg::SourceFunction mainFn = sighting("main", true);
    mainFn.callSites = {pointerCall("void(int)")};
    user.functions.push_back(mainFn);
    cg::SourceFunction cbDecl = sighting("cb", false);
    cbDecl.desc.flags.addressTaken = true;
    cbDecl.desc.signature = "void(int)";
    user.functions.push_back(cbDecl);

    cg::TranslationUnit impl;
    impl.name = "impl.cpp";
    cg::SourceFunction cbDef = sighting("cb", true);
    cbDef.desc.signature = "void(int)";
    impl.functions.push_back(cbDef);

    model.units = {user, impl};
    return model;
}

TEST(StreamingBuild, DefinitionKeepsAddressTakenFromAnEarlierDeclaration) {
    cg::MetaCgBuilder builder;
    const cg::CallGraph g = builder.build(callbackAcrossUnits());
    const cg::FunctionId cb = g.lookup("cb");
    EXPECT_TRUE(g.desc(cb).flags.hasBody);
    EXPECT_TRUE(g.desc(cb).flags.addressTaken);
    EXPECT_TRUE(g.hasEdge(g.lookup("main"), cb));
    EXPECT_EQ(builder.stats().pointerEdgesResolved, 1u);
    EXPECT_TRUE(builder.unresolvedPointerCalls().empty());
}

TEST(StreamingBuild, AddressTakenDoesNotDependOnSightingOrder) {
    // The defining TU first or last: the same merged node either way.
    cg::SourceModel declFirst = callbackAcrossUnits();
    cg::SourceModel defFirst = declFirst;
    std::swap(defFirst.units[0], defFirst.units[1]);
    cg::MetaCgBuilder a;
    cg::MetaCgBuilder b;
    const cg::CallGraph ga = a.build(declFirst);
    const cg::CallGraph gb = b.build(defFirst);
    expectSameDesc(ga.desc(ga.lookup("cb")), gb.desc(gb.lookup("cb")));
    EXPECT_TRUE(gb.desc(gb.lookup("cb")).flags.addressTaken);
    EXPECT_EQ(a.stats().pointerEdgesResolved, 1u);
    EXPECT_EQ(b.stats().pointerEdgesResolved, 1u);
}

TEST(CallGraph, DefinitionAfterDeclarationKeepsAddressTaken) {
    cg::CallGraph g;
    cg::FunctionDesc decl;
    decl.name = "cb";
    decl.flags.addressTaken = true;
    g.addFunction(decl);
    cg::FunctionDesc def;
    def.name = "cb";
    def.flags.hasBody = true;
    def.metrics.flops = 3;
    g.addFunction(def);
    EXPECT_TRUE(g.desc(0).flags.hasBody);
    EXPECT_TRUE(g.desc(0).flags.addressTaken);
    EXPECT_EQ(g.desc(0).metrics.flops, 3u);
}

// ------------------------------------------------------- journal contract ---

void expectFreshLineage(cg::CallGraph& g, std::uint64_t stampBeforeBuild) {
    const std::uint64_t built = g.generation();
    EXPECT_GT(built, stampBeforeBuild);
    EXPECT_EQ(g.journalSize(), 0u);
    std::optional<cg::GraphDelta> now = g.deltaSince(built);
    ASSERT_TRUE(now.has_value());
    EXPECT_TRUE(now->empty());
    EXPECT_FALSE(g.deltaSince(stampBeforeBuild).has_value());
    EXPECT_TRUE(g.drainDelta().empty());

    // The first runtime mutation is journaled as usual.
    cg::FunctionDesc plugin;
    plugin.name = "plugin_fn";
    plugin.flags.hasBody = true;
    const cg::FunctionId id = g.addFunction(plugin);
    g.addCallEdge(g.entryPoint(), id);
    std::optional<cg::GraphDelta> delta = g.deltaSince(built);
    ASSERT_TRUE(delta.has_value());
    EXPECT_EQ(delta->addedNodes, std::vector<cg::FunctionId>{id});
    ASSERT_EQ(delta->addedCallEdges.size(), 1u);
    EXPECT_EQ(delta->addedCallEdges[0].second, id);
    cg::GraphDelta drained = g.drainDelta();
    EXPECT_EQ(drained.addedNodes, std::vector<cg::FunctionId>{id});
    EXPECT_EQ(drained.addedCallEdges.size(), 1u);
}

TEST(BulkAssembly, BuiltGraphStartsAFreshLineage) {
    const std::uint64_t before = cg::CallGraph().generation();
    cg::MetaCgBuilder builder;
    cg::CallGraph g = builder.build(handBuiltModel());
    expectFreshLineage(g, before);
}

TEST(BulkAssembly, JsonReadGraphStartsAFreshLineage) {
    const support::Json doc = cg::toMetaCgJson(testutil::listing3Graph());
    const std::uint64_t before = cg::CallGraph().generation();
    cg::CallGraph g = cg::fromMetaCgJson(doc);
    expectFreshLineage(g, before);
}

TEST(BulkAssembly, JsonRoundTripIsExact) {
    cg::MetaCgBuilder builder;
    const cg::CallGraph g = builder.build(handBuiltModel());
    expectSameGraph(cg::fromMetaCgJson(cg::toMetaCgJson(g)), g);
}

TEST(BulkAssembly, RowsAreSortedUniqueInBothDirections) {
    cg::CallGraph::Assembly assembly;
    for (const char* name : {"a", "b", "c"}) {
        cg::FunctionDesc desc;
        desc.name = name;
        assembly.intern(desc);
    }
    EXPECT_EQ(assembly.internDeclaration("b"), 1u);
    EXPECT_EQ(assembly.internDeclaration("d"), 3u);
    EXPECT_EQ(assembly.desc(3).prettyName, "d");
    assembly.addCallEdge(0, 3);
    assembly.addCallEdge(0, 1);
    assembly.addCallEdge(0, 3);
    assembly.addCallEdge(2, 1);
    assembly.addOverride(1, 2);
    assembly.addOverride(1, 2);
    EXPECT_EQ(assembly.fillRows(), 3u);
    EXPECT_EQ(assembly.overriddenBy(1), std::vector<cg::FunctionId>{2});
    assembly.addCallEdge(2, 0);
    assembly.addCallEdge(0, 2);
    const cg::CallGraph g = std::move(assembly).finish();
    EXPECT_EQ(g.callees(0), (std::vector<cg::FunctionId>{1, 2, 3}));
    EXPECT_EQ(g.callers(1), (std::vector<cg::FunctionId>{0, 2}));
    EXPECT_EQ(g.callers(0), std::vector<cg::FunctionId>{2});
    EXPECT_EQ(g.overrides(2), std::vector<cg::FunctionId>{1});
    EXPECT_EQ(g.edgeCount(), 5u);
    EXPECT_EQ(g.lookup("d"), 3u);
}

TEST(BulkAssembly, RejectsAnUnknownId) {
    cg::CallGraph::Assembly assembly;
    cg::FunctionDesc desc;
    desc.name = "only";
    assembly.intern(desc);
    assembly.addCallEdge(0, 5);
    EXPECT_THROW(assembly.fillRows(), support::Error);
}

}  // namespace
