// MetaCG-style whole-program call-graph construction.
//
// Mirrors the two-step workflow from the paper (Fig. 2, steps 3-4): a local
// step per translation unit, then a whole-program merge. build() streams:
// each TU's local step (intern its sightings, add a declaration for every
// direct callee the program has not seen yet, record its direct edges and
// defer its virtual and pointer sites) is folded into one
// CallGraph::Assembly before the next TU starts, so no per-TU graph is ever
// built. The merge rule is the one addFunction applies: a name's node takes
// its first definition's metadata (its first declaration's without one),
// `inlineSpecified` is OR-ed over definitions and `addressTaken` over every
// sighting; ids follow first appearance across the TUs in order. Once every
// TU is in, the whole-program step runs: override pairs, then virtual call
// sites over-approximated with edges to the static target and every
// transitive overrider so all possible call paths are represented, then
// function-pointer sites, resolved statically where the signature group has
// exactly one address-taken candidate and reported as unresolved otherwise
// (the profile-based validation utility can patch those).
#pragma once

#include <string>
#include <vector>

#include "cg/call_graph.hpp"
#include "cg/source_model.hpp"

namespace capi::cg {

/// The local step of one TU on its own, as a standalone graph plus the call
/// sites that need whole-program knowledge (for inspecting one TU; build()
/// folds the same step straight into the whole program).
struct LocalCallGraph {
    std::string unitName;
    CallGraph graph;
    struct PendingCall {
        std::string caller;
        CallSite site;
    };
    std::vector<PendingCall> pendingVirtual;
    std::vector<PendingCall> pendingPointer;
};

/// Statistics of a whole-program merge.
struct MergeStats {
    std::size_t translationUnits = 0;
    std::size_t totalNodes = 0;
    std::size_t directEdges = 0;
    std::size_t virtualEdges = 0;        ///< Edges added for virtual dispatch.
    std::size_t pointerEdgesResolved = 0;///< Function-pointer sites resolved statically.
    std::size_t pointerSitesUnresolved = 0;
};

/// An indirect call site the static analysis could not resolve.
struct UnresolvedPointerCall {
    std::string caller;
    std::string signature;
};

class MetaCgBuilder {
public:
    /// Step 3 of the workflow for one TU, as its own graph.
    static LocalCallGraph buildLocal(const TranslationUnit& unit);

    /// Steps 3 and 4 over a complete source model, streamed TU by TU into
    /// one bulk assembly. The rvalue overload moves descriptors and call
    /// site strings out of the model and frees each TU once it is folded in.
    CallGraph build(const SourceModel& model);
    CallGraph build(SourceModel&& model);

    const MergeStats& stats() const { return stats_; }
    const std::vector<UnresolvedPointerCall>& unresolvedPointerCalls() const {
        return unresolved_;
    }

private:
    MergeStats stats_;
    std::vector<UnresolvedPointerCall> unresolved_;
};

}  // namespace capi::cg
