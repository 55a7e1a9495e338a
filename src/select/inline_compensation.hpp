// Inlining compensation (paper Sec. V-E).
//
// XRay sleds are inserted after the inliner has run, so functions inlined at
// every call site have no sled and cannot be patched. The call graph is
// built from source-level information and does not know the compiler's
// inlining decisions, so CaPI post-processes the selection:
//
//  1. Approximate the inlined set: a selected function whose symbol cannot be
//     found in the binary or any dependent DSO is assumed inlined everywhere.
//  2. For each such function, walk the caller relation upward and collect the
//     first non-inlined callers on every path; add them to the selection and
//     drop the inlined function.
//
// This guarantees the inlined function's execution is still measured, albeit
// attributed to its caller.
#pragma once

#include <cstdint>
#include <vector>

#include "cg/call_graph.hpp"
#include "select/function_set.hpp"
#include "select/symbol_oracle.hpp"

namespace capi::select {

struct InlineCompensationStats {
    std::size_t inlinedRemoved = 0;  ///< Selected functions without a symbol.
    std::size_t callersAdded = 0;    ///< Newly selected compensation callers
                                     ///< (not in the post-removal selection).
    std::vector<cg::FunctionId> removed;
    std::vector<cg::FunctionId> added;
    bool reused = false;  ///< Replayed from an InlineCompensationCache hit.
};

/// Cross-run memo for compensateInlining, validated through the graph's
/// mutation journal. The compensation result depends only on the input
/// selection, the caller relation (call edges, overrides, the node set) and
/// the oracle's per-name verdicts — names are pinned (DescTouch never
/// renames), so metric and desc touches between runs cannot change the
/// outcome. A refinement epoch that only folds visit metrics therefore
/// replays the previous result instead of re-walking the caller relation.
/// The journal is consulted via CallGraph::deltaSince: trimmed history or
/// any structural record (node / call-edge / override add or remove)
/// invalidates, so the cache is purely an optimization channel.
///
/// A cache holds one entry: a recompute overwrites it. A caller that
/// alternates between several selections keeps one cache per stream of
/// inputs — RefinementSession keeps one per spec name — since one shared
/// cache would miss on every switch and re-walk the caller relation.
class InlineCompensationCache {
public:
    std::uint64_t reuses() const { return reuses_; }
    std::uint64_t recomputes() const { return recomputes_; }
    void clear() { valid_ = false; }

private:
    friend InlineCompensationStats compensateInlining(
        const cg::CallGraph& graph, FunctionSet& selection,
        const SymbolOracle& oracle, InlineCompensationCache* cache);

    bool valid_ = false;
    std::uint64_t generation_ = 0;     ///< Graph stamp at the last recompute.
    const SymbolOracle* oracle_ = nullptr;  ///< Identity; verdicts assumed stable.
    FunctionSet input_;                ///< Pre-compensation selection.
    FunctionSet output_;               ///< Post-compensation selection.
    InlineCompensationStats stats_;
    std::uint64_t reuses_ = 0;
    std::uint64_t recomputes_ = 0;
};

/// Applies inlining compensation to `selection` in place. With a cache, a
/// repeat call whose input selection matches and whose journal delta since
/// the cached stamp contains no structural change replays the cached result.
InlineCompensationStats compensateInlining(
    const cg::CallGraph& graph, FunctionSet& selection,
    const SymbolOracle& oracle, InlineCompensationCache* cache = nullptr);

}  // namespace capi::select
