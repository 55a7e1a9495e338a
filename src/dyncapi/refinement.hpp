// Profile-driven IC refinement: the "Adjust" step of the paper's Fig. 1.
//
// After surveying a measurement, the user typically excludes individual
// functions that produced too much overhead — small, frequently called
// regions that flood the measurement without contributing insight. This
// module automates one adjustment round: given the IC that produced a
// profile, it drops regions whose visit count is large while their exclusive
// time per visit stays below the measurement cost, exactly the reasoning a
// performance engineer applies by hand (and PIRA automates iteratively).
//
// Because the runtime is adaptable, each refinement round is applyIc() —
// not a recompilation.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cg/call_graph.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "select/ic.hpp"
#include "select/selection_driver.hpp"
#include "select/selector_cache.hpp"

namespace capi::dyncapi {

struct RefinementOptions {
    /// A region becomes an exclusion candidate above this visit count.
    std::uint64_t visitThreshold = 10000;
    /// ...but survives if it averages at least this much exclusive work per
    /// visit (ns) — it is genuinely hot, not just frequently entered.
    double minExclusiveNsPerVisit = 1000.0;
    /// Functions never removed (the user's critical set).
    std::vector<std::string> keep;
};

struct RefinementResult {
    select::InstrumentationConfig ic;        ///< The refined configuration.
    std::vector<std::string> excluded;       ///< What was dropped and why.
    std::uint64_t excludedVisits = 0;        ///< Events eliminated next run.
    std::size_t unmeasured = 0;              ///< IC entries without profile data
                                             ///< (kept; likely cold paths).
};

/// One refinement round over a measured profile.
RefinementResult refineIc(const select::InstrumentationConfig& ic,
                          const scorep::ProfileTree& profile,
                          const scorep::Measurement& measurement,
                          const RefinementOptions& options = {});

/// Drives repeated select -> measure -> refine rounds against one call graph.
///
/// The session owns a SelectorCache (parallel rounds borrow the process-wide
/// support::Executor pool rather than owning threads), so every selection run
/// through it memoizes pipeline stage results keyed by
/// the graph's generation stamp. A later round that re-evaluates the same or
/// an overlapping spec — the common case: only thresholds near the leaves of
/// the selector tree change between rounds — answers unchanged stages from
/// the cache instead of recomputing reachability closures. Runtime graph
/// updates (a dlopen'd DSO adding or removing nodes, metric refreshes) bump
/// the generation stamp and reconcile through the mutation journal: entries
/// whose recorded read footprint the delta cannot have touched survive and
/// keep answering, the rest re-evaluate. No manual invalidation hook is
/// needed.
///
/// Inlining compensation is memoized per spec name: a session that cycles
/// through several specs keeps one InlineCompensationCache for each, so a
/// warm round of any of them replays its caller walk instead of the specs
/// evicting each other from a single entry. Each memo still validates its
/// input selection and the journal, so the key only decides which memo is
/// probed; the memos grow with the number of distinct spec names only.
class RefinementSession {
public:
    /// `graph` must outlive the session. `threads` as in PipelineOptions:
    /// 1 = serial; any other value runs on the process-wide Executor pool
    /// at full hardware width (results are width-invariant). Embedders that
    /// must cap worker threads — e.g. refinement running beside the measured
    /// application — pass their own pool via SelectionOptions::pool in the
    /// `base` argument of select(), which always wins.
    explicit RefinementSession(const cg::CallGraph& graph,
                               std::size_t threads = 1);
    ~RefinementSession();

    RefinementSession(const RefinementSession&) = delete;
    RefinementSession& operator=(const RefinementSession&) = delete;

    /// Runs the full selection phase with the session's cache and pool.
    /// `base` supplies resolver/oracle/flags; its specText/specName/cache/
    /// pool/threads fields are overridden by the session.
    select::SelectionReport select(const std::string& specText,
                                   const std::string& specName = "spec",
                                   select::SelectionOptions base = {}) const;

    /// One refinement round (see refineIc).
    RefinementResult refine(const select::InstrumentationConfig& ic,
                            const scorep::ProfileTree& profile,
                            const scorep::Measurement& measurement,
                            const RefinementOptions& options = {}) const {
        return refineIc(ic, profile, measurement, options);
    }

    select::SelectorCache& cache() const { return cache_; }
    /// The compensation memo of `specName`; nullptr before its first
    /// select().
    const select::InlineCompensationCache* inlineCache(
        const std::string& specName) const;
    const cg::CallGraph& graph() const { return *graph_; }

private:
    const cg::CallGraph* graph_;
    std::size_t threads_;
    mutable select::SelectorCache cache_;
    /// Journal-validated memos for the compensation caller walk, one per
    /// spec name: rounds whose graph delta is metric-only (the steady state
    /// between measurement epochs) replay it instead of re-walking the
    /// caller relation. Map nodes are stable, so select() hands out
    /// pointers into it.
    mutable std::map<std::string, select::InlineCompensationCache> inlineCaches_;
};

}  // namespace capi::dyncapi
