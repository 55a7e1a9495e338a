// The per-epoch decision of the adaptive layer, written once.
//
// The in-process Controller and the fleet Aggregator close an epoch the
// same way, and both run this one class to do it:
//
//   observations --> [OverheadModel] --> kill-switch --> [BudgetPlanner] --> target
//   runtime,          EWMA fold,          trip/rearm      or the keep-only     policy
//   active policy     self-cost bill,     streaks         safe-mode policy
//                     visit-metric fold
//
// The decider never patches and never talks to clients: what happens to the
// target policy afterwards — a retried delta patch in the controller, a
// policy broadcast in the aggregator — is the caller's side. Two deciders in
// the same state, fed the same observations, runtime and active policy, make
// the bit-identical decision; that is what lets a fleet aggregation replay
// an epochAllRanks reference run exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "adapt/budget_planner.hpp"
#include "adapt/config.hpp"
#include "adapt/overhead_model.hpp"
#include "dyncapi/dyncapi.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "select/ic.hpp"

namespace capi::adapt {

/// The controller's self-healing state machine.
///
///   Healthy --patch failed / kill-switch armed--> Degraded/SafeMode
///   Degraded: the last epoch needed retries or reverted to the last
///             known-good policy; a clean epoch heals back to Healthy.
///   SafeMode: the decider's overhead kill-switch tripped (or reversion
///             itself failed and forced it): only the keep-list stays
///             instrumented until killSwitchRearmEpochs consecutive
///             in-budget epochs re-arm the planner.
enum class EpochHealth : std::uint8_t { Healthy = 0, Degraded = 1, SafeMode = 2 };

const char* healthName(EpochHealth health);

/// What one epoch measured and what the controller did about it.
struct EpochReport {
    std::size_t epoch = 0;                ///< 1-based.
    double runtimeNs = 0.0;               ///< As reported by the embedder.
    double measuredProbeCostNs = 0.0;     ///< Observed visits x event cost.
    double measuredOverheadRatio = 0.0;   ///< Cost / runtime, this epoch.
    bool withinBudget = false;            ///< ratio <= budgetFraction.
    double budgetNs = 0.0;                ///< Planner budget applied.
    double plannedProbeCostNs = 0.0;      ///< Predicted cost of the new IC.
    std::size_t icSize = 0;               ///< Functions in the new IC.
    std::size_t addedFunctions = 0;       ///< Re-admitted vs previous IC.
    std::size_t removedFunctions = 0;     ///< Excluded vs previous IC.
    dyncapi::DeltaStats patch;            ///< The delta repatch that applied it.
    // --- tiered policy (zero on the binary Full|Off path) ------------------
    std::size_t fullRegions = 0;          ///< Regions at Full in the new policy.
    std::size_t sampledRegions = 0;       ///< Regions demoted to Sampled.
    std::size_t promotedFunctions = 0;    ///< Sampled -> Full this epoch.
    std::size_t demotedFunctions = 0;     ///< Full -> Sampled this epoch.
    std::uint64_t policyFingerprint = 0;  ///< Fingerprint of the new policy.
    /// epochAllRanks only: ranks whose pre-epoch policy fingerprint differed
    /// from the reducing rank's — nonzero means the world had diverged going
    /// into this epoch. Divergent ranks re-apply the converged policy on
    /// their own controller before epochAllRanks returns, so the world
    /// leaves every epoch converged on one policy.
    std::size_t divergentRanks = 0;
    /// Divergence *diagnosis*: when this controller's live policy disagreed
    /// with the converged one (adoptPolicy on a divergent rank / fleet
    /// client), the actual region-level diff live -> converged — which
    /// regions diverged and in which direction, not just that a fingerprint
    /// mismatched. Empty while converged.
    select::PolicyDelta divergence;
    /// epochAllRanks only: ranks dropped from the world as of this epoch.
    std::size_t droppedRanks = 0;
    // --- self-healing ------------------------------------------------------
    EpochHealth health = EpochHealth::Healthy;  ///< State after this epoch.
    std::size_t retriesThisEpoch = 0;  ///< Patch re-applies this epoch.
    bool revertedToLastGood = false;   ///< Retries exhausted; kept old policy.
    bool killSwitchTripped = false;    ///< Entered SafeMode this epoch.
    bool killSwitchRearmed = false;    ///< Left SafeMode this epoch.
    // --- self-observability ------------------------------------------------
    /// Trace events the global recorder accepted since the previous epoch.
    std::uint64_t obsEventsObserved = 0;
    /// Those events charged at Config::obsCostNs and folded into the model —
    /// already included in measuredProbeCostNs/measuredOverheadRatio.
    double selfObsCostNs = 0.0;
};

/// The decider's complete mutable state, exported for checkpointing (the
/// fleet aggregator's snapshot frame). The self-cost baseline is not part of
/// it: a restored decider bills from the recorder's position at restore.
struct DeciderState {
    ModelState model;
    bool safeMode = false;
    std::uint64_t overBudgetStreak = 0;  ///< Consecutive epochs past the trip ratio.
    std::uint64_t inBudgetStreak = 0;    ///< Consecutive epochs within budget.
};

/// One epoch's decision.
struct EpochDecision {
    /// The policy to run next: the plan, or the safe-mode fallback.
    select::InstrumentationPolicy policy;
    /// The report's decision fields — runtimeNs, the measured cost and
    /// ratio, withinBudget, budgetNs, plannedProbeCostNs, icSize, the tier
    /// counts, the trip/rearm flags and the self-observation bill. The
    /// caller fills in the rest (epoch ordinal, patch, health, diffs).
    EpochReport report;
};

class EpochDecider {
public:
    /// `graph` must outlive the decider (the planner's SCC grouping).
    /// `survey` is the candidate set every plan re-plans over.
    EpochDecider(const cg::CallGraph& graph, Config config,
                 select::InstrumentationConfig survey = {});

    EpochDecider(const EpochDecider&) = delete;
    EpochDecider& operator=(const EpochDecider&) = delete;

    /// Decides one epoch from its by-name observations (see
    /// OverheadModel::observeEpoch(byName)), its runtime in the time base of
    /// Config::perEventCostNs, and the policy that was active while it ran:
    /// folds them into the model (and into Config::foldVisitMetricsInto),
    /// bills the trace events recorded since the last decision at
    /// Config::obsCostNs, advances the kill-switch, and re-plans over the
    /// survey — or, while the kill-switch holds, falls back to the keep-list.
    EpochDecision decide(const OverheadModel::Observations& observations,
                         double runtimeNs,
                         const select::InstrumentationPolicy& active);

    /// Turns a measured profile into decide()'s observations (one profile
    /// walk), advancing the model's suppressed-visit baselines.
    OverheadModel::Observations observationsOf(
        const scorep::ProfileTree& profile,
        const scorep::Measurement& measurement) {
        return model_.observationsOf(profile.regionTotals(), measurement);
    }

    /// The keep-list-only fallback policy SafeMode runs under (empty keep
    /// list = fully uninstrumented): the minimal state whose overhead is by
    /// construction as low as instrumentation can go.
    select::InstrumentationPolicy safeModePolicy() const;
    /// Enters SafeMode outside the kill-switch — the controller's last
    /// resort when even re-applying its last-good policy failed. The usual
    /// rearm hysteresis brings the planner back.
    void forceSafeMode() { safeMode_ = true; }
    void setSurvey(select::InstrumentationConfig survey) {
        survey_ = std::move(survey);
    }

    bool safeMode() const { return safeMode_; }
    const OverheadModel& model() const { return model_; }
    const Config& config() const { return config_; }
    const select::InstrumentationConfig& survey() const { return survey_; }

    DeciderState saveState() const;
    /// Replaces the state wholesale; self-cost billing restarts from the
    /// recorder's current position (the events of a dead incarnation died
    /// with it).
    void restoreState(const DeciderState& state);

private:
    /// Advances the kill-switch streaks for one epoch's measured ratio and
    /// performs the SafeMode trip / re-arm transitions.
    void advanceKillSwitch(EpochReport& report);
    /// Routes the epoch's recorded visit counts into the graph as
    /// metric-only journal touches (Config::foldVisitMetricsInto).
    void foldVisitMetrics(const OverheadModel::Observations& observations) const;

    Config config_;
    OverheadModel model_;
    BudgetPlanner planner_;
    select::InstrumentationConfig survey_;
    bool safeMode_ = false;
    std::size_t overBudgetStreak_ = 0;
    std::size_t inBudgetStreak_ = 0;
    /// Global-recorder recordedEvents() baseline for the self-cost delta.
    /// Captured at construction (the counter is process-monotonic: a zero
    /// start would bill this decider for every event any earlier run
    /// recorded).
    std::uint64_t obsEventsAtLastEpoch_ = 0;
};

}  // namespace capi::adapt
