// The adaptive controller: a continuous measure -> model -> plan ->
// delta-patch loop that converges the instrumented set onto an overhead
// budget at runtime, without recompilation.
//
//          +-----------(next epoch)------------+
//          v                                   |
//   [measure epoch] -> [OverheadModel] -> [BudgetPlanner] -> [applyPolicyDelta]
//    profile, runtime    EWMA per-region        greedy knapsack    flip only
//                        visits/excl. time      under the budget   changed sleds
//
// The controller replaces the one-shot refineIc threshold rule with a closed
// feedback loop: every epoch re-plans over the full survey candidate set, so
// regions excluded earlier are re-admitted when their smoothed cost drops —
// the instrumentation breathes with the workload. Every apply flips only the
// difference to the live sled state, so the epochs after the first touch a
// handful of code pages.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapt/budget_planner.hpp"
#include "adapt/overhead_model.hpp"
#include "binsim/execution_engine.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/refinement.hpp"
#include "mpisim/mpi_world.hpp"
#include "select/ic.hpp"

namespace capi::adapt {

/// DEPRECATED thin shim: prefer adapt::Config, which merges these knobs
/// with the model's and planner's (they had grown overlapping copies of
/// probe cost and budget fraction) and adds the sampled-tier controls.
/// Controllers built from this struct run with the sampled tier disabled —
/// the binary Full|Off loop, unchanged.
struct ControllerOptions {
    /// Probe-time budget as a fraction of application runtime.
    double budgetFraction = 0.05;
    /// Epoch cap for run() convenience loops (the controller itself keeps
    /// accepting epochs beyond it).
    std::size_t maxEpochs = 10;
    ModelOptions model;
    /// Regions never excluded (forwarded to the planner).
    std::vector<std::string> keep;
    /// Selection/planning parallelism, as in PipelineOptions.
    std::size_t threads = 1;
    /// When set (to the SAME graph the controller was constructed over),
    /// every epoch folds the measured per-region visit counts into
    /// FunctionMetrics::profiledVisits through CallGraph::touchMetrics —
    /// metric-only journal records. Specs re-run through the session (e.g.
    /// `profiledVisits(">=", n, ...)` refinements) then see fresh runtime
    /// metrics while structural stages stay cache-warm and the CsrView is
    /// patched, not rebuilt.
    cg::CallGraph* foldVisitMetricsInto = nullptr;

    /// The consolidated equivalent (sampled tier disabled).
    Config toConfig() const {
        Config config;
        config.perEventCostNs = model.perEventCostNs;
        config.ewmaAlpha = model.ewmaAlpha;
        config.budgetFraction = budgetFraction;
        config.keep = keep;
        config.enableSampledTier = false;
        config.maxEpochs = maxEpochs;
        config.threads = threads;
        config.foldVisitMetricsInto = foldVisitMetricsInto;
        return config;
    }
};

/// The controller's self-healing state machine.
///
///   Healthy --patch failed / kill-switch armed--> Degraded/SafeMode
///   Degraded: the last epoch needed retries or reverted to the last
///             known-good policy; a clean epoch heals back to Healthy.
///   SafeMode: the overhead kill-switch tripped (or reversion itself
///             failed): only the keep-list stays instrumented until
///             killSwitchRearmEpochs consecutive in-budget epochs re-arm
///             the planner.
enum class EpochHealth : std::uint8_t { Healthy = 0, Degraded = 1, SafeMode = 2 };

const char* healthName(EpochHealth health);

/// Cumulative self-healing counters over the controller's lifetime.
struct HealthStats {
    std::uint64_t patchFailures = 0;   ///< PatchErrors caught (retries included).
    std::uint64_t patchRetries = 0;    ///< Re-apply attempts after a failure.
    std::uint64_t reversions = 0;      ///< Epochs that fell back to last-good.
    std::uint64_t killSwitchTrips = 0;
    std::uint64_t killSwitchRearms = 0;
};

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

class Controller {
public:
    /// `graph` and `dyn` must outlive the controller. Owns a
    /// dyncapi::RefinementSession so spec-driven survey selection shares
    /// stage results across epochs and borrows the process-wide pool.
    Controller(const cg::CallGraph& graph, dyncapi::DynCapi& dyn,
               Config config);
    /// DEPRECATED shim constructor: converts to Config with the sampled
    /// tier disabled (identical to the pre-tier controller).
    Controller(const cg::CallGraph& graph, dyncapi::DynCapi& dyn,
               ControllerOptions options = {});
    ~Controller();

    Controller(const Controller&) = delete;
    Controller& operator=(const Controller&) = delete;

    /// Runs `specText` through the session and installs the result as the
    /// survey IC (see start()).
    select::SelectionReport startFromSpec(const std::string& specText,
                                          const std::string& specName = "survey",
                                          select::SelectionOptions base = {});

    /// Installs a ready-made survey IC at Full through applyPolicy, retried
    /// like an epoch's patch. The survey, policy and report are committed
    /// only once the apply lands; when the retries run out the last
    /// xray::PatchError propagates and controller and sleds are unchanged
    /// (healthStats() still counts the failed attempts).
    dyncapi::InitStats start(select::InstrumentationConfig surveyIc);

    /// One epoch: folds the measured profile into the model, re-plans over
    /// the survey candidates under the budget, and delta-patches the result.
    /// `runtimeNs` is the epoch's runtime in the same time base as the
    /// model's perEventCostNs (wall or virtual — consistency is what
    /// matters).
    EpochReport epoch(const scorep::ProfileTree& profile,
                      const scorep::Measurement& measurement, double runtimeNs);

    /// MPI variant: a data-carrying allreduce merges every rank's profile
    /// tree, one rank runs epoch() over the merged tree (with the runtimes
    /// summed across ranks, matching the summed visit counts), and all
    /// ranks return the identical report — so the whole world converges on
    /// one IC, as the paper's MPI use case requires. Collective: every rank
    /// must call it. Precondition: all ranks share ONE Measurement (the
    /// in-process simulation's natural shape), so region handles mean the
    /// same thing in every deposited tree.
    EpochReport epochAllRanks(mpi::MpiWorld& world, int rank, double virtualNow,
                              const scorep::ProfileTree& localProfile,
                              const scorep::Measurement& measurement,
                              double runtimeNs);

    /// Adopts a policy converged OFF this controller — by another rank's
    /// reduction (epochAllRanks calls this after the collective) or by the
    /// fleet aggregator (fleet::FleetClient drives a controller from
    /// streamed policy deltas through here). When the live fingerprint
    /// already matches `worldReport`'s, only the report is adopted;
    /// otherwise `converged` is applied with the usual retry machinery and
    /// a failure degrades health (kept last-good, reconciled next epoch).
    /// Returns the report as this controller experienced it (patch stats
    /// and health filled in).
    EpochReport adoptPolicy(const select::InstrumentationPolicy& converged,
                            const EpochReport& worldReport);

    /// The last epoch's measured overhead met the budget.
    bool converged() const { return lastReport_.epoch > 0 && lastReport_.withinBudget; }
    /// Converged, or the maxEpochs cap is exhausted.
    bool done() const {
        return converged() || lastReport_.epoch >= config_.maxEpochs;
    }

    std::size_t epochsRun() const { return lastReport_.epoch; }
    const EpochReport& lastReport() const { return lastReport_; }
    EpochHealth health() const { return health_; }
    const HealthStats& healthStats() const { return healthStats_; }
    /// The tiered policy currently applied.
    const select::InstrumentationPolicy& currentPolicy() const {
        return currentPolicy_;
    }
    const select::InstrumentationConfig& surveyIc() const { return surveyIc_; }
    const OverheadModel& model() const { return model_; }
    const Config& config() const { return config_; }
    dyncapi::RefinementSession& session() { return *session_; }

private:
    /// The keep-list-only fallback policy SafeMode runs under (empty keep
    /// list = fully uninstrumented): the minimal state whose overhead is by
    /// construction as low as this controller can go.
    select::InstrumentationPolicy safeModePolicy() const;

    /// Returns `apply()`, re-called up to config_.patchRetries times,
    /// backoff-spaced, while it throws PatchError; failures and retries are
    /// counted into healthStats_ and `retries`. Rethrows the last PatchError
    /// once the attempts are exhausted.
    template <typename Apply>
    auto applyWithRetry(Apply apply, std::size_t& retries);

    /// Advances the kill-switch streaks for one epoch's measured ratio and
    /// performs the SafeMode trip / re-arm transitions.
    void updateKillSwitch(EpochReport& report);

    dyncapi::DynCapi* dyn_;
    Config config_;
    std::unique_ptr<dyncapi::RefinementSession> session_;
    OverheadModel model_;
    BudgetPlanner planner_;
    select::InstrumentationConfig surveyIc_;
    select::InstrumentationPolicy currentPolicy_;
    EpochReport lastReport_;

    EpochHealth health_ = EpochHealth::Healthy;
    HealthStats healthStats_;
    std::size_t overBudgetStreak_ = 0;  ///< Consecutive epochs past the trip ratio.
    std::size_t inBudgetStreak_ = 0;    ///< Consecutive epochs within budget.

    /// Global-recorder recordedEvents() baseline for the self-cost delta.
    /// Captured at construction (the counter is process-monotonic: a zero
    /// start would bill this controller for every event any earlier run
    /// recorded).
    std::uint64_t obsEventsAtLastEpoch_ = 0;
    /// obs::MetricsRegistry collector handle (label ctl="<instance seq>").
    std::uint64_t metricsCollectorId_ = 0;
    /// Guards the snapshot copies the metrics collector reads; the live
    /// HealthStats/EpochReport stay single-threaded controller state.
    mutable std::mutex obsMutex_;
    HealthStats obsHealth_;
    EpochReport obsReport_;
};

/// The "instrument everything with a body" survey IC — the broadest useful
/// starting point for the controller (tools, examples and tests share it).
select::InstrumentationConfig surveyOfDefinedFunctions(const cg::CallGraph& graph);

/// Epoch runtime for virtual-clock embedders: the engine's virtual time
/// excludes probe cost, so add the modelled cost back to get the total a
/// wall clock would have seen (wall-clock embedders pass elapsed time).
/// This overload charges every probe event at the full rate — correct for
/// binary (Full/Off) instrumentation, pessimistic under sampling gates.
double virtualEpochRuntimeNs(const binsim::RunStats& stats,
                             const scorep::Measurement& measurement,
                             double perEventCostNs);

/// Gate-aware variant for tiered policies: events whose visit the sampling
/// gate suppressed cost a counter decrement, not a full probe, so they are
/// charged at gateCostNs. Without this split the virtual clock would hide
/// exactly the savings the Sampled tier exists to buy.
double virtualEpochRuntimeNs(const binsim::RunStats& stats,
                             const scorep::Measurement& measurement,
                             double perEventCostNs, double gateCostNs);

}  // namespace capi::adapt
