// The adaptive controller: a continuous measure -> decide -> delta-patch
// loop that converges the instrumented set onto an overhead budget at
// runtime, without recompilation.
//
//        +----------------------------(next epoch)---------------------------+
//        v                                                                   |
//   [measure epoch] --> [EpochDecider] ---------------> [patcher] -----------+
//    profile ->          OverheadModel: EWMA fold        applyPolicyDelta with
//    by-name             kill-switch: trip / rearm       retry; on exhaustion
//    observations,       BudgetPlanner: knapsack, or     keep last-good, and a
//    runtime             the safe-mode keep-list         failed revert forces
//                                                        the decider's SafeMode
//
// The decider (adapt/epoch_decider.hpp) is the one the fleet aggregator
// runs too; the controller adds only the patch side — retries, reversions
// and Healthy/Degraded health. It replaces the one-shot refineIc threshold
// rule with a closed feedback loop: every epoch re-plans over the full
// survey candidate set, so regions excluded earlier are re-admitted when
// their smoothed cost drops — the instrumentation breathes with the
// workload. Every apply flips only the difference to the live sled state,
// so the epochs after the first touch a handful of code pages.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapt/epoch_decider.hpp"
#include "binsim/execution_engine.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/refinement.hpp"
#include "mpisim/mpi_world.hpp"
#include "select/ic.hpp"

namespace capi::adapt {

/// Cumulative self-healing counters over the controller's lifetime.
struct HealthStats {
    std::uint64_t patchFailures = 0;   ///< PatchErrors caught (retries included).
    std::uint64_t patchRetries = 0;    ///< Re-apply attempts after a failure.
    std::uint64_t reversions = 0;      ///< Epochs that fell back to last-good.
    std::uint64_t killSwitchTrips = 0;
    std::uint64_t killSwitchRearms = 0;
};

class Controller {
public:
    /// `graph` and `dyn` must outlive the controller. Owns a
    /// dyncapi::RefinementSession so spec-driven survey selection shares
    /// stage results across epochs and borrows the process-wide pool.
    Controller(const cg::CallGraph& graph, dyncapi::DynCapi& dyn,
               Config config = {});
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

    /// One epoch: turns the measured profile into observations, lets the
    /// EpochDecider fold them and pick the target policy, and delta-patches
    /// it with retry.
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
        return converged() || lastReport_.epoch >= config().maxEpochs;
    }

    std::size_t epochsRun() const { return lastReport_.epoch; }
    const EpochReport& lastReport() const { return lastReport_; }
    /// SafeMode while the decider holds it, else the patch side's state.
    EpochHealth health() const {
        return decider_.safeMode() ? EpochHealth::SafeMode : health_;
    }
    const HealthStats& healthStats() const { return healthStats_; }
    /// The tiered policy currently applied.
    const select::InstrumentationPolicy& currentPolicy() const {
        return currentPolicy_;
    }
    const select::InstrumentationConfig& surveyIc() const {
        return decider_.survey();
    }
    const OverheadModel& model() const { return decider_.model(); }
    const Config& config() const { return decider_.config(); }
    dyncapi::RefinementSession& session() { return *session_; }

private:
    /// Returns `apply()`, re-called up to config_.patchRetries times,
    /// backoff-spaced, while it throws PatchError; failures and retries are
    /// counted into healthStats_ and `retries`. Rethrows the last PatchError
    /// once the attempts are exhausted.
    template <typename Apply>
    auto applyWithRetry(Apply apply, std::size_t& retries);

    dyncapi::DynCapi* dyn_;
    /// The decision side: model, planner, survey, kill-switch, self-cost.
    EpochDecider decider_;
    std::unique_ptr<dyncapi::RefinementSession> session_;
    select::InstrumentationPolicy currentPolicy_;
    EpochReport lastReport_;

    /// The patch side's health: Healthy or Degraded (SafeMode is the
    /// decider's, see health()).
    EpochHealth health_ = EpochHealth::Healthy;
    HealthStats healthStats_;
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
