#include "adapt/controller.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/backoff.hpp"
#include "support/timer.hpp"
#include "xraysim/xray_runtime.hpp"

namespace capi::adapt {

namespace {

/// Interned span names for the controller phases, resolved once.
struct ControllerSpanNames {
    std::uint32_t epoch;
    std::uint32_t model;
    std::uint32_t plan;
    std::uint32_t patch;
    std::uint32_t revert;
    std::uint32_t killSwitchTrip;
    std::uint32_t killSwitchRearm;
};

const ControllerSpanNames& controllerSpanNames() {
    static const ControllerSpanNames names = [] {
        obs::TraceRecorder& r = obs::TraceRecorder::global();
        return ControllerSpanNames{r.internName("adapt.epoch"),
                                   r.internName("adapt.model"),
                                   r.internName("adapt.plan"),
                                   r.internName("adapt.patch"),
                                   r.internName("adapt.revert"),
                                   r.internName("adapt.kill_switch_trip"),
                                   r.internName("adapt.kill_switch_rearm")};
    }();
    return names;
}

}  // namespace

const char* healthName(EpochHealth health) {
    switch (health) {
        case EpochHealth::Healthy: return "healthy";
        case EpochHealth::Degraded: return "degraded";
        case EpochHealth::SafeMode: return "safe-mode";
    }
    return "<unknown>";
}

Controller::Controller(const cg::CallGraph& graph, dyncapi::DynCapi& dyn,
                       Config config)
    : dyn_(&dyn),
      config_(std::move(config)),
      session_(std::make_unique<dyncapi::RefinementSession>(graph,
                                                            config_.threads)),
      model_(config_),
      planner_(graph),
      obsEventsAtLastEpoch_(obs::TraceRecorder::global().recordedEvents()) {
    // Lifetime HealthStats and the latest epoch's headline numbers, exported
    // from end-of-epoch snapshot copies so the collector never races the
    // controller's working state.
    static std::atomic<std::uint64_t> nextSeq{0};
    const std::uint64_t seq = nextSeq.fetch_add(1, std::memory_order_relaxed);
    metricsCollectorId_ = obs::MetricsRegistry::global().addCollector(
        [this, seq](std::vector<obs::Sample>& out) {
            HealthStats health;
            EpochReport report;
            {
                std::lock_guard<std::mutex> lock(obsMutex_);
                health = obsHealth_;
                report = obsReport_;
            }
            const std::string base = "{ctl=\"" + std::to_string(seq) + "\"}";
            auto counter = [&out, &base](const char* name,
                                         std::uint64_t value) {
                obs::Sample s;
                s.name = std::string(name) + base;
                s.kind = obs::MetricKind::Counter;
                s.value = static_cast<double>(value);
                out.push_back(std::move(s));
            };
            auto gauge = [&out, &base](const char* name, double value) {
                obs::Sample s;
                s.name = std::string(name) + base;
                s.kind = obs::MetricKind::Gauge;
                s.value = value;
                out.push_back(std::move(s));
            };
            counter("capi_adapt_patch_failures_total", health.patchFailures);
            counter("capi_adapt_patch_retries_total", health.patchRetries);
            counter("capi_adapt_reversions_total", health.reversions);
            counter("capi_adapt_kill_switch_trips_total",
                    health.killSwitchTrips);
            counter("capi_adapt_kill_switch_rearms_total",
                    health.killSwitchRearms);
            gauge("capi_adapt_epoch", static_cast<double>(report.epoch));
            gauge("capi_adapt_overhead_ratio", report.measuredOverheadRatio);
            gauge("capi_adapt_ic_size", static_cast<double>(report.icSize));
            gauge("capi_adapt_health",
                  static_cast<double>(static_cast<int>(report.health)));
            gauge("capi_adapt_self_obs_cost_ns", report.selfObsCostNs);
        });
}

Controller::Controller(const cg::CallGraph& graph, dyncapi::DynCapi& dyn,
                       ControllerOptions options)
    : Controller(graph, dyn, options.toConfig()) {}

Controller::~Controller() {
    obs::MetricsRegistry::global().removeCollector(metricsCollectorId_);
}

select::SelectionReport Controller::startFromSpec(const std::string& specText,
                                                  const std::string& specName,
                                                  select::SelectionOptions base) {
    select::SelectionReport report = session_->select(specText, specName, base);
    start(report.ic);
    return report;
}

template <typename Apply>
auto Controller::applyWithRetry(Apply apply, std::size_t& retries) {
    support::Backoff backoff(config_.retryBackoff, config_.retrySeed);
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            return apply();
        } catch (const xray::PatchError&) {
            ++healthStats_.patchFailures;
            if (attempt == config_.patchRetries) {
                throw;
            }
            ++healthStats_.patchRetries;
            ++retries;
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(backoff.nextDelayNs()));
        }
    }
}

dyncapi::InitStats Controller::start(select::InstrumentationConfig surveyIc) {
    // The survey epoch always measures at Full: the model needs unsampled
    // ground truth before the planner can demote anything.
    select::InstrumentationPolicy survey =
        select::InstrumentationPolicy::fullOf(surveyIc);
    std::size_t retries = 0;
    dyncapi::InitStats stats =
        applyWithRetry([&] { return dyn_->applyPolicy(survey); }, retries);
    surveyIc_ = std::move(surveyIc);
    currentPolicy_ = std::move(survey);
    lastReport_ = EpochReport{};
    return stats;
}

EpochReport Controller::epoch(const scorep::ProfileTree& profile,
                              const scorep::Measurement& measurement,
                              double runtimeNs) {
    const ControllerSpanNames& spans = controllerSpanNames();
    obs::ScopedSpan epochSpan(spans.epoch, obs::SpanCategory::Epoch);
    epochSpan.setArg(lastReport_.epoch + 1);

    // Everything the recorder accepted since the last epoch — the measured
    // run's collective/fault/patch events — is this epoch's observation
    // bill, charged into the model below at the calibrated per-event cost.
    const std::uint64_t obsEventsNow =
        obs::TraceRecorder::global().recordedEvents();
    const std::uint64_t obsEventsDelta = obsEventsNow - obsEventsAtLastEpoch_;
    obsEventsAtLastEpoch_ = obsEventsNow;

    obs::ScopedSpan modelSpan(spans.model, obs::SpanCategory::Model);
    // One profile walk per epoch, shared by the model and the metric fold.
    const auto regionTotals = profile.regionTotals();
    model_.observeEpoch(regionTotals, measurement, runtimeNs, &currentPolicy_);

    if (config_.foldVisitMetricsInto != nullptr) {
        // Route the epoch's observed visit counts into the graph as
        // metric-only journal touches: only the regions whose count actually
        // changed are dirtied, so a following re-selection patches its CSR
        // snapshot and keeps every cached stage that reads no metrics of the
        // touched nodes. Summed per name first — several region handles can
        // share one function name across measurement recreations.
        std::unordered_map<std::string, std::uint64_t> visitsByName;
        for (const auto& [region, totals] : regionTotals) {
            visitsByName[measurement.region(region).name] += totals.visits;
        }
        cg::CallGraph& graph = *config_.foldVisitMetricsInto;
        for (const auto& [name, totalVisits] : visitsByName) {
            cg::FunctionId id = graph.lookup(name);
            if (id == cg::kInvalidFunction || !graph.alive(id)) {
                continue;
            }
            const auto visits = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(totalVisits, UINT32_MAX));
            if (graph.desc(id).metrics.profiledVisits != visits) {
                graph.touchMetrics(id, [visits](cg::FunctionMetrics& metrics) {
                    metrics.profiledVisits = visits;
                });
            }
        }
    }

    EpochReport report;
    report.epoch = lastReport_.epoch + 1;
    report.runtimeNs = runtimeNs;
    report.obsEventsObserved = obsEventsDelta;
    report.selfObsCostNs =
        static_cast<double>(obsEventsDelta) * config_.obsCostNs;
    // Charged before the headline numbers are read, so the convergence check
    // and the kill-switch both see probe cost PLUS observation cost.
    model_.chargeSelfCost(report.selfObsCostNs);
    modelSpan.end();
    report.measuredProbeCostNs = model_.lastEpochProbeCostNs();
    report.measuredOverheadRatio = model_.lastEpochOverheadRatio();
    report.withinBudget = report.measuredOverheadRatio <= config_.budgetFraction;

    updateKillSwitch(report);

    // Pick the target policy: the planner's, or — with the kill-switch
    // tripped — the keep-list-only fallback, whose cost does not depend on
    // the planner's (apparently miscalibrated) model at all.
    obs::ScopedSpan planSpan(spans.plan, obs::SpanCategory::Plan);
    select::InstrumentationPolicy target;
    if (health_ == EpochHealth::SafeMode) {
        target = safeModePolicy();
        report.budgetNs = config_.budgetFraction * runtimeNs;
        report.plannedProbeCostNs = 0.0;
        report.icSize = target.size();
        report.fullRegions = target.countOf(select::Tier::Full);
        report.sampledRegions = 0;
    } else {
        // Re-plan over the survey candidates, not the shrunken current IC:
        // the model's frozen estimates let the planner re-admit regions whose
        // smoothed cost no longer blocks the budget (and re-promote regions
        // it demoted to Sampled).
        PlanResult plan = planner_.plan(surveyIc_, model_, config_);
        report.budgetNs = plan.budgetNs;
        report.plannedProbeCostNs = plan.plannedProbeCostNs;
        report.icSize = plan.policy.size();
        report.fullRegions = plan.fullRegions;
        report.sampledRegions = plan.sampledRegions;
        target = std::move(plan.policy);
    }

    select::PolicyDelta delta = select::policyDiff(currentPolicy_, target);
    report.addedFunctions = delta.added.size();
    report.removedFunctions = delta.removed.size();
    report.promotedFunctions = delta.promoted.size();
    report.demotedFunctions = delta.demoted.size();
    planSpan.setArg(report.icSize);
    planSpan.end();

    obs::ScopedSpan patchSpan(spans.patch, obs::SpanCategory::Patch);
    try {
        report.patch =
            applyWithRetry([&] { return dyn_->applyPolicyDelta(target); },
                           report.retriesThisEpoch);
        currentPolicy_ = std::move(target);
        if (report.retriesThisEpoch > 0) {
            if (health_ == EpochHealth::Healthy) {
                health_ = EpochHealth::Degraded;
            }
        } else if (health_ == EpochHealth::Degraded && !report.killSwitchRearmed) {
            // A clean epoch heals — but the rearm epoch itself stays
            // Degraded: the planner must prove a full epoch clean first.
            health_ = EpochHealth::Healthy;
        }
    } catch (const xray::PatchError&) {
        // Retries exhausted. The transaction rolled every attempt back, so
        // the live sled/tier state still IS currentPolicy_ — the last
        // known-good. Re-apply it as a consistency pass (normally a no-op
        // delta) and stay on the old IC.
        report.revertedToLastGood = true;
        ++healthStats_.reversions;
        {
            obs::TraceRecorder& recorder = obs::TraceRecorder::global();
            if (recorder.enabled()) {
                recorder.recordInstant(spans.revert, obs::SpanCategory::Epoch,
                                       support::probeNowNs(),
                                       report.retriesThisEpoch);
            }
        }
        if (health_ != EpochHealth::SafeMode) {
            health_ = EpochHealth::Degraded;
        }
        try {
            report.patch = dyn_->applyPolicyDelta(currentPolicy_);
        } catch (const xray::PatchError&) {
            // Even the no-op revert failed: wedge into SafeMode and make a
            // best-effort attempt to shed down to the minimal policy.
            ++healthStats_.patchFailures;
            health_ = EpochHealth::SafeMode;
            try {
                select::InstrumentationPolicy safe = safeModePolicy();
                report.patch = dyn_->applyPolicyDelta(safe);
                currentPolicy_ = std::move(safe);
            } catch (const xray::PatchError&) {
                ++healthStats_.patchFailures;  // Keep last-good; next epoch retries.
            }
        }
    }
    patchSpan.setArg(report.patch.functionsPatched +
                     report.patch.functionsUnpatched);
    patchSpan.end();
    report.policyFingerprint = currentPolicy_.fingerprint();
    report.health = health_;

    lastReport_ = report;
    {
        // Publish the epoch's results for the metrics collector.
        std::lock_guard<std::mutex> lock(obsMutex_);
        obsHealth_ = healthStats_;
        obsReport_ = report;
    }
    return report;
}

select::InstrumentationPolicy Controller::safeModePolicy() const {
    select::InstrumentationConfig keepIc;
    keepIc.specName = "safe-mode";
    keepIc.assignFunctions(config_.keep);
    return select::InstrumentationPolicy::fullOf(keepIc);
}

void Controller::updateKillSwitch(EpochReport& report) {
    const double tripRatio = config_.budgetFraction * config_.killSwitchFactor;
    if (report.measuredOverheadRatio > tripRatio) {
        ++overBudgetStreak_;
        inBudgetStreak_ = 0;
    } else if (report.withinBudget) {
        ++inBudgetStreak_;
        overBudgetStreak_ = 0;
    } else {
        // The grey zone between budget and trip ratio: breaks both streaks,
        // which is the hysteresis that keeps a borderline workload from
        // flapping between tripped and re-armed.
        overBudgetStreak_ = 0;
        inBudgetStreak_ = 0;
    }
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (health_ != EpochHealth::SafeMode &&
        overBudgetStreak_ >= config_.killSwitchEpochs) {
        health_ = EpochHealth::SafeMode;
        ++healthStats_.killSwitchTrips;
        report.killSwitchTripped = true;
        overBudgetStreak_ = 0;
        if (recorder.enabled()) {
            recorder.recordInstant(controllerSpanNames().killSwitchTrip,
                                   obs::SpanCategory::Epoch,
                                   support::probeNowNs(), report.epoch);
        }
    } else if (health_ == EpochHealth::SafeMode &&
               inBudgetStreak_ >= config_.killSwitchRearmEpochs) {
        // Re-arm into Degraded, not Healthy: the next planned epoch must
        // prove itself clean before the controller reports full health.
        health_ = EpochHealth::Degraded;
        ++healthStats_.killSwitchRearms;
        report.killSwitchRearmed = true;
        inBudgetStreak_ = 0;
        if (recorder.enabled()) {
            recorder.recordInstant(controllerSpanNames().killSwitchRearm,
                                   obs::SpanCategory::Epoch,
                                   support::probeNowNs(), report.epoch);
        }
    }
}

EpochReport Controller::epochAllRanks(mpi::MpiWorld& world, int rank,
                                      double virtualNow,
                                      const scorep::ProfileTree& localProfile,
                                      const scorep::Measurement& measurement,
                                      double runtimeNs) {
    struct Slot {
        const scorep::ProfileTree* local;
        double runtimeNs;
        std::uint64_t policyFingerprint;
        EpochReport report;
        /// The policy the reduction converged on, copied into every slot
        /// under the world lock so divergent ranks can re-apply it after
        /// they wake (satisfying the fingerprint-equality postcondition).
        select::InstrumentationPolicy convergedPolicy;
        /// True on the slot of the rank whose controller ran the reduction
        /// (that controller is already up to date; every other one must
        /// check its fingerprint).
        bool reducedByMe = false;
    };
    // Each rank deposits the fingerprint of the tiered policy it believes is
    // live, so the reducing rank can detect pre-epoch divergence across the
    // world (a rank that missed a repatch, say) and surface it in the report.
    Slot slot{&localProfile, runtimeNs, currentPolicy_.fingerprint(), {}, {},
              false};
    // The last-arriving rank reduces every deposited tree, runs the epoch
    // once and broadcasts the report back through the slots — one plan, one
    // delta repatch, one IC for the whole world. Runtimes are SUMMED across
    // ranks to match the merged profile's summed visit counts: the world's
    // probe cost over the world's aggregate compute time is the average
    // per-rank overhead, so the ratio (and the budget derived from it) does
    // not scale with world size. Dropped ranks contribute no slot; the
    // collective completes over the survivors (see MpiWorld's quorum policy).
    world.allreduceData(
        rank, virtualNow, &slot, [&](const std::vector<void*>& all) {
            scorep::ProfileTree merged;
            double worldRuntimeNs = 0.0;
            const std::uint64_t reducerFingerprint =
                currentPolicy_.fingerprint();
            std::size_t divergent = 0;
            for (void* entry : all) {
                auto* other = static_cast<Slot*>(entry);
                merged.mergeFrom(*other->local);
                worldRuntimeNs += other->runtimeNs;
                if (other->policyFingerprint != reducerFingerprint) {
                    ++divergent;
                }
            }
            EpochReport report = epoch(merged, measurement, worldRuntimeNs);
            report.divergentRanks = divergent;
            lastReport_.divergentRanks = divergent;
            for (void* entry : all) {
                auto* other = static_cast<Slot*>(entry);
                other->report = report;
                other->convergedPolicy = currentPolicy_;
                other->reducedByMe = (other == &slot);
            }
        });
    // Visible to every rank in its own returned report; lastReport_ is only
    // written by adoptPolicy on controllers that this rank exclusively owns.
    slot.report.droppedRanks =
        static_cast<std::size_t>(world.worldSize() - world.liveRankCount());
    // Reconciliation: a rank driving its own controller (one per process,
    // the real-MPI shape) wakes here with a stale currentPolicy_ — the
    // reduction patched only the reducing rank's. Adopt the converged
    // policy so every rank's fingerprint equals the report's before this
    // collective returns. When all ranks share one controller the
    // fingerprints already match and nothing is written (no data race: the
    // reducer's writes happened-before the wake-up).
    if (!slot.reducedByMe) {
        slot.report = adoptPolicy(slot.convergedPolicy, slot.report);
    }
    return slot.report;
}

EpochReport Controller::adoptPolicy(
    const select::InstrumentationPolicy& converged,
    const EpochReport& worldReport) {
    EpochReport report = worldReport;
    if (currentPolicy_.fingerprint() != report.policyFingerprint) {
        // Diagnose, not just count: the region-level diff between what this
        // controller was running and what the world converged on.
        report.divergence = select::policyDiff(currentPolicy_, converged);
        std::size_t retries = 0;
        try {
            report.patch = applyWithRetry(
                [&] { return dyn_->applyPolicyDelta(converged); }, retries);
            currentPolicy_ = converged;
        } catch (const xray::PatchError&) {
            // Retries exhausted: this controller stays on its last-good
            // policy — Degraded, to be reconciled again next epoch.
        }
        if (retries > 0 ||
            currentPolicy_.fingerprint() != report.policyFingerprint) {
            health_ = EpochHealth::Degraded;
            report.health = health_;
        }
        lastReport_ = report;
    } else if (lastReport_.epoch != report.epoch) {
        // Same fingerprint but a controller that did not run the reduction
        // itself (already converged): adopt the world report.
        lastReport_ = report;
    } else {
        return report;
    }
    {
        // Publish for the metrics collector, as epoch() does.
        std::lock_guard<std::mutex> lock(obsMutex_);
        obsHealth_ = healthStats_;
        obsReport_ = lastReport_;
    }
    return report;
}

select::InstrumentationConfig surveyOfDefinedFunctions(
    const cg::CallGraph& graph) {
    std::vector<std::string> names;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        if (graph.desc(id).flags.hasBody) {
            names.push_back(graph.name(id));
        }
    }
    select::InstrumentationConfig ic;
    ic.specName = "survey";
    ic.assignFunctions(std::move(names));
    return ic;
}

double virtualEpochRuntimeNs(const binsim::RunStats& stats,
                             const scorep::Measurement& measurement,
                             double perEventCostNs) {
    return virtualEpochRuntimeNs(stats, measurement, perEventCostNs,
                                 perEventCostNs);
}

double virtualEpochRuntimeNs(const binsim::RunStats& stats,
                             const scorep::Measurement& measurement,
                             double perEventCostNs, double gateCostNs) {
    const double suppressed =
        static_cast<double>(measurement.suppressedEvents());
    const double recorded =
        static_cast<double>(measurement.probeEvents()) - suppressed;
    return stats.virtualNs + recorded * perEventCostNs +
           suppressed * gateCostNs;
}

}  // namespace capi::adapt
