#include "adapt/controller.hpp"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

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
    std::uint32_t patch;
    std::uint32_t revert;
};

const ControllerSpanNames& controllerSpanNames() {
    static const ControllerSpanNames names = [] {
        obs::TraceRecorder& r = obs::TraceRecorder::global();
        return ControllerSpanNames{r.internName("adapt.epoch"),
                                   r.internName("adapt.patch"),
                                   r.internName("adapt.revert")};
    }();
    return names;
}

}  // namespace

Controller::Controller(const cg::CallGraph& graph, dyncapi::DynCapi& dyn,
                       Config config)
    : dyn_(&dyn),
      decider_(graph, std::move(config)),
      session_(std::make_unique<dyncapi::RefinementSession>(
          graph, decider_.config().threads)) {
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
    const Config& config = decider_.config();
    support::Backoff backoff(config.retryBackoff, config.retrySeed);
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            return apply();
        } catch (const xray::PatchError&) {
            ++healthStats_.patchFailures;
            if (attempt == config.patchRetries) {
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
    decider_.setSurvey(std::move(surveyIc));
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

    EpochDecision decision = decider_.decide(
        decider_.observationsOf(profile, measurement), runtimeNs,
        currentPolicy_);
    select::InstrumentationPolicy& target = decision.policy;
    EpochReport report = std::move(decision.report);
    report.epoch = lastReport_.epoch + 1;
    if (report.killSwitchTripped) {
        ++healthStats_.killSwitchTrips;
    }
    if (report.killSwitchRearmed) {
        // Re-arm into Degraded, not Healthy: the next planned epoch must
        // prove itself clean before the controller reports full health.
        ++healthStats_.killSwitchRearms;
        health_ = EpochHealth::Degraded;
    }
    select::PolicyDelta delta = select::policyDiff(currentPolicy_, target);
    report.addedFunctions = delta.added.size();
    report.removedFunctions = delta.removed.size();
    report.promotedFunctions = delta.promoted.size();
    report.demotedFunctions = delta.demoted.size();

    obs::ScopedSpan patchSpan(spans.patch, obs::SpanCategory::Patch);
    try {
        report.patch =
            applyWithRetry([&] { return dyn_->applyPolicyDelta(target); },
                           report.retriesThisEpoch);
        currentPolicy_ = std::move(target);
        if (report.retriesThisEpoch > 0) {
            health_ = EpochHealth::Degraded;
        } else if (!report.killSwitchRearmed) {
            health_ = EpochHealth::Healthy;  // A clean epoch heals.
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
        health_ = EpochHealth::Degraded;
        try {
            report.patch = dyn_->applyPolicyDelta(currentPolicy_);
        } catch (const xray::PatchError&) {
            // Even the no-op revert failed: force the decider into SafeMode
            // and make a best-effort attempt to shed down to its policy.
            ++healthStats_.patchFailures;
            decider_.forceSafeMode();
            try {
                select::InstrumentationPolicy safe = decider_.safeModePolicy();
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
    report.health = health();

    lastReport_ = report;
    {
        // Publish the epoch's results for the metrics collector.
        std::lock_guard<std::mutex> lock(obsMutex_);
        obsHealth_ = healthStats_;
        obsReport_ = report;
    }
    return report;
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
            report.health = health();
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
