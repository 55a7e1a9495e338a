#include "adapt/epoch_decider.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace capi::adapt {

namespace {

/// Interned span names for the decision phases, resolved once.
struct DeciderSpanNames {
    std::uint32_t model;
    std::uint32_t plan;
    std::uint32_t killSwitchTrip;
    std::uint32_t killSwitchRearm;
};

const DeciderSpanNames& deciderSpanNames() {
    static const DeciderSpanNames names = [] {
        obs::TraceRecorder& r = obs::TraceRecorder::global();
        return DeciderSpanNames{r.internName("adapt.model"),
                                r.internName("adapt.plan"),
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

EpochDecider::EpochDecider(const cg::CallGraph& graph, Config config,
                           select::InstrumentationConfig survey)
    : config_(std::move(config)),
      model_(config_),
      planner_(graph),
      survey_(std::move(survey)),
      obsEventsAtLastEpoch_(obs::TraceRecorder::global().recordedEvents()) {}

EpochDecision EpochDecider::decide(
    const OverheadModel::Observations& observations, double runtimeNs,
    const select::InstrumentationPolicy& active) {
    const DeciderSpanNames& spans = deciderSpanNames();
    EpochDecision decision;
    EpochReport& report = decision.report;
    report.runtimeNs = runtimeNs;

    // Everything the recorder accepted since the last decision — the
    // measured run's collective/fault/patch events — is this epoch's
    // observation bill, charged into the model at the calibrated cost.
    const std::uint64_t obsEventsNow =
        obs::TraceRecorder::global().recordedEvents();
    report.obsEventsObserved = obsEventsNow - obsEventsAtLastEpoch_;
    obsEventsAtLastEpoch_ = obsEventsNow;
    report.selfObsCostNs =
        static_cast<double>(report.obsEventsObserved) * config_.obsCostNs;

    obs::ScopedSpan modelSpan(spans.model, obs::SpanCategory::Model);
    model_.observeEpoch(observations, runtimeNs, &active);
    // Charged before the headline numbers are read, so the convergence check
    // and the kill-switch both see probe cost PLUS observation cost.
    model_.chargeSelfCost(report.selfObsCostNs);
    foldVisitMetrics(observations);
    modelSpan.end();
    report.measuredProbeCostNs = model_.lastEpochProbeCostNs();
    report.measuredOverheadRatio = model_.lastEpochOverheadRatio();
    report.withinBudget = report.measuredOverheadRatio <= config_.budgetFraction;

    advanceKillSwitch(report);

    // Pick the target policy: the planner's, or — with the kill-switch
    // tripped — the keep-list-only fallback, whose cost does not depend on
    // the planner's (apparently miscalibrated) model at all.
    obs::ScopedSpan planSpan(spans.plan, obs::SpanCategory::Plan);
    if (safeMode_) {
        decision.policy = safeModePolicy();
        report.budgetNs = config_.budgetFraction * runtimeNs;
        report.fullRegions = decision.policy.size();
    } else {
        // Re-plan over the survey candidates, not the shrunken active
        // policy: the model's frozen estimates let the planner re-admit
        // regions whose smoothed cost no longer blocks the budget (and
        // re-promote regions it demoted to Sampled).
        PlanResult plan = planner_.plan(survey_, model_, config_);
        report.budgetNs = plan.budgetNs;
        report.plannedProbeCostNs = plan.plannedProbeCostNs;
        report.fullRegions = plan.fullRegions;
        report.sampledRegions = plan.sampledRegions;
        decision.policy = std::move(plan.policy);
    }
    report.icSize = decision.policy.size();
    planSpan.setArg(report.icSize);
    return decision;
}

void EpochDecider::advanceKillSwitch(EpochReport& report) {
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
    std::uint32_t transition = 0;
    if (!safeMode_ && overBudgetStreak_ >= config_.killSwitchEpochs) {
        safeMode_ = true;
        overBudgetStreak_ = 0;
        report.killSwitchTripped = true;
        transition = deciderSpanNames().killSwitchTrip;
    } else if (safeMode_ && inBudgetStreak_ >= config_.killSwitchRearmEpochs) {
        safeMode_ = false;
        inBudgetStreak_ = 0;
        report.killSwitchRearmed = true;
        transition = deciderSpanNames().killSwitchRearm;
    }
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (transition != 0 && recorder.enabled()) {
        recorder.recordInstant(transition, obs::SpanCategory::Epoch,
                               support::probeNowNs(), model_.epochCount());
    }
}

void EpochDecider::foldVisitMetrics(
    const OverheadModel::Observations& observations) const {
    if (config_.foldVisitMetricsInto == nullptr) {
        return;
    }
    // Metric-only journal touches: only the regions whose count actually
    // changed are dirtied, so a following re-selection patches its CSR
    // snapshot and keeps every cached stage that reads no metrics of the
    // touched nodes.
    cg::CallGraph& graph = *config_.foldVisitMetricsInto;
    for (const auto& [name, observation] : observations) {
        const cg::FunctionId id = graph.lookup(name);
        if (id == cg::kInvalidFunction || !graph.alive(id)) {
            continue;
        }
        const auto visits = static_cast<std::uint32_t>(
            std::min(observation.visits, static_cast<double>(UINT32_MAX)));
        if (graph.desc(id).metrics.profiledVisits != visits) {
            graph.touchMetrics(id, [visits](cg::FunctionMetrics& metrics) {
                metrics.profiledVisits = visits;
            });
        }
    }
}

select::InstrumentationPolicy EpochDecider::safeModePolicy() const {
    select::InstrumentationConfig keepIc;
    keepIc.specName = "safe-mode";
    keepIc.assignFunctions(config_.keep);
    return select::InstrumentationPolicy::fullOf(keepIc);
}

DeciderState EpochDecider::saveState() const {
    return DeciderState{model_.saveState(), safeMode_, overBudgetStreak_,
                        inBudgetStreak_};
}

void EpochDecider::restoreState(const DeciderState& state) {
    model_.restoreState(state.model);
    safeMode_ = state.safeMode;
    overBudgetStreak_ = static_cast<std::size_t>(state.overBudgetStreak);
    inBudgetStreak_ = static_cast<std::size_t>(state.inBudgetStreak);
    obsEventsAtLastEpoch_ = obs::TraceRecorder::global().recordedEvents();
}

}  // namespace capi::adapt
