// Workload `adapt`: the adaptive overhead-budget controller, in the shape of
// `capi_tool adapt --app openfoam` (execution-scale OpenFOAM, 5 outer steps,
// survey of every defined function, 5% budget, Sampled tier 1-in-64).
// One repetition runs two sessions, both from the benchmark's one thread:
//   1. in-process: Controller::start(survey), then Score-P-measured runs
//      and Controller::epoch until done();
//   2. fleet: two controller-attached FleetClients and one Aggregator,
//      pumped here, for kFleetEpochs epochs.
// Control-plane time (adapt_s, fleet_s) excludes ExecutionEngine::run.
// The run sets up kModels models and repetition r runs model r % kModels.
#include <algorithm>
#include <memory>
#include <optional>

#include "adapt/controller.hpp"
#include "binsim/execution_engine.hpp"
#include "common.hpp"
#include "dyncapi/dyncapi.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/client.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/measurement.hpp"

namespace perfbench {

namespace {

namespace adapt = capi::adapt;
namespace dyncapi = capi::dyncapi;
namespace fleet = capi::fleet;
namespace scorep = capi::scorep;
namespace select = capi::select;

constexpr std::uint32_t kIterations = 5;
constexpr std::size_t kFleetClients = 2;
constexpr std::size_t kFleetEpochs = 3;

adapt::Config controllerConfig() {
    adapt::Config config;
    config.budgetFraction = 0.05;
    config.maxEpochs = 5;
    config.perEventCostNs = 200.0;
    config.enableSampledTier = true;
    config.sampledEveryN = 64;
    return config;
}

struct Prepared {
    App app;
    NameIndex index;
    select::InstrumentationConfig survey;
    /// Sorted region universe, defined up front on every fleet epoch's
    /// Measurement so client region handles never renumber.
    std::vector<std::string> universe;
};

std::unique_ptr<Prepared> prepare(std::uint64_t seed, Tracer& tracer) {
    apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
    params.seed = seed;
    params.iterations = kIterations;
    App app = setUpApp(params, tracer);
    NameIndex index(app.model);
    select::InstrumentationConfig survey;
    {
        Span span(tracer, "adapt.survey_s");
        survey = adapt::surveyOfDefinedFunctions(app.graph);
    }
    std::vector<std::string> universe;
    for (cg::FunctionId id = 0; id < app.graph.size(); ++id) {
        universe.push_back(app.graph.name(id));
    }
    std::sort(universe.begin(), universe.end());
    return std::make_unique<Prepared>(
        Prepared{std::move(app), std::move(index), std::move(survey),
                 std::move(universe)});
}

/// One process under adaptive control (members destroyed in reverse).
struct Rank {
    std::optional<binsim::Process> process;
    std::optional<dyncapi::DynCapi> dyn;
    std::optional<adapt::Controller> controller;
};

/// One measured run of the rank's application; returns its profile.
struct MeasuredRun {
    scorep::Measurement measurement;
    scorep::ProfileTree profile;
    double runtimeNs = 0.0;
};

std::unique_ptr<MeasuredRun> measure(Rank& rank, const Prepared& p,
                                     const adapt::Config& config,
                                     bool defineUniverse, Tracer& tracer,
                                     const std::string& runName,
                                     double& controlSeconds) {
    auto run = std::make_unique<MeasuredRun>();
    if (defineUniverse) {
        for (const std::string& name : p.universe) {
            run->measurement.defineRegion(name);
        }
    }
    scorep::CygProfileAdapter adapter(
        run->measurement,
        scorep::SymbolResolver::withSymbolInjection(*rank.process));
    rank.dyn->attachCygHandler(adapter);
    binsim::RunStats stats;
    {
        Span span(tracer, "binsim.run_s." + runName);
        binsim::ExecutionEngine engine(*rank.process);
        stats = engine.run();
    }
    rank.dyn->detachHandler();
    {
        Span span(tracer, "scorepsim.merge_ms");
        run->profile = run->measurement.mergedProfile();
        controlSeconds += span.stop();
    }
    run->runtimeNs = adapt::virtualEpochRuntimeNs(
        stats, run->measurement, config.perEventCostNs, config.gateCostNs);
    return run;
}

std::string liveSledProblem(Rank& rank, const Prepared& p) {
    return patchedSetProblem(*rank.process, p.app.model, p.index,
                             rank.controller->currentPolicy().patchSet().functions);
}

class Sessions {
public:
    Sessions(const Prepared& prepared, Tracer& tracer, Result& result)
        : p_(prepared), config_(controllerConfig()), tracer_(tracer), result_(result) {}

    /// The in-process session; records adapt_s.
    void inProcess(const std::string& suffix);
    /// The fleet session; records fleet_s.
    void fleetSession(const std::string& suffix);
    /// Ends the first repetition: later ones record no counts.
    void stopRecording() { record_ = false; }

private:
    /// Counts are means over the run's models, taken from each model's
    /// first repetition, so they repeat exactly from run to run.
    void count(const std::string& name, double value) {
        if (record_) {
            result_.add(name, value / kModels);
        }
    }

    /// Process + DynCapi + Controller + start(survey), timed as init_s.
    std::unique_ptr<Rank> startRank(const std::string& suffix, double& controlSeconds);

    const Prepared& p_;
    const adapt::Config config_;
    Tracer& tracer_;
    Result& result_;
    bool record_ = true;
};

std::unique_ptr<Rank> Sessions::startRank(const std::string& suffix,
                                          double& controlSeconds) {
    Span init(tracer_, "bench.init_s");
    auto rank = std::make_unique<Rank>();
    {
        Span span(tracer_, "binsim.process_s");
        rank->process.emplace(p_.app.compiled);
    }
    {
        Span span(tracer_, "dyncapi.construct_s");
        rank->dyn.emplace(*rank->process);
    }
    {
        Span span(tracer_, "adapt.controller_ms");
        rank->controller.emplace(p_.app.graph, *rank->dyn, config_);
    }
    Span start(tracer_, "adapt.start_ms");
    rank->controller->start(p_.survey);
    controlSeconds += start.stop();
    result_.sample("init_s" + suffix, init.stop());
    return rank;
}

void Sessions::inProcess(const std::string& suffix) {
    double control = 0.0;
    std::unique_ptr<Rank> rank = startRank(suffix, control);
    count("dyncapi.unresolvable",
          static_cast<double>(rank->dyn->unresolvableFunctionCount()));
    const XrayCounters before = XrayCounters::read();
    std::uint64_t probeEvents = 0;
    std::uint64_t suppressed = 0;
    while (!rank->controller->done()) {
        std::unique_ptr<MeasuredRun> run =
            measure(*rank, p_, config_, false, tracer_, "adapt", control);
        probeEvents = run->measurement.probeEvents();
        suppressed = run->measurement.suppressedEvents();
        Span span(tracer_, "adapt.epoch_ms");
        const adapt::EpochReport report =
            rank->controller->epoch(run->profile, run->measurement, run->runtimeNs);
        control += span.stop();
        Span check(tracer_, "bench.check_s");
        result_.operation("epoch " + std::to_string(report.epoch),
                          liveSledProblem(*rank, p_));
    }
    Check check;
    check.expect(rank->controller->lastReport().withinBudget,
                 "session ended over budget");
    const XrayCounters after = XrayCounters::read();
    check.expect(after.rollbacks == before.rollbacks,
                 "patch transactions rolled back");
    result_.operation("in-process session", check.problems());
    after.since(before, [&](const std::string& name, double value) {
        count(name, value);
    });
    count("adapt.epochs", static_cast<double>(rank->controller->epochsRun()));
    count("adapt.final_ic",
          static_cast<double>(rank->controller->currentPolicy().size()));
    count("scorepsim.suppressed_ratio",
          probeEvents == 0 ? 0.0
                           : static_cast<double>(suppressed) /
                                 static_cast<double>(probeEvents));
    result_.sample("adapt_s" + suffix, control);
}

void Sessions::fleetSession(const std::string& suffix) {
    double control = 0.0;
    fleet::AggregatorOptions options;
    options.config = config_;
    std::optional<fleet::Aggregator> aggregator;
    {
        Span span(tracer_, "fleet.aggregator_ms");
        aggregator.emplace(p_.app.graph, p_.survey, options);
        control += span.stop();
    }
    std::vector<std::unique_ptr<Rank>> ranks;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (std::size_t i = 0; i < kFleetClients; ++i) {
        double startSeconds = 0.0;  // Controller::start is init, not fleet
        ranks.push_back(startRank(suffix, startSeconds));
        Span span(tracer_, "fleet.connect_ms");
        clients.push_back(
            std::make_unique<fleet::FleetClient>(*aggregator, *ranks.back()->controller));
        control += span.stop();
    }
    Check check;
    for (std::size_t epoch = 1; epoch <= kFleetEpochs; ++epoch) {
        for (std::size_t i = 0; i < ranks.size(); ++i) {
            std::unique_ptr<MeasuredRun> run =
                measure(*ranks[i], p_, config_, true, tracer_, "fleet", control);
            Span span(tracer_, "fleet.send_ms");
            const fleet::SendResult sent =
                clients[i]->sendEpoch(run->profile, run->measurement, run->runtimeNs);
            control += span.stop();
            check.expect(sent == fleet::SendResult::Ok, "sendEpoch refused");
        }
        {
            Span span(tracer_, "fleet.pump_ms");
            while (aggregator->epochsCompleted() < epoch) {
                if (!aggregator->pump()) {
                    check.expect(false, "aggregator stalled");
                    break;
                }
            }
            control += span.stop();
        }
        for (auto& client : clients) {
            Span span(tracer_, "fleet.await_ms");
            client->awaitPolicy();
            control += span.stop();
        }
        Span verify(tracer_, "bench.check_s");
        for (std::size_t i = 0; i < ranks.size(); ++i) {
            check.expect(clients[i]->policyFingerprint() ==
                             aggregator->convergedFingerprint(),
                         "client off the converged policy");
            check.expect(liveSledProblem(*ranks[i], p_).empty(),
                         "live sleds differ from the client's policy");
        }
    }
    const fleet::AggregatorStats stats = aggregator->stats();
    const fleet::ChannelStats channel = aggregator->dataChannel().stats();
    check.expect(stats.decodeErrors == 0, "decode errors");
    result_.operation("fleet session", check.problems());
    count("fleet.bytes_per_frame",
          stats.framesMerged == 0
              ? 0.0
              : static_cast<double>(stats.bytesIn) /
                    static_cast<double>(stats.framesMerged));
    count("fleet.policy_bytes", static_cast<double>(stats.bytesOut));
    count("fleet.queue_depth_max", static_cast<double>(channel.maxDepth));
    result_.sample("fleet_s" + suffix, control);
}

}  // namespace

void runAdapt(const Options& options, Tracer& tracer, Result& result) {
    std::vector<std::unique_ptr<Prepared>> models;
    std::vector<std::unique_ptr<Sessions>> sessions;
    for (int k = 0; k < kModels; ++k) {
        Span setup(tracer, "bench.setup_s");
        models.push_back(prepare(modelSeed(options.seed, k), tracer));
        result.sample("setup_s", setup.stop());
        sessions.push_back(std::make_unique<Sessions>(*models.back(), tracer, result));
    }
    result.set("iterations", kIterations);
    result.set("fleet.clients", kFleetClients);
    // One untimed, unchecked warm-up repetition.
    {
        tracer.setEnabled(false);
        Result warmup;
        Sessions session(*models[0], tracer, warmup);
        session.inProcess("");
        session.fleetSession("");
    }

    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
    for (int rep = 0; moreReps(options, rep, deadline); ++rep) {
        const bool traced = tracedRep(options, rep);
        tracer.setEnabled(traced);
        const std::string suffix = options.trace && !traced ? ".untraced" : "";
        Sessions& session = *sessions[static_cast<std::size_t>(rep % kModels)];
        Span repSpan(tracer, "bench.rep_s");
        session.inProcess(suffix);
        session.fleetSession(suffix);
        result.sample("rep_s" + suffix, repSpan.stop());
        session.stopRecording();
    }
    tracer.setEnabled(options.trace);
    if (options.trace) {
        runLadder(medianCallDepth(models[0]->app.model), tracer, result);
    }
}

}  // namespace perfbench
