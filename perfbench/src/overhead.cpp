// Workload `overhead`: Table II. Execution-scale OpenFOAM on two mpisim
// ranks, six configurations per repetition in an order rotated every
// repetition so that drift hits all of them alike:
//   vanilla      no-sled build
//   inactive     XRay build, nothing patched
//   full_scorep  every sled patched, Score-P (cyg) backend
//   full_talp    every sled patched, TALP backend
//   ic_scorep    the `kernels` IC, Score-P backend
//   ic_talp      the `mpi` IC, TALP backend
// Selection happens in set-up; patching (Tinit) before each timed run.
// The run sets up kModels models and repetition r runs model r % kModels.
#include <array>
#include <memory>
#include <optional>

#include "apps/specs.hpp"
#include "binsim/execution_engine.hpp"
#include "common.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/mpi_port.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "mpisim/mpi_world.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/measurement.hpp"
#include "select/selection_driver.hpp"
#include "talpsim/talp.hpp"

namespace perfbench {

namespace {

namespace dyncapi = capi::dyncapi;
namespace mpi = capi::mpi;
namespace scorep = capi::scorep;
namespace select = capi::select;
namespace talp = capi::talp;

constexpr int kRanks = 2;

enum class Config { Vanilla, Inactive, FullScoreP, FullTalp, IcScoreP, IcTalp };
constexpr std::array<Config, 6> kConfigs = {
    Config::Vanilla,  Config::Inactive, Config::FullScoreP,
    Config::FullTalp, Config::IcScoreP, Config::IcTalp};

const char* configName(Config config) {
    switch (config) {
        case Config::Vanilla: return "vanilla";
        case Config::Inactive: return "inactive";
        case Config::FullScoreP: return "full_scorep";
        case Config::FullTalp: return "full_talp";
        case Config::IcScoreP: return "ic_scorep";
        case Config::IcTalp: return "ic_talp";
    }
    return "?";
}

bool isScoreP(Config c) { return c == Config::FullScoreP || c == Config::IcScoreP; }
bool isTalp(Config c) { return c == Config::FullTalp || c == Config::IcTalp; }
bool isFull(Config c) { return c == Config::FullScoreP || c == Config::FullTalp; }

struct Prepared {
    App app;
    binsim::CompiledProgram vanilla;
    select::InstrumentationConfig kernels;
    select::InstrumentationConfig mpi;
};

Prepared prepare(std::uint64_t seed, Tracer& tracer) {
    apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
    params.seed = seed;
    Prepared p;
    p.app = setUpApp(params, tracer);
    {
        Span span(tracer, "binsim.compile_s");
        binsim::CompileOptions options;
        options.xrayInstrument = false;
        p.vanilla = binsim::compile(p.app.model, options);
    }
    const capi::spec::ModuleResolver resolver = apps::bundledResolver();
    const dyncapi::ProcessSymbolOracle oracle(p.app.compiled);
    for (const apps::NamedSpec& spec : apps::evaluationSpecs()) {
        if (spec.name != "kernels" && spec.name != "mpi") {
            continue;
        }
        select::SelectionOptions options;
        options.specText = spec.text;
        options.specName = spec.name;
        options.resolver = &resolver;
        options.symbolOracle = &oracle;
        Span span(tracer, "select.run_s." + metricName(spec.name));
        (spec.name == "mpi" ? p.mpi : p.kernels) =
            select::runSelection(p.app.graph, options).ic;
    }
    return p;
}

/// What one rank's run reported, kept to compare repetitions.
struct RankFacts {
    std::uint64_t dynamicCalls = 0;
    double virtualNs = 0.0;
    bool operator==(const RankFacts& o) const {
        return dynamicCalls == o.dynamicCalls && virtualNs == o.virtualNs;
    }
};

class Runner {
public:
    Runner(const Prepared& prepared, Tracer& tracer, Result& result)
        : p_(prepared), index_(prepared.app.model), tracer_(tracer), result_(result) {}

    /// Runs one configuration; returns Tinit + run wall time.
    double run(Config config, const std::string& suffix);

private:
    const Prepared& p_;
    const NameIndex index_;
    Tracer& tracer_;
    Result& result_;
    std::array<std::optional<std::array<RankFacts, kRanks>>, kConfigs.size()> facts_;
};

double Runner::run(Config config, const std::string& suffix) {
    const std::string name = configName(config);
    Check check;
    Span init(tracer_, "bench.init_s");
    std::optional<binsim::Process> process;
    {
        Span span(tracer_, "binsim.process_s");
        process.emplace(config == Config::Vanilla ? p_.vanilla : p_.app.compiled);
    }
    mpi::MpiWorld world(kRanks);
    std::optional<talp::TalpRuntime> talpRuntime;
    std::optional<dyncapi::DynCapi> dyn;
    std::optional<scorep::Measurement> measurement;
    std::optional<scorep::CygProfileAdapter> adapter;
    const select::InstrumentationConfig& ic =
        config == Config::IcScoreP ? p_.kernels : p_.mpi;
    if (isScoreP(config) || isTalp(config)) {
        Span tinit(tracer_, "dyncapi.tinit_s." + name);
        {
            Span span(tracer_, "dyncapi.construct_s");
            dyn.emplace(*process);
        }
        {
            Span span(tracer_, "dyncapi.apply_s");
            if (isFull(config)) {
                dyn->patchAll();
            } else {
                dyn->applyIc(ic);
            }
        }
        if (isScoreP(config)) {
            Span span(tracer_, "scorepsim.adapter_s");
            measurement.emplace();
            adapter.emplace(*measurement,
                            scorep::SymbolResolver::withSymbolInjection(*process));
        } else {
            Span span(tracer_, "talpsim.runtime_s");
            talpRuntime.emplace(world);
        }
        Span span(tracer_, "dyncapi.attach_s");
        if (isScoreP(config)) {
            dyn->attachCygHandler(*adapter);
        } else {
            dyn->attachTalpHandler(*talpRuntime);
        }
    }
    const double initSeconds = init.stop();
    if (config != Config::Vanilla && config != Config::Inactive) {
        result_.sample("init_s" + suffix, initSeconds);
    }

    std::array<binsim::RunStats, kRanks> stats{};
    std::array<std::uint64_t, kRanks> rankNs{};
    dyncapi::WorldMpiPort port(world);
    Span runSpan(tracer_, "mpisim.run_ranks_s." + name);
    const std::uint32_t parent = runSpan.id();
    mpi::runRanks(world, [&](int rank) {
        Span span(tracer_, "binsim.run_s." + name, parent);
        binsim::ExecutionEngine engine(*process);
        engine.setMpiPort(&port);
        stats[rank] = engine.run(rank, kRanks);
        rankNs[rank] = static_cast<std::uint64_t>(span.stop() * 1e9);
    });
    const double runSeconds = runSpan.stop();
    result_.sample("run_s." + name + suffix, runSeconds);
    result_.sample("mpisim.rank_skew_s." + name + suffix,
                   static_cast<double>(std::max(rankNs[0], rankNs[1]) -
                                       std::min(rankNs[0], rankNs[1])) * 1e-9);

    std::uint64_t sledHits = 0;
    std::uint64_t calls = 0;
    std::array<RankFacts, kRanks> facts{};
    for (int r = 0; r < kRanks; ++r) {
        sledHits += stats[r].sledHits;
        calls += stats[r].dynamicCalls;
        facts[r] = {stats[r].dynamicCalls, stats[r].virtualNs};
    }
    // Counts are means over the run's models, each taken from the first run
    // of a config on a model, so they repeat exactly from run to run.
    auto& first = facts_[static_cast<std::size_t>(config)];
    const bool record = !first;
    auto count = [&](const std::string& metric, double value) {
        if (record) {
            result_.add(metric, value / kModels);
        }
    };
    if (!first) {
        first = facts;
    }
    count("binsim.sled_hits." + name, static_cast<double>(sledHits));
    count("binsim.dynamic_calls." + name, static_cast<double>(calls));
    count("binsim.virtual_ns." + name, stats[0].virtualNs);
    check.expect(*first == facts,
                 "dynamicCalls or virtualNs differ from the first repetition");
    if (config == Config::Vanilla) {
        check.expect(sledHits == 0, "vanilla build hit sleds");
    }

    if (isScoreP(config)) {
        Span span(tracer_, "scorepsim.merge_ms");
        const scorep::ProfileTree profile = measurement->mergedProfile();
        span.stop();
        std::uint64_t visits = 0;
        for (std::size_t n = 1; n < profile.nodeCount(); ++n) {
            visits += profile.node(n).visits;
        }
        count("scorepsim.probe_events." + name,
              static_cast<double>(measurement->probeEvents()));
        if (config == Config::FullScoreP) {
            // Every dispatched entry and exit sled is one half of a visit.
            check.expect(2 * visits == sledHits,
                         "profile visits do not match the sled hits");
            count("scorepsim.unresolved_ratio",
                  measurement->probeEvents() == 0
                      ? 0.0
                      : static_cast<double>(adapter->unresolvedAddresses()) /
                            static_cast<double>(measurement->probeEvents()));
            count("dyncapi.unresolvable",
                  static_cast<double>(dyn->unresolvableFunctionCount()));
        }
    }
    if (isTalp(config)) {
        count("talpsim.regions." + name,
              static_cast<double>(talpRuntime->regionCount()));
        count("talpsim.failed_registrations." + name,
              static_cast<double>(dyn->talpFailedRegistrations()));
    }
    if (dyn && !isFull(config)) {
        Span span(tracer_, "bench.check_s");
        check.expect(patchedSetProblem(*process, p_.app.model, index_,
                                       ic.functions).empty(),
                     "live sleds differ from the IC");
    }
    if (dyn) {
        dyn->detachHandler();
    }
    result_.operation("run " + name, check.problems());
    return initSeconds + runSeconds;
}

}  // namespace

void runOverhead(const Options& options, Tracer& tracer, Result& result) {
    std::vector<std::unique_ptr<Prepared>> models;
    for (int k = 0; k < kModels; ++k) {
        Span setup(tracer, "bench.setup_s");
        models.push_back(
            std::make_unique<Prepared>(prepare(modelSeed(options.seed, k), tracer)));
        result.sample("setup_s", setup.stop());
    }
    result.set("ranks", kRanks);
    result.set("iterations", apps::OpenFoamParams::executionScale().iterations);
    // One untimed, unchecked warm-up pass over every configuration.
    {
        tracer.setEnabled(false);
        Result warmup;
        Runner runner(*models[0], tracer, warmup);
        for (Config config : kConfigs) {
            runner.run(config, "");
        }
    }
    std::vector<std::unique_ptr<Runner>> runners;
    for (const auto& model : models) {
        runners.push_back(std::make_unique<Runner>(*model, tracer, result));
    }

    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
    for (int rep = 0; moreReps(options, rep, deadline); ++rep) {
        const bool traced = tracedRep(options, rep);
        tracer.setEnabled(traced);
        const std::string suffix = options.trace && !traced ? ".untraced" : "";
        Runner& runner = *runners[static_cast<std::size_t>(rep % kModels)];
        Span repSpan(tracer, "bench.rep_s");
        double repSeconds = 0.0;
        for (std::size_t k = 0; k < kConfigs.size(); ++k) {
            repSeconds += runner.run(kConfigs[(k + rep) % kConfigs.size()], suffix);
        }
        result.sample("rep_s" + suffix, repSeconds);
    }
    tracer.setEnabled(options.trace);
    if (options.trace) {
        runLadder(medianCallDepth(models[0]->app.model), tracer, result);
    }
}

}  // namespace perfbench
