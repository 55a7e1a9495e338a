// Workload `refine`: the paper's "refine without recompiling" path at full
// OpenFOAM scale (410,666 nodes). One repetition runs
//   1. a runSelection pass over the four evaluation specs, outside any
//      RefinementSession (the graph's CSR snapshot is built in set-up),
//   2. the same specs through one warm RefinementSession,
//   3. a fresh Process + DynCapi + applyPolicy(mpi)        (Tinit),
//   4. one refinement cycle of applyPolicyDelta:
//      mpi -> mpi coarse -> kernels -> kernels coarse -> mpi.
// The application never executes, so the measurement hot path is idle.
#include <algorithm>
#include <optional>
#include <thread>

#include "apps/specs.hpp"
#include "common.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "dyncapi/refinement.hpp"
#include "select/selection_driver.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

namespace dyncapi = capi::dyncapi;
namespace select = capi::select;

/// Set-ups of the one full-scale model per run; setup_s is their median.
constexpr int kSetups = 3;
/// Repetitions every run makes, however short --seconds is.
constexpr int kMinReps = 3;

class Refiner {
public:
    Refiner(const App& app, Tracer& tracer)
        : app_(app),
          index_(app.model),
          resolver_(apps::bundledResolver()),
          oracle_(app.compiled),
          specs_(apps::evaluationSpecs()),
          pool_(std::max(1u, std::thread::hardware_concurrency())),
          session_(app.graph, pool_.threadCount()),
          tracer_(tracer) {
        base_.resolver = &resolver_;
        base_.symbolOracle = &oracle_;
        base_.threads = pool_.threadCount();
        base_.pool = &pool_;
        // Warm the session once: every timed session pass is a warm one.
        for (const apps::NamedSpec& spec : specs_) {
            session_.select(spec.text, spec.name, base_);
        }
    }

    std::size_t threads() const { return pool_.threadCount(); }

    /// One repetition; records its samples and checks into `result`.
    void repetition(Result& result, const std::string& suffix);

private:
    const App& app_;
    const NameIndex index_;
    const capi::spec::ModuleResolver resolver_;
    const dyncapi::ProcessSymbolOracle oracle_;
    const std::vector<apps::NamedSpec> specs_;
    capi::support::ThreadPool pool_;
    select::SelectionOptions base_;
    dyncapi::RefinementSession session_;
    Tracer& tracer_;
};

void Refiner::repetition(Result& result, const std::string& suffix) {
    Span repSpan(tracer_, "bench.rep_s");
    double repSeconds = 0.0;

    // 1. selection without a session.
    std::vector<select::InstrumentationConfig> ics;
    double selectSeconds = 0.0;
    double selected = 0;
    double added = 0;
    for (const apps::NamedSpec& spec : specs_) {
        select::SelectionOptions cold = base_;
        cold.specText = spec.text;
        cold.specName = spec.name;
        Span span(tracer_, "select.run_s." + metricName(spec.name));
        select::SelectionReport report = select::runSelection(app_.graph, cold);
        selectSeconds += span.stop();
        selected += static_cast<double>(report.selectedFinal);
        added += static_cast<double>(report.added);
        Span check(tracer_, "bench.check_s");
        result.operation("select " + spec.name,
                         namedSetProblem(app_.model, index_, report.ic.functions));
        ics.push_back(std::move(report.ic));
    }
    result.sample("select_s" + suffix, selectSeconds);
    result.set("select.selected", selected);
    result.set("select.added", added);
    repSeconds += selectSeconds;

    // 2. warm re-selection.
    const double hits0 = registryValue("capi_select_cache_hits_total");
    const double misses0 = registryValue("capi_select_cache_misses_total");
    const double fullBuilds0 = registryValue("capi_csr_full_builds_total");
    const double sharedHits0 = registryValue("capi_csr_shared_hits_total");
    double reselectSeconds = 0.0;
    double stageHits = 0;
    double stages = 0;
    for (std::size_t s = 0; s < specs_.size(); ++s) {
        Span span(tracer_, "select.session_s." + metricName(specs_[s].name));
        select::SelectionReport report =
            session_.select(specs_[s].text, specs_[s].name, base_);
        reselectSeconds += span.stop();
        stageHits += static_cast<double>(report.pipelineRun.cacheHits);
        stages += static_cast<double>(report.pipelineRun.sizes.size());
        Check check;
        check.expect(report.ic.functions == ics[s].functions,
                     "warm IC differs from the cold IC");
        result.operation("reselect " + specs_[s].name, check.problems());
    }
    const double hits = registryValue("capi_select_cache_hits_total") - hits0;
    const double misses = registryValue("capi_select_cache_misses_total") - misses0;
    result.sample("reselect_s" + suffix, reselectSeconds);
    result.set("select.stage_hit_ratio", stages > 0 ? stageHits / stages : 0.0);
    result.set("select.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    result.set("csr.full_builds",
               registryValue("capi_csr_full_builds_total") - fullBuilds0);
    result.set("csr.shared_hits",
               registryValue("capi_csr_shared_hits_total") - sharedHits0);
    repSeconds += reselectSeconds;

    // 3. Tinit at full scale.
    Span init(tracer_, "bench.init_s");
    std::optional<binsim::Process> process;
    {
        Span span(tracer_, "binsim.process_s");
        process.emplace(app_.compiled);
    }
    std::optional<dyncapi::DynCapi> dyn;
    {
        Span span(tracer_, "dyncapi.construct_s");
        dyn.emplace(*process);
    }
    {
        Span span(tracer_, "dyncapi.apply_s");
        dyn->applyPolicy(select::InstrumentationPolicy::fullOf(ics[0]));
    }
    const double initSeconds = init.stop();
    result.sample("init_s" + suffix, initSeconds);
    result.set("dyncapi.unresolvable",
               static_cast<double>(dyn->unresolvableFunctionCount()));
    repSeconds += initSeconds;
    {
        Span check(tracer_, "bench.check_s");
        result.operation("apply " + specs_[0].name,
                         patchedSetProblem(*process, app_.model, index_,
                                           ics[0].functions));
    }

    // 4. one refinement cycle of delta applies.
    const XrayCounters before = XrayCounters::read();
    double repatchSeconds = 0.0;
    for (std::size_t s = 0; s < specs_.size(); ++s) {
        const std::size_t to = (s + 1) % specs_.size();
        Span span(tracer_, "dyncapi.delta_s." + metricName(specs_[s].name) + "-" +
                               metricName(specs_[to].name));
        dyn->applyPolicyDelta(select::InstrumentationPolicy::fullOf(ics[to]));
        repatchSeconds += span.stop();
        Span check(tracer_, "bench.check_s");
        result.operation("delta to " + specs_[to].name,
                         patchedSetProblem(*process, app_.model, index_,
                                           ics[to].functions));
    }
    const XrayCounters after = XrayCounters::read();
    result.sample("repatch_ms" + suffix, repatchSeconds * 1e3);
    repSeconds += repatchSeconds;
    after.since(before, [&](const std::string& name, double value) {
        result.set(name, value);
    });
    Check rollbacks;
    rollbacks.expect(after.rollbacks == before.rollbacks,
                     "patch transactions rolled back");
    result.operation("refinement cycle", rollbacks.problems());

    result.sample("rep_s" + suffix, repSeconds);
    Span teardown(tracer_, "binsim.teardown_s");
    dyn.reset();
    process.reset();
}

}  // namespace

void runRefine(const Options& options, Tracer& tracer, Result& result) {
    apps::OpenFoamParams params = apps::OpenFoamParams::selectionScale();
    params.seed = options.seed;
    App app;
    for (int i = 0; i < kSetups; ++i) {
        app = App{};  // release the previous set-up before timing the next
        Span setup(tracer, "bench.setup_s");
        app = setUpApp(params, tracer);
        result.sample("setup_s", setup.stop());
    }
    Refiner refiner(app, tracer);
    result.set("threads", static_cast<double>(refiner.threads()));
    // One untimed, unchecked warm-up repetition.
    {
        tracer.setEnabled(false);
        Result warmup;
        refiner.repetition(warmup, "");
    }

    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
    for (int rep = 0; rep < kMinReps || nowNs() < deadline; ++rep) {
        // Traced runs alternate traced and untraced repetitions; the gap
        // between the two is the tracing overhead.
        const bool traced = options.trace && rep % 2 == 0;
        tracer.setEnabled(traced);
        refiner.repetition(result, options.trace && !traced ? ".untraced" : "");
    }
    tracer.setEnabled(options.trace);
    if (options.trace) {
        runLadder(medianCallDepth(app.model), tracer, result);
    }
}

}  // namespace perfbench
