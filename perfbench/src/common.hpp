// Shared pieces of the benchmark workloads: options, the result collector,
// application set-up and the correctness checks that do not trust the
// numbers the code under test reports about itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/openfoam.hpp"
#include "binsim/app_model.hpp"
#include "binsim/compiler.hpp"
#include "binsim/process.hpp"
#include "cg/call_graph.hpp"
#include "trace.hpp"

namespace perfbench {

namespace apps = capi::apps;
namespace binsim = capi::binsim;
namespace cg = capi::cg;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

/// Models the execution-scale workloads set up, each from its own seed
/// derived from --seed; repetitions cycle through them, so one run's
/// medians cover several inputs instead of one.
constexpr int kModels = 5;

inline std::uint64_t modelSeed(std::uint64_t seed, int model) {
    return seed * kModels + static_cast<std::uint64_t>(model);
}

/// Whether repetition `rep` of a multi-model workload is traced. Traced runs
/// trace every model's first visit and every second one after it, so the
/// traced and untraced repetitions cover the same models.
inline bool tracedRep(const Options& options, int rep) {
    return options.trace && (rep / kModels) % 2 == 0;
}

/// Whether a multi-model workload runs repetition `rep`: whole rounds over
/// the models (two in a traced run, one traced and one untraced) until the
/// deadline has passed.
inline bool moreReps(const Options& options, int rep, std::uint64_t deadlineNs) {
    const int round = options.trace ? 2 * kModels : kModels;
    return rep < round || rep % round != 0 || nowNs() < deadlineNs;
}

/// Raw samples, counts and check outcomes of one run, written as JSON for
/// run.py to summarize.
class Result {
public:
    void sample(const std::string& name, double value) {
        samples_[name].push_back(value);
    }
    void set(const std::string& name, double value) { counts_[name] = value; }
    void add(const std::string& name, double value) { counts_[name] += value; }

    /// One attempted operation; it fails when `problem` is non-empty.
    void operation(const std::string& what, const std::string& problem) {
        ++attempted_;
        if (!problem.empty()) {
            ++failed_;
            if (failures_.size() < 20) {
                failures_.push_back(what + ": " + problem);
            }
        }
    }

    void writeJson(const std::string& path, const Options& options,
                   const Tracer& tracer) const;

private:
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> counts_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/// Accumulates the problems one operation's checks find.
class Check {
public:
    void expect(bool ok, const std::string& problem) {
        if (!ok) {
            problems_ += problems_.empty() ? problem : "; " + problem;
        }
    }
    const std::string& problems() const { return problems_; }

private:
    std::string problems_;
};

/// One set-up of an application: model, whole-program call graph and the
/// XRay-instrumented build.
struct App {
    binsim::AppModel model;
    cg::CallGraph graph;
    binsim::CompiledProgram compiled;
};

/// makeOpenFoam + MetaCgBuilder::build + CsrView::snapshot + binsim::compile,
/// each in a span.
App setUpApp(const apps::OpenFoamParams& params, Tracer& tracer);

/// Metric-name form of a spec or config name ("mpi coarse" -> "mpi_coarse").
std::string metricName(const std::string& name);

/// Model function index by name.
class NameIndex {
public:
    explicit NameIndex(const binsim::AppModel& model);
    const std::uint32_t* find(const std::string& name) const;

private:
    std::unordered_map<std::string, std::uint32_t> index_;
};

/// Problems with the names an IC selects: functions the model does not
/// define, and hidden-visibility functions no name-based IC can reach.
/// Returns "" when there are none.
std::string namedSetProblem(const binsim::AppModel& model, const NameIndex& index,
                            const std::vector<std::string>& names);

/// Compares the live sled state of `process` with `names`: the functions
/// XRayRuntime::functionPatched reports must be exactly the named,
/// name-resolvable (not hidden) functions that have live sleds. Returns ""
/// when they are.
std::string patchedSetProblem(binsim::Process& process,
                              const binsim::AppModel& model,
                              const NameIndex& index,
                              const std::vector<std::string>& names);

/// Sum of every registry sample named `name`, labelled or not.
double registryValue(const std::string& name);

/// The xraysim patch counters of the metrics registry.
struct XrayCounters {
    double pages = 0;
    double sledsFlipped = 0;
    double rollbacks = 0;

    static XrayCounters read();
    /// Passes the per-layer xraysim metrics since `before` to `emit`.
    template <class Emit>
    void since(const XrayCounters& before, Emit emit) const {
        const double written = pages - before.pages;
        const double flipped = sledsFlipped - before.sledsFlipped;
        emit("xraysim.pages_written", written);
        emit("xraysim.sleds_flipped", flipped);
        emit("xraysim.sleds_per_page", written > 0 ? flipped / written : 0.0);
        emit("xraysim.rollbacks", rollbacks - before.rollbacks);
    }
};

/// Peak resident set size of this process in MiB.
double peakRssMb();

void runRefine(const Options& options, Tracer& tracer, Result& result);
void runOverhead(const Options& options, Tracer& tracer, Result& result);
void runAdapt(const Options& options, Tracer& tracer, Result& result);
/// Per-event cost ladder at the given call-path depth.
void runLadder(std::size_t depth, Tracer& tracer, Result& result);
/// Median call-path depth of the model's dynamic calls.
std::size_t medianCallDepth(const binsim::AppModel& model);

}  // namespace perfbench
