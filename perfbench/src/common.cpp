#include "common.hpp"

#include <sys/resource.h>

#include <cctype>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "cg/csr_view.hpp"
#include "cg/metacg_builder.hpp"
#include "obs/metrics.hpp"
#include "support/json.hpp"

namespace perfbench {

void Result::writeJson(const std::string& path, const Options& options,
                       const Tracer& tracer) const {
    using capi::support::Json;
    Json out = Json::object();
    out["workload"] = options.workload;
    out["seed"] = options.seed;
    out["trace"] = options.trace;
    out["attempted"] = attempted_;
    out["failed"] = failed_;
    Json failures = Json::array();
    for (const std::string& failure : failures_) {
        failures.push_back(failure);
    }
    out["failures"] = std::move(failures);
    Json samples = Json::object();
    for (const auto& [name, values] : samples_) {
        Json list = Json::array();
        for (double value : values) {
            list.push_back(value);
        }
        samples[name] = std::move(list);
    }
    out["samples"] = std::move(samples);
    Json counts = Json::object();
    for (const auto& [name, value] : counts_) {
        counts[name] = value;
    }
    out["counts"] = std::move(counts);
    // Spans as [id, parent, name, startNs, endNs].
    Json spans = Json::array();
    for (const SpanRecord& span : tracer.spans()) {
        spans.push_back(Json::Array{span.id, span.parent, span.name,
                                    span.startNs, span.endNs});
    }
    out["spans"] = std::move(spans);

    std::ofstream file(path);
    file << out.dump() << '\n';
    if (!file) {
        throw std::runtime_error("cannot write " + path);
    }
}

App setUpApp(const apps::OpenFoamParams& params, Tracer& tracer) {
    App app;
    {
        Span span(tracer, "apps.model_s");
        app.model = apps::makeOpenFoam(params);
    }
    {
        Span span(tracer, "cg.build_s");
        cg::MetaCgBuilder builder;
        app.graph = builder.build(app.model.toSourceModel());
    }
    {
        // The graph's shared CSR snapshot, built once here so that set-up
        // pays for it and every later selection finds it already built.
        Span span(tracer, "cg.csr_s");
        cg::CsrView::snapshot(app.graph);
    }
    {
        Span span(tracer, "binsim.compile_s");
        binsim::CompileOptions options;
        options.xrayThreshold.instructionThreshold = 1;
        app.compiled = binsim::compile(app.model, options);
    }
    return app;
}

std::string metricName(const std::string& name) {
    std::string out;
    for (char c : name) {
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    }
    return out;
}

NameIndex::NameIndex(const binsim::AppModel& model) {
    index_.reserve(model.functions.size());
    for (std::uint32_t i = 0; i < model.functions.size(); ++i) {
        index_.emplace(model.functions[i].name, i);
    }
}

const std::uint32_t* NameIndex::find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &it->second;
}

std::string namedSetProblem(const binsim::AppModel& model, const NameIndex& index,
                            const std::vector<std::string>& names) {
    std::size_t hidden = 0;
    std::size_t unknown = 0;
    for (const std::string& name : names) {
        const std::uint32_t* fn = index.find(name);
        if (fn == nullptr) {
            ++unknown;
        } else if (model.functions[*fn].flags.hiddenVisibility) {
            ++hidden;
        }
    }
    if (hidden + unknown == 0) {
        return "";
    }
    return std::to_string(hidden) + " hidden and " + std::to_string(unknown) +
           " unknown functions selected";
}

std::string patchedSetProblem(binsim::Process& process,
                              const binsim::AppModel& model,
                              const NameIndex& index,
                              const std::vector<std::string>& names) {
    const std::vector<binsim::ExecInfo>& exec = process.execInfo();
    std::unordered_set<std::uint32_t> expected;
    for (const std::string& name : names) {
        const std::uint32_t* fn = index.find(name);
        if (fn != nullptr && !model.functions[*fn].flags.hiddenVisibility &&
            exec[*fn].hasSleds) {
            expected.insert(*fn);
        }
    }
    std::size_t missing = 0;
    std::size_t extra = 0;
    for (std::uint32_t fn = 0; fn < exec.size(); ++fn) {
        if (!exec[fn].hasSleds) {
            continue;
        }
        const bool patched = process.xray().functionPatched(exec[fn].packedId);
        const bool wanted = expected.count(fn) != 0;
        missing += wanted && !patched;
        extra += patched && !wanted;
    }
    if (missing + extra == 0) {
        return "";
    }
    return std::to_string(missing) + " selected sleds unpatched, " +
           std::to_string(extra) + " other sleds patched";
}

double registryValue(const std::string& name) {
    double total = 0.0;
    for (const capi::obs::Sample& sample :
         capi::obs::MetricsRegistry::global().snapshot()) {
        // Per-instance collectors label their samples: name{key="..."}.
        if (sample.name.compare(0, name.size(), name) == 0 &&
            (sample.name.size() == name.size() || sample.name[name.size()] == '{')) {
            total += sample.value;
        }
    }
    return total;
}

XrayCounters XrayCounters::read() {
    return {registryValue("capi_xray_pages_made_writable_total"),
            registryValue("capi_xray_sleds_patched_total") +
                registryValue("capi_xray_sleds_unpatched_total"),
            registryValue("capi_xray_rollbacks_total")};
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
