#include "cg/metacg_json.hpp"

#include <fstream>
#include <sstream>

#include "support/error.hpp"

namespace capi::cg {

using support::Json;
using support::JsonObject;

namespace {

Json idArrayToNames(const CallGraph& graph, const std::vector<FunctionId>& ids) {
    Json arr = Json::array();
    for (FunctionId id : ids) {
        arr.push_back(graph.name(id));
    }
    return arr;
}

}  // namespace

Json toMetaCgJson(const CallGraph& graph) {
    Json doc = Json::object();
    Json meta = Json::object();
    meta["version"] = Json("2.0");
    Json generator = Json::object();
    generator["name"] = Json("capi-repro");
    generator["version"] = Json("1.0");
    meta["generator"] = generator;
    doc["_MetaCG"] = meta;

    Json cgObj = Json::object();
    for (FunctionId id = 0; id < graph.size(); ++id) {
        const CallGraph::Node& node = graph.node(id);
        const FunctionDesc& d = node.desc;
        Json fn = Json::object();
        fn["callees"] = idArrayToNames(graph, node.callees);
        fn["callers"] = idArrayToNames(graph, node.callers);
        fn["overrides"] = idArrayToNames(graph, node.overrides);
        fn["overriddenBy"] = idArrayToNames(graph, node.overriddenBy);
        fn["hasBody"] = Json(d.flags.hasBody);
        fn["isVirtual"] = Json(d.flags.isVirtual);
        fn["doesOverride"] = Json(!node.overrides.empty());

        Json metrics = Json::object();
        metrics["prettyName"] = Json(d.prettyName);
        metrics["translationUnit"] = Json(d.translationUnit);
        metrics["sourceFile"] = Json(d.sourceFile);
        metrics["line"] = Json(d.line);
        metrics["signature"] = Json(d.signature);
        metrics["numStatements"] = Json(d.metrics.numStatements);
        metrics["flops"] = Json(d.metrics.flops);
        metrics["loopDepth"] = Json(d.metrics.loopDepth);
        metrics["cyclomaticComplexity"] = Json(d.metrics.cyclomaticComplexity);
        metrics["numCallSites"] = Json(d.metrics.numCallSites);
        metrics["numInstructions"] = Json(d.metrics.numInstructions);
        metrics["inlineSpecified"] = Json(d.flags.inlineSpecified);
        metrics["inSystemHeader"] = Json(d.flags.inSystemHeader);
        metrics["isMpi"] = Json(d.flags.isMpi);
        metrics["addressTaken"] = Json(d.flags.addressTaken);
        metrics["hiddenVisibility"] = Json(d.flags.hiddenVisibility);

        Json metaBlob = Json::object();
        metaBlob["capiMetrics"] = metrics;
        fn["meta"] = metaBlob;

        cgObj[d.name] = fn;
    }
    doc["_CG"] = cgObj;
    return doc;
}

CallGraph fromMetaCgJson(const Json& doc) {
    const Json* header = doc.find("_MetaCG");
    if (header == nullptr) {
        throw support::Error("MetaCG: missing _MetaCG header");
    }
    if (header->getString("version", "") != "2.0") {
        throw support::Error("MetaCG: unsupported version '" +
                             header->getString("version", "<none>") + "'");
    }
    const Json* cgObj = doc.find("_CG");
    if (cgObj == nullptr || !cgObj->isObject()) {
        throw support::Error("MetaCG: missing _CG section");
    }

    CallGraph::Assembly assembly(cgObj->asObject().size());

    // Pass 1: nodes with metadata.
    for (const auto& [name, fn] : cgObj->asObject()) {
        FunctionDesc desc;
        desc.name = name;
        desc.flags.hasBody = fn.getBool("hasBody", false);
        desc.flags.isVirtual = fn.getBool("isVirtual", false);
        if (const Json* metaBlob = fn.find("meta")) {
            if (const Json* m = metaBlob->find("capiMetrics")) {
                desc.prettyName = m->getString("prettyName", name);
                desc.translationUnit = m->getString("translationUnit", "");
                desc.sourceFile = m->getString("sourceFile", "");
                desc.line = static_cast<std::uint32_t>(m->getInt("line", 0));
                desc.signature = m->getString("signature", "");
                desc.metrics.numStatements =
                    static_cast<std::uint32_t>(m->getInt("numStatements", 0));
                desc.metrics.flops = static_cast<std::uint32_t>(m->getInt("flops", 0));
                desc.metrics.loopDepth =
                    static_cast<std::uint32_t>(m->getInt("loopDepth", 0));
                desc.metrics.cyclomaticComplexity =
                    static_cast<std::uint32_t>(m->getInt("cyclomaticComplexity", 1));
                desc.metrics.numCallSites =
                    static_cast<std::uint32_t>(m->getInt("numCallSites", 0));
                desc.metrics.numInstructions =
                    static_cast<std::uint32_t>(m->getInt("numInstructions", 0));
                desc.flags.inlineSpecified = m->getBool("inlineSpecified", false);
                desc.flags.inSystemHeader = m->getBool("inSystemHeader", false);
                desc.flags.isMpi = m->getBool("isMpi", false);
                desc.flags.addressTaken = m->getBool("addressTaken", false);
                desc.flags.hiddenVisibility = m->getBool("hiddenVisibility", false);
            }
        }
        if (desc.prettyName.empty()) {
            desc.prettyName = name;
        }
        assembly.intern(std::move(desc));
    }

    // Pass 2: edges and override relations.
    for (const auto& [name, fn] : cgObj->asObject()) {
        FunctionId caller = assembly.lookup(name);
        if (const Json* callees = fn.find("callees")) {
            for (const Json& calleeName : callees->asArray()) {
                FunctionId callee = assembly.lookup(calleeName.asString());
                if (callee == kInvalidFunction) {
                    throw support::Error("MetaCG: edge to unknown function '" +
                                         calleeName.asString() + "'");
                }
                assembly.addCallEdge(caller, callee);
            }
        }
        if (const Json* overrides = fn.find("overrides")) {
            for (const Json& baseName : overrides->asArray()) {
                FunctionId base = assembly.lookup(baseName.asString());
                if (base != kInvalidFunction) {
                    assembly.addOverride(base, caller);
                }
            }
        }
    }
    return std::move(assembly).finish();
}

void writeMetaCgFile(const CallGraph& graph, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        throw support::Error("cannot open for writing: " + path);
    }
    out << toMetaCgJson(graph).dump(true);
}

CallGraph readMetaCgFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw support::Error("cannot open for reading: " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromMetaCgJson(Json::parse(buffer.str()));
}

}  // namespace capi::cg
