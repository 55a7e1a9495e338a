// DSO registration lifecycle: the xray-dso runtime in action.
//
// Demonstrates the packed-ID scheme (Fig. 4) and the registration API the
// paper added to XRay: shared objects register their sled tables when
// loaded, get an 8-bit object ID, can be patched selectively, and deregister
// cleanly on dlclose — including ID reuse for later loads. The second half
// mirrors the same lifecycle into the whole-program call graph through the
// mutation journal (dyncapi::DsoGraphBinding), so re-selection after the
// dlclose/dlopen is incremental: a patched CSR snapshot and a cache that
// keeps every stage the plugin never touched.
#include <cstdio>

#include "binsim/execution_engine.hpp"
#include "binsim/process.hpp"
#include "cg/metacg_builder.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/graph_sync.hpp"
#include "dyncapi/refinement.hpp"
#include "xraysim/packed_id.hpp"

using namespace capi;

namespace {

binsim::AppModel pluginApp() {
    binsim::AppModel model;
    model.name = "host";
    model.dsos.push_back({"libplugin_a.so"});
    model.dsos.push_back({"libplugin_b.so"});
    auto add = [&](const char* name, int dso) {
        binsim::AppFunction fn;
        fn.name = name;
        fn.unit = std::string(name) + ".cpp";
        fn.dso = dso;
        fn.metrics.numInstructions = 150;
        fn.flags.hasBody = true;
        fn.workUnits = 5;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };
    std::uint32_t mainFn = add("main", -1);
    std::uint32_t runA = add("plugin_a_run", 0);
    std::uint32_t runB = add("plugin_b_run", 1);
    model.entry = mainFn;
    model.functions[mainFn].calls.push_back({runA, 3});
    model.functions[mainFn].calls.push_back({runB, 2});
    return model;
}

}  // namespace

int main() {
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    binsim::Process process(binsim::compile(pluginApp(), copts));
    xray::XRayRuntime& xr = process.xray();

    std::printf("loaded objects: %zu (executable + 2 plugins)\n",
                xr.registeredObjectCount());
    for (const binsim::MapEntry& map : process.memoryMap()) {
        std::printf("  %-18s @ 0x%llx (%llu bytes)%s\n", map.object.c_str(),
                    static_cast<unsigned long long>(map.loadBase),
                    static_cast<unsigned long long>(map.sizeBytes),
                    map.isMainExecutable ? "  [exe, object id 0]" : "");
    }

    dyncapi::DynCapi dyn(process);
    auto pidA = dyn.resolveName("plugin_a_run");
    auto pidB = dyn.resolveName("plugin_b_run");
    std::printf("\npacked IDs: plugin_a_run = obj %u fn %u, plugin_b_run = obj %u fn %u\n",
                xray::objectIdOf(*pidA), xray::functionIdOf(*pidA),
                xray::objectIdOf(*pidB), xray::functionIdOf(*pidB));

    // Patch only plugin A and count events.
    xr.patchFunction(*pidA);
    static unsigned events = 0;
    xr.setHandler([](void*, xray::PackedId, xray::XRayEntryType) { ++events; },
                  nullptr);
    binsim::ExecutionEngine engine(process);
    engine.run();
    std::printf("patched plugin A only: %u events (3 calls x entry+exit)\n", events);

    // dlclose plugin A: its sleds are unpatched, object id 1 freed.
    process.dlcloseDso(0);
    std::printf("\ndlclose(libplugin_a.so): registered objects now %zu\n",
                xr.registeredObjectCount());
    events = 0;
    engine.run();
    std::printf("run after dlclose: %u events (plugin A silent)\n", events);

    // dlopen again: the object re-registers and can be re-patched.
    process.dlopenDso(0);
    auto pidA2 = dyn.resolveName("plugin_a_run");  // follows the new object id
    xr.patchFunction(*pidA2);
    events = 0;
    engine.run();
    std::printf("\ndlopen + re-patch: %u events again (object id %u reused)\n",
                events, xray::objectIdOf(*pidA2));

    // --- the graph side of the same lifecycle ------------------------------
    // Selection sees the plugin come and go through journaled graph deltas
    // instead of a rebuilt graph: each re-selection patches the CSR snapshot
    // and re-evaluates only the stages whose read footprint the plugin
    // actually intersects.
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(pluginApp().toSourceModel());
    dyncapi::RefinementSession session(graph);
    dyncapi::DsoGraphBinding pluginA(graph, {"plugin_a_run"});
    const char* spec = "onCallPathFrom(byName(\"plugin*\", defined(%%)))";

    cg::CsrView::RegistryStats before = cg::CsrView::registryStats();
    std::size_t full = session.select(spec, "plugins").selectedFinal;
    pluginA.unload(graph);  // dlclose, journaled as a bulk removal.
    std::size_t without = session.select(spec, "plugins").selectedFinal;
    pluginA.reload(graph);  // dlopen, journaled re-add of nodes + edges.
    select::SelectionReport again = session.select(spec, "plugins");
    cg::CsrView::RegistryStats after = cg::CsrView::registryStats();
    std::printf("\ngraph mirror: %zu plugin functions selected -> %zu after "
                "dlclose -> %zu after dlopen (%llu of %llu CSR snapshots "
                "patched, not rebuilt)\n",
                full, without, again.selectedFinal,
                static_cast<unsigned long long>(after.patchBuilds -
                                                before.patchBuilds),
                static_cast<unsigned long long>(
                    after.patchBuilds + after.fullBuilds -
                    before.patchBuilds - before.fullBuilds));
    return 0;
}
