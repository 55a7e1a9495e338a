// metacg — whole-program call-graph construction as a standalone tool
// (steps 3-4 of Fig. 2).
//
// In the real pipeline this runs over a compilation database; here the
// source model comes from one of the bundled application generators, so the
// file-based CaPI workflow (metacg_tool -> capi_tool -> DynCaPI) can be
// exercised end to end.
//
// Usage:
//   metacg_tool --app lulesh|openfoam|openfoam-exec --output graph.json
//               [--nodes N] [--symbols nm.txt]
#include <cstdio>
#include <fstream>
#include <string>

#include "apps/lulesh.hpp"
#include "apps/openfoam.hpp"
#include "binsim/compiler.hpp"
#include "binsim/nm.hpp"
#include "cg/metacg_builder.hpp"
#include "cg/metacg_json.hpp"

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: metacg_tool --app lulesh|openfoam|openfoam-exec "
                 "--output <graph.json> [--nodes N] [--symbols <nm.txt>]\n");
}

}  // namespace

int main(int argc, char** argv) {
    std::string app;
    std::string output;
    std::string symbolsPath;
    std::uint32_t nodes = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--app") app = next();
        else if (arg == "--output") output = next();
        else if (arg == "--symbols") symbolsPath = next();
        else if (arg == "--nodes") nodes = static_cast<std::uint32_t>(std::stoul(next()));
        else {
            usage();
            return 2;
        }
    }
    if (app.empty() || output.empty()) {
        usage();
        return 2;
    }

    try {
        capi::binsim::AppModel model;
        if (app == "lulesh") {
            capi::apps::LuleshParams params;
            if (nodes != 0) params.targetNodes = nodes;
            model = capi::apps::makeLulesh(params);
        } else if (app == "openfoam") {
            capi::apps::OpenFoamParams params;
            if (nodes != 0) params.targetNodes = nodes;
            model = capi::apps::makeOpenFoam(params);
        } else if (app == "openfoam-exec") {
            capi::apps::OpenFoamParams params =
                capi::apps::OpenFoamParams::executionScale();
            if (nodes != 0) params.targetNodes = nodes;
            model = capi::apps::makeOpenFoam(params);
        } else {
            usage();
            return 2;
        }

        capi::cg::MetaCgBuilder builder;
        capi::cg::CallGraph graph = builder.build(model.toSourceModel());
        capi::cg::writeMetaCgFile(graph, output);
        std::printf("metacg: %zu TUs -> %zu nodes, %zu edges (%zu virtual, "
                    "%zu pointer-resolved) -> %s\n",
                    builder.stats().translationUnits, graph.size(),
                    graph.edgeCount(), builder.stats().virtualEdges,
                    builder.stats().pointerEdgesResolved, output.c_str());

        if (!symbolsPath.empty()) {
            // Emit the nm dump of the compiled program for capi_tool's
            // inlining compensation.
            capi::binsim::CompileOptions copts;
            copts.xrayThreshold.instructionThreshold = 1;
            capi::binsim::CompiledProgram compiled =
                capi::binsim::compile(model, copts);
            std::ofstream out(symbolsPath);
            std::size_t count = 0;
            auto dump = [&](const capi::binsim::ObjectImage& image) {
                for (const capi::binsim::NmEntry& s : capi::binsim::nmDump(image)) {
                    out << s.name << "\n";
                    ++count;
                }
            };
            dump(compiled.executable());
            for (const capi::binsim::ObjectImage& dso : compiled.dsos()) {
                dump(dso);
            }
            std::printf("metacg: %zu symbols -> %s\n", count, symbolsPath.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "metacg_tool: %s\n", e.what());
        return 1;
    }
}
