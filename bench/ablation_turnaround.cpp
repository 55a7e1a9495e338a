// Ablation for Sec. VII-A: refinement turnaround, static vs. dynamic.
//
// Measures the actual re-patch time (DynCaPI applyIc) for each evaluation IC
// on both applications and compares it with the modelled recompilation cost
// of the static workflow (per-TU build cost; OpenFOAM's full rebuild is
// ~50 min on the paper's system).
#include <cstdio>

#include "apps/lulesh.hpp"
#include "apps/openfoam.hpp"
#include "bench_util.hpp"
#include "binsim/process.hpp"
#include "dyncapi/dyncapi.hpp"

namespace {

using namespace capi;

void runApp(const bench::PreparedApp& app) {
    binsim::Process process(app.compiled);
    dyncapi::DynCapi dyn(process);
    std::printf("%s: modelled full rebuild %.0fs (%.1f min)\n", app.name.c_str(),
                app.compiled.fullRebuildSeconds(),
                app.compiled.fullRebuildSeconds() / 60.0);
    for (const apps::NamedSpec& spec : apps::evaluationSpecs()) {
        select::SelectionReport report =
            bench::runPaperSelection(app, spec.name, spec.text);
        dyncapi::InitStats init = dyn.applyIc(report.ic);
        double speedup = app.compiled.fullRebuildSeconds() /
                         (init.totalSeconds > 0 ? init.totalSeconds : 1e-9);
        std::printf("  %-16s IC=%6zu  re-patch %9.3f ms  vs rebuild: %10.0fx\n",
                    spec.name.c_str(), report.ic.size(), init.totalSeconds * 1e3,
                    speedup);
    }
}

}  // namespace

int main() {
    std::printf("ABLATION: IC refinement turnaround (Sec. VII-A)\n");
    bench::printRule('=');
    {
        bench::PreparedApp lulesh = bench::prepare("lulesh", apps::makeLulesh());
        runApp(lulesh);
    }
    {
        bench::PreparedApp openfoam = bench::prepare(
            "openfoam", apps::makeOpenFoam(apps::OpenFoamParams::executionScale()));
        runApp(openfoam);
    }
    bench::printRule('=');
    std::printf("paper: OpenFOAM full recompilation ~50 min per refinement;\n"
                "dynamic patching adds seconds at startup even for large apps.\n");
    return 0;
}
