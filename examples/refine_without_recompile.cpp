// The paper's headline scenario (Sec. VII-A): iterative IC refinement.
//
// With static instrumentation every IC adjustment forces a full rebuild —
// ~50 minutes for OpenFOAM on the paper's system. With XRay-based dynamic
// instrumentation the same refinement is a re-patch at program start,
// costing milliseconds. This example walks a realistic refinement session:
//
//   round 1: broad mpi selection            -> too many regions, high cost
//   round 2: switch to kernels              -> better, still noisy helpers
//   round 3: kernels + coarse               -> the IC the user keeps
//
// and compares the measured re-patch times with the modelled rebuild times.
#include <cstdio>

#include "apps/openfoam.hpp"
#include "apps/specs.hpp"
#include "binsim/execution_engine.hpp"
#include "cg/metacg_builder.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "select/selection_driver.hpp"

using namespace capi;

int main() {
    apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
    params.targetNodes = 4000;
    params.iterations = 5;
    binsim::AppModel model = apps::makeOpenFoam(params);

    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    binsim::CompiledProgram compiled = binsim::compile(model, copts);
    dyncapi::ProcessSymbolOracle oracle(compiled);
    spec::ModuleResolver resolver = apps::bundledResolver();

    std::printf("one instrumented build: %zu TUs, modelled full rebuild %.0fs\n\n",
                static_cast<std::size_t>(compiled.fullRebuildSeconds() /
                                         copts.secondsPerTranslationUnit),
                compiled.fullRebuildSeconds());

    binsim::Process process(compiled);
    dyncapi::DynCapi dyn(process);

    struct Round {
        const char* label;
        std::string spec;
    };
    const Round rounds[] = {
        {"round 1: mpi (broad survey)", apps::mpiSpec()},
        {"round 2: kernels (focus on compute)", apps::kernelsSpec()},
        {"round 3: kernels coarse (final IC)", apps::kernelsCoarseSpec()},
    };

    double totalRepatch = 0.0;
    for (const Round& round : rounds) {
        select::SelectionOptions options;
        options.specText = round.spec;
        options.specName = round.label;
        options.resolver = &resolver;
        options.symbolOracle = &oracle;
        select::SelectionReport report = select::runSelection(graph, options);

        dyncapi::InitStats init = dyn.applyIc(report.ic);
        totalRepatch += init.totalSeconds;

        binsim::ExecutionEngine engine(process);
        binsim::RunStats stats = engine.run();
        std::printf("%-38s IC=%6zu fns  re-patch %7.2f ms  run: %llu events\n",
                    round.label, report.ic.size(), init.totalSeconds * 1e3,
                    static_cast<unsigned long long>(stats.sledHits));
    }

    std::printf("\n3 refinements via re-patching: %.1f ms total\n",
                totalRepatch * 1e3);
    std::printf("3 refinements via recompilation (static workflow): %.0f s "
                "(modelled, paper: ~50 min each for OpenFOAM)\n",
                3 * compiled.fullRebuildSeconds());
    std::printf("turnaround improvement: ~%.0fx\n",
                3 * compiled.fullRebuildSeconds() / (totalRepatch > 0 ? totalRepatch : 1));
    return 0;
}
