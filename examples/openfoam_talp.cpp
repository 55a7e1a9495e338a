// Coarse TALP region instrumentation of the OpenFOAM/icoFoam model.
//
// The paper's TALP use case: instead of a full call profile, collect POP
// parallel-efficiency metrics for a handful of coarse regions. The
// `kernels coarse` spec collapses the solver wrapper chains (Listing 3) so
// the report stays readable, and DynCaPI registers the regions dynamically —
// no source-code markers.
#include <cstdio>

#include "apps/openfoam.hpp"
#include "apps/specs.hpp"
#include "binsim/execution_engine.hpp"
#include "cg/metacg_builder.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/mpi_port.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "mpisim/mpi_world.hpp"
#include "select/selection_driver.hpp"
#include "talpsim/talp.hpp"

using namespace capi;

int main() {
    apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
    params.targetNodes = 3000;
    params.iterations = 15;
    binsim::AppModel model = apps::makeOpenFoam(params);

    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    binsim::CompiledProgram compiled = binsim::compile(model, copts);
    dyncapi::ProcessSymbolOracle oracle(compiled);
    std::printf("icoFoam model: %zu CG nodes, %zu DSOs\n", graph.size(),
                compiled.dsos().size());

    spec::ModuleResolver resolver = apps::bundledResolver();
    select::SelectionOptions options;
    options.specText = apps::kernelsCoarseSpec();
    options.specName = "kernels coarse";
    options.resolver = &resolver;
    options.symbolOracle = &oracle;
    select::SelectionReport report = select::runSelection(graph, options);
    std::printf("kernels-coarse IC: %zu regions (pre-coarse path set would be "
                "far larger)\n",
                report.ic.size());
    // The sole-caller wrappers from Listing 3 must be gone...
    std::printf("  solveSegregatedOrCoupled selected: %s (coarse removed it)\n",
                report.ic.contains("Foam::fvMatrix<double>::solveSegregatedOrCoupled")
                    ? "yes"
                    : "no");
    // ...while the kernels' regions remain.
    std::printf("  Amul selected: %s\n\n",
                report.ic.contains("Foam::lduMatrix::Amul") ? "yes" : "no");

    binsim::Process process(compiled);
    dyncapi::DynCapi dyn(process);
    dyn.applyIc(report.ic);

    mpi::MpiWorld world(4);
    talp::TalpRuntime talp(world);
    dyn.attachTalpHandler(talp);
    dyncapi::WorldMpiPort port(world);

    mpi::runRanks(world, [&](int rank) {
        binsim::ExecutionEngine engine(process);
        engine.setMpiPort(&port);
        engine.run(rank, world.worldSize());
    });

    // End-of-run TALP summary (per-region POP metrics).
    std::printf("%s\n", talp.report().c_str());

    // The runtime query API an external resource manager would use.
    if (auto amul = talp.metrics("Foam::lduMatrix::Amul")) {
        std::printf("runtime query: Amul parallel efficiency %.3f "
                    "(LB %.3f x Comm %.3f) over %llu visits\n",
                    amul->parallelEfficiency, amul->loadBalance,
                    amul->communicationEfficiency,
                    static_cast<unsigned long long>(amul->visits));
    }
    return 0;
}
