// Ablation: CaPI static-aware selection vs. the profile-feedback baseline.
//
// The classic workflow (Sec. II-B) runs a *full* instrumentation once, feeds
// the profile to scorep-score, and excludes small frequently-called
// functions. CaPI instead selects from static structure. This bench compares
// the two on the LULESH model along both axes the paper cares about:
//   overhead  — instrumented events during the run,
//   coverage  — fraction of kernel (hot-path) wall time attributed,
// plus the cost of obtaining the configuration in the first place (the
// baseline needs a full profiling run; CaPI needs a CG analysis).
// A second ablation quantifies the inlining-compensation design choice.
#include <cstdio>

#include "adapt/controller.hpp"
#include "apps/lulesh.hpp"
#include "apps/specs.hpp"
#include "bench_util.hpp"
#include "binsim/execution_engine.hpp"
#include "binsim/process.hpp"
#include "dyncapi/dyncapi.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/scorep_score.hpp"
#include "select/selection_driver.hpp"
#include "support/timer.hpp"

namespace {

using namespace capi;

struct RunOutcome {
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    std::uint64_t hotVisits = 0;  ///< Visits of hot-path driver regions.
};

RunOutcome runWithIc(const bench::PreparedApp& app,
                     const select::InstrumentationConfig& ic) {
    binsim::Process process(app.compiled);
    dyncapi::DynCapi dyn(process);
    dyn.applyIc(ic);
    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);
    binsim::ExecutionEngine engine(process);
    binsim::RunStats stats = engine.run();

    RunOutcome outcome;
    outcome.events = stats.sledHits;
    outcome.wallSeconds = stats.wallSeconds;
    scorep::ProfileTree profile = measurement.mergedProfile();
    for (const char* hot :
         {"CalcHourglassControlForElems", "CalcForceForNodes", "EvalEOSForElems",
          "LagrangeNodal", "LagrangeElements"}) {
        outcome.hotVisits += profile.totalVisits(measurement.defineRegion(hot));
    }
    return outcome;
}

}  // namespace

int main() {
    std::printf("ABLATION: static-aware selection vs. profile-feedback filter\n");
    bench::printRule('=');
    bench::PreparedApp app = bench::prepare("lulesh", apps::makeLulesh());

    // --- Baseline: full run + scorep-score filter --------------------------
    select::InstrumentationConfig fullIc = adapt::surveyOfDefinedFunctions(app.graph);
    support::Timer baselineTimer;
    binsim::Process profileProcess(app.compiled);
    dyncapi::DynCapi profileDyn(profileProcess);
    profileDyn.patchAll();
    scorep::Measurement fullMeasurement;
    scorep::CygProfileAdapter fullAdapter(
        fullMeasurement,
        scorep::SymbolResolver::withSymbolInjection(profileProcess));
    profileDyn.attachCygHandler(fullAdapter);
    binsim::ExecutionEngine profileEngine(profileProcess);
    binsim::RunStats fullStats = profileEngine.run();
    scorep::ScoreResult score =
        scorep::scoreProfile(fullMeasurement.mergedProfile(), fullMeasurement);
    // Apply the suggested exclusions to the full IC.
    select::InstrumentationConfig scoredIc;
    for (const std::string& fn : fullIc.functions) {
        if (score.suggestedFilter.isIncluded(fn)) {
            scoredIc.addFunction(fn);
        }
    }
    double baselineSetupSeconds = baselineTimer.elapsedSec();

    // --- CaPI: kernels spec from static structure ---------------------------
    support::Timer capiTimer;
    select::SelectionReport kernels =
        bench::runPaperSelection(app, "kernels", apps::kernelsSpec());
    double capiSetupSeconds = capiTimer.elapsedSec();

    RunOutcome fullRun = runWithIc(app, fullIc);
    RunOutcome scoredRun = runWithIc(app, scoredIc);
    RunOutcome capiRun = runWithIc(app, kernels.ic);

    std::printf("%-22s %10s %12s %12s %10s\n", "configuration", "IC size",
                "events", "hot visits", "setup");
    bench::printRule();
    auto row = [&](const char* name, std::size_t size, const RunOutcome& o,
                   double setup) {
        std::printf("%-22s %10zu %12llu %12llu %9.3fs\n", name, size,
                    static_cast<unsigned long long>(o.events),
                    static_cast<unsigned long long>(o.hotVisits), setup);
    };
    row("full instrumentation", fullIc.size(), fullRun, 0.0);
    row("scorep-score filter", scoredIc.size(), scoredRun, baselineSetupSeconds);
    row("CaPI kernels spec", kernels.ic.size(), capiRun, capiSetupSeconds);
    bench::printRule();
    std::printf(
        "shape check: CaPI reaches the same hot-path coverage with far fewer\n"
        "events, and its setup needs no full-instrumentation profiling run\n"
        "(full run here: %.3fs, %llu events).\n",
        fullStats.wallSeconds, static_cast<unsigned long long>(fullStats.sledHits));

    // --- Inlining-compensation ablation -------------------------------------
    std::printf("\nABLATION: inlining compensation on/off (mpi spec)\n");
    bench::printRule();
    select::SelectionReport withComp =
        bench::runPaperSelection(app, "mpi", apps::mpiSpec());
    dyncapi::ProcessSymbolOracle oracle(app.compiled);
    spec::ModuleResolver resolver = apps::bundledResolver();
    select::SelectionOptions noCompOptions;
    noCompOptions.specText = apps::mpiSpec();
    noCompOptions.resolver = &resolver;
    noCompOptions.symbolOracle = &oracle;
    noCompOptions.applyInlineCompensation = false;
    select::SelectionReport withoutComp =
        select::runSelection(app.graph, noCompOptions);

    auto patchable = [&](const select::InstrumentationConfig& ic) {
        binsim::Process process(app.compiled);
        dyncapi::DynCapi dyn(process);
        dyncapi::InitStats stats = dyn.applyIc(ic);
        return stats;
    };
    dyncapi::InitStats on = patchable(withComp.ic);
    dyncapi::InitStats off = patchable(withoutComp.ic);
    std::printf("  with compensation:    %zu selected, %zu patched, %zu dead entries\n",
                withComp.ic.size(), on.patchedFunctions, on.requestedUnavailable);
    std::printf("  without compensation: %zu selected, %zu patched, %zu dead entries\n",
                withoutComp.ic.size(), off.patchedFunctions,
                off.requestedUnavailable);
    std::printf("  (dead entries are selected functions that cannot be patched —\n"
                "   inlined away with no sled; compensation eliminates them)\n");
    return 0;
}
