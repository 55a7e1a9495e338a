#include "binsim/execution_engine.hpp"

#include "support/error.hpp"
#include "support/timer.hpp"

namespace capi::binsim {

namespace {

/// Real compute: a dependency chain of floating-point operations the
/// optimizer cannot elide. This is what makes instrumentation overhead show
/// up in wall-clock measurements.
void spinWork(std::uint32_t units) {
    volatile double sink = 1.0;
    double acc = sink;
    for (std::uint32_t i = 0; i < units; ++i) {
        acc = acc * 1.0000000371 + 1e-9;
    }
    sink = acc;
}

thread_local RankState* g_currentRank = nullptr;

}  // namespace

RankState* currentRankState() { return g_currentRank; }

ExecutionEngine::ExecutionEngine(Process& process, EngineOptions options)
    : process_(&process), options_(options) {}

void ExecutionEngine::call(std::uint32_t modelIndex, RankState& state) {
    if (++state.dynamicCalls > options_.maxDynamicCalls) {
        throw support::Error("execution engine: dynamic call budget exceeded (" +
                             std::to_string(options_.maxDynamicCalls) + ")");
    }

    const AppFunction& fn = process_->program().model().functions[modelIndex];
    const ExecInfo& info = process_->execInfo()[modelIndex];
    xray::XRayRuntime& xr = process_->xray();

    if (info.hasSleds && xr.invokeSled(info.entryAddress)) {
        ++state.sledHits;
    }

    if (fn.workUnits != 0) {
        auto units = static_cast<std::uint32_t>(
            static_cast<double>(fn.workUnits) * options_.workScale);
        spinWork(units);
    }
    if (fn.workVirtualNs != 0.0) {
        double skew = 1.0;
        if (fn.imbalanceSlope != 0.0 && state.worldSize > 1) {
            skew += fn.imbalanceSlope * static_cast<double>(state.rank) /
                    static_cast<double>(state.worldSize - 1);
        }
        state.virtualNs += fn.workVirtualNs * skew;
    }

    if (fn.mpiOp != MpiOp::None && mpiPort_ != nullptr) {
        mpiPort_->execute(fn.mpiOp, state);
    }

    for (const AppCallSite& site : fn.calls) {
        for (std::uint32_t i = 0; i < site.count; ++i) {
            call(site.callee, state);
        }
    }

    if (info.hasSleds && xr.invokeSled(info.exitAddress)) {
        ++state.sledHits;
    }
}

RunStats ExecutionEngine::run(int rank, int worldSize) {
    return runFunction(process_->program().model().entry, rank, worldSize);
}

RunStats ExecutionEngine::runFunction(std::uint32_t modelIndex, int rank,
                                      int worldSize) {
    RankState state;
    state.rank = rank;
    state.worldSize = worldSize;
    RankState* previous = g_currentRank;
    g_currentRank = &state;
    support::Timer timer;
    try {
        call(modelIndex, state);
    } catch (...) {
        g_currentRank = previous;
        throw;
    }
    g_currentRank = previous;
    RunStats stats;
    stats.dynamicCalls = state.dynamicCalls;
    stats.sledHits = state.sledHits;
    stats.virtualNs = state.virtualNs;
    stats.wallSeconds = timer.elapsedSec();
    return stats;
}

}  // namespace capi::binsim
