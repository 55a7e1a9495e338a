// Reference implementation of a full policy apply, kept as the test oracle
// for DynCapi::applyPolicy/applyPolicyDelta. Those diff the requested
// (function, tier) set against the live sled state and flip the difference
// in one patch transaction; this oracle does no diffing at all. It unpatches
// every sled, patches each resolvable entry on its own, then retags the
// Sampled ones in one zero-page pass, so agreeing with it checks the diff.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "binsim/process.hpp"
#include "dyncapi/dyncapi.hpp"
#include "select/ic.hpp"
#include "xraysim/xray_runtime.hpp"

namespace capi::reference {

struct FullApplyStats {
    std::size_t patchedFunctions = 0;
    std::size_t sampledFunctions = 0;
    std::size_t requestedUnavailable = 0;
    std::uint64_t pagesTouched = 0;  ///< Code pages made writable.
};

/// Applies `policy` to `process` by unpatching everything and patching each
/// entry. Names resolve through `dyn` (a static id wins, as in DynCapi); the
/// DynCapi's cached policy and sampling gates are not touched.
inline FullApplyStats applyByFullRepatch(binsim::Process& process,
                                         const dyncapi::DynCapi& dyn,
                                         const select::InstrumentationPolicy& policy) {
    FullApplyStats stats;
    xray::XRayRuntime& xr = process.xray();
    const std::uint64_t pagesBefore = process.memory().pagesMadeWritable();
    xr.unpatchAll();
    std::vector<xray::XRayRuntime::TieredFlip> retier;
    for (std::size_t i = 0; i < policy.functions.size(); ++i) {
        const std::string& name = policy.functions[i];
        auto staticIt = policy.staticIds.find(name);
        std::optional<xray::PackedId> pid =
            staticIt != policy.staticIds.end()
                ? std::optional<xray::PackedId>(staticIt->second)
                : dyn.resolveName(name);
        if (pid.has_value() && xr.patchFunction(*pid)) {
            ++stats.patchedFunctions;
            if (policy.regions[i].tier == select::Tier::Sampled) {
                ++stats.sampledFunctions;
                retier.push_back({*pid, xray::XRayRuntime::kSampledTier});
            }
        } else {
            ++stats.requestedUnavailable;
        }
    }
    xr.patchDeltaTiered({}, {}, retier);
    stats.pagesTouched = process.memory().pagesMadeWritable() - pagesBefore;
    return stats;
}

}  // namespace capi::reference
