// DynCaPI: the runtime-adaptable instrumentation runtime (paper Sec. IV, V-C).
//
// DynCaPI sits between XRay and the measurement library. At program start it
//  1. determines the mapping between XRay function IDs and function names for
//     every registered object — nm symbol dumps are translated through the
//     loader's memory map and cross-checked against __xray_function_address;
//     hidden symbols cannot be resolved this way and are counted (Sec. VI-B);
//  2. patches exactly the sleds selected by the IC passed via the
//     environment (here: an InstrumentationConfig object or file), as one
//     transaction diffed against the live sled state;
//  3. installs an event handler forwarding entry/exit events to the chosen
//     backend: the generic __cyg_profile interface, Score-P, or TALP.
//
// Because patching is cheap, the IC can be swapped at any quiescent point —
// no recompilation, the headline capability of the paper. The static-ID
// extension (IC carries packed IDs) bypasses name resolution entirely and
// reaches hidden symbols, implementing the future-work idea from Sec. VI-B.
//
// Borrowed names. Resolution copies no symbol name: the name tables hold
// std::string_views into the process's immutable compiled image, which the
// Process keeps alive. A DynCapi must therefore not outlive the Process it
// was built on (it already holds a pointer to it).
//
// Object-id refresh. The tables are keyed by XRay object id, and
// dlclose/dlopen can move a DSO to another id (a reopened DSO takes the
// first free slot). Each object image is resolved once, the first time it
// is registered; the id-keyed tables are re-pointed at those resolutions
// whenever Process::loadGeneration() has moved. That check runs on the
// control-plane calls — applyPolicy, applyPolicyDelta, applyIc, patchAll,
// resolveName, the two counts and handler attach — never on the
// per-event addressOf/nameOf path. This is exact because a reopened DSO's
// sleds stay NOP until the next apply, so no event can carry one of its
// new ids before the tables follow it. Like every control-plane call,
// resolveName and the counts must not run concurrently with each other or
// with a dlopen/dlclose.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "binsim/process.hpp"
#include "select/ic.hpp"
#include "xraysim/xray_runtime.hpp"

namespace capi::scorep {
class CygProfileAdapter;
class Measurement;
}
namespace capi::talp {
class TalpRuntime;
}

namespace capi::dyncapi {

struct InitStats {
    double totalSeconds = 0.0;
    double symbolResolutionSeconds = 0.0;
    double patchSeconds = 0.0;
    std::size_t objectsScanned = 0;
    std::size_t sleddedFunctions = 0;        ///< Functions with sleds, all objects.
    std::size_t unresolvableFunctions = 0;   ///< Sledded but name unknown (hidden).
    std::size_t requestedFunctions = 0;      ///< IC entries.
    std::size_t patchedFunctions = 0;
    std::size_t requestedUnavailable = 0;    ///< In IC but no patchable sled
                                             ///< (inlined away or filtered).
    std::uint64_t pagesTouched = 0;          ///< Code pages made writable.
    std::size_t sampledFunctions = 0;        ///< Patched at the Sampled tier.
};

/// Result of a policy apply as the diff it ran (applyPolicyDelta).
struct DeltaStats {
    double patchSeconds = 0.0;
    std::size_t requestedFunctions = 0;   ///< IC entries.
    std::size_t requestedUnavailable = 0; ///< No live, patchable sled.
    std::size_t functionsPatched = 0;     ///< Newly instrumented.
    std::size_t functionsUnpatched = 0;   ///< Dropped from the IC.
    std::size_t functionsUnchanged = 0;   ///< Already in the requested state.
    std::uint64_t pagesTouched = 0;       ///< Code pages made writable.
    std::size_t functionsPromoted = 0;    ///< Sampled -> Full, sleds untouched.
    std::size_t functionsDemoted = 0;     ///< Full -> Sampled, sleds untouched.
    std::size_t sampledFunctions = 0;     ///< Live at the Sampled tier after.
};

class DynCapi {
public:
    /// Builds the fid<->name mapping for every object registered with the
    /// process's XRay runtime (this is the symbol-resolution phase of Tinit).
    /// The process must outlive this object: names are borrowed from it.
    explicit DynCapi(binsim::Process& process);

    ~DynCapi();
    DynCapi(const DynCapi&) = delete;
    DynCapi& operator=(const DynCapi&) = delete;

    // --- patching ---------------------------------------------------------
    /// THE configuration entry point. Diffs the requested (function, tier)
    /// set against the runtime's *actual* sled + tier state and flips only
    /// the difference in one XRayRuntime::patchDeltaTiered transaction;
    /// tier-only transitions (Full <-> Sampled) retag without touching a
    /// code page. Then syncs the attached measurement's sampling gates. Sound
    /// across dlopen/dlclose because the current set is read from the sleds,
    /// not from a cached previous policy. Safe to call repeatedly at
    /// quiescent points (the runtime-adaptable workflow). Uses staticIds
    /// entries when present, names otherwise.
    ///
    /// Failure contract: the transaction is all-or-nothing. If it fails, the
    /// rolled-back xray::PatchError propagates out of this call *before*
    /// currentPolicy_ or the measurement gates are updated — a failed apply
    /// commits nothing, and currentPolicy() still names the live (last
    /// successfully applied) policy. The adaptive controller relies on
    /// exactly this to retry or revert (see adapt::Controller).
    InitStats applyPolicy(const select::InstrumentationPolicy& policy);

    /// applyPolicy, reporting the diff it ran instead of the Tinit totals
    /// (what the adaptive controller's epoch loop logs, see src/adapt/).
    DeltaStats applyPolicyDelta(const select::InstrumentationPolicy& policy);

    /// Binary-set overload: the Full|Off degenerate case.
    InitStats applyIc(const select::InstrumentationConfig& ic);

    /// The policy most recently applied (gate specs are re-synced from it
    /// when a measurement backend attaches). Patch state itself is always
    /// read back from the sleds, never from this cache.
    const select::InstrumentationPolicy& currentPolicy() const {
        return currentPolicy_;
    }

    /// Patches every sled (the `xray full` configuration) / unpatches
    /// every sled, through the non-transactional whole-object path. Both
    /// reset currentPolicy() to empty and clear the sampling gates.
    InitStats patchAll();
    void unpatchAll();

    // --- name resolution ----------------------------------------------------
    /// Packed id of the first visible symbol of that name, objects taken in
    /// the order executable, then DSOs by index. Follows the live object ids.
    std::optional<xray::PackedId> resolveName(const std::string& name) const;
    /// Name for a packed id; nullopt for hidden symbols. Event path: reads
    /// the tables as of the last control-plane call (see the header note).
    std::optional<std::string> nameOf(xray::PackedId id) const;
    /// Runtime entry-sled address for a packed id (0 if unknown). Event
    /// path: two array reads, no refresh check.
    std::uint64_t addressOf(xray::PackedId id) const;

    /// Sledded functions of the registered objects whose name nm cannot see.
    std::size_t unresolvableFunctionCount() const;
    /// Functions with sleds over all registered objects.
    std::size_t sleddedFunctionCount() const;
    /// Time spent resolving object images so far.
    double symbolResolutionSeconds() const { return resolutionSeconds_; }

    // --- measurement backends ----------------------------------------------
    /// Default GCC -finstrument-functions-compatible interface.
    void attachCygHandler(scorep::CygProfileAdapter& adapter);
    /// Score-P backend (same generic interface; pair it with a resolver
    /// built via symbol injection to cover DSOs).
    void attachScorePHandler(scorep::CygProfileAdapter& adapter) {
        attachCygHandler(adapter);
    }
    /// TALP backend: entry/exit drive monitoring-region start/stop.
    void attachTalpHandler(talp::TalpRuntime& talp);
    void detachHandler();

    /// TALP-backend failure counters (regions that could not register
    /// because MPI was not initialized yet; Sec. VI-B).
    std::uint64_t talpFailedRegistrations() const;

    binsim::Process& process() { return *process_; }

private:
    struct TalpBackend;
    struct CygBackend;

    /// One object image's resolution, made the first time the image is
    /// registered and reused under every object id it gets later: a DSO
    /// keeps its load base across dlclose/dlopen, so neither its runtime
    /// addresses nor its names change.
    struct ImageResolution {
        bool resolved = false;
        /// Per local function id: runtime entry-sled address, 0 = no sleds.
        std::vector<std::uint64_t> addresses;
        /// Per local function id: the name, viewing the compiled image; a
        /// null view (data() == nullptr) marks an unresolvable function.
        std::vector<std::string_view> names;
        std::size_t sledded = 0;
        std::size_t unresolvable = 0;
    };

    /// Merge join of the image's address-sorted symbol table, translated
    /// by load base, against the object's function ids sorted by
    /// __xray_function_address.
    void resolveImage(ImageResolution& out, int dsoIndex,
                      xray::ObjectId objectId) const;
    /// Re-keys the tables by live object id when the process's load
    /// generation moved since the last call.
    void syncObjectIds() const;
    void mapObjects() const;
    std::optional<xray::PackedId> lookupName(std::string_view name) const;
    /// The one apply routine behind applyPolicy/applyPolicyDelta: resolve,
    /// diff against patchedFunctionTiers(), one transaction, then commit
    /// currentPolicy_ and the gates.
    DeltaStats applyDiff(const select::InstrumentationPolicy& policy);
    std::optional<xray::PackedId> resolvePolicyEntry(
        const select::InstrumentationPolicy& policy, const std::string& name) const;
    /// Rewrites the attached measurement's sampling gates to match
    /// `policy` (no-op without a cyg/Score-P backend; TALP regions carry no
    /// gate, their Sampled tier measures like Full).
    void syncGates(const select::InstrumentationPolicy& policy);

    binsim::Process* process_;
    // Resolution state. Mutable because const lookups refresh it too
    // (syncObjectIds); it only changes after a dlopen/dlclose, at a
    // control-plane call, never from the event handlers.
    /// Slot 0 = executable, d + 1 = DSO d.
    mutable std::vector<ImageResolution> images_;
    mutable std::uint64_t loadGeneration_ = 0;
    /// addressByObject_[objectId][localFid] = runtime entry address (0 = none).
    mutable std::vector<std::span<const std::uint64_t>> addressByObject_;
    /// nameByObject_[objectId][localFid]; empty = unresolvable.
    mutable std::vector<std::span<const std::string_view>> nameByObject_;
    mutable std::unordered_map<std::string_view, xray::PackedId> packedByName_;
    mutable std::size_t unresolvable_ = 0;
    mutable std::size_t sledded_ = 0;
    mutable std::size_t objectsScanned_ = 0;
    mutable double resolutionSeconds_ = 0.0;

    std::unique_ptr<CygBackend> cygBackend_;
    std::unique_ptr<TalpBackend> talpBackend_;

    select::InstrumentationPolicy currentPolicy_;
};

}  // namespace capi::dyncapi
