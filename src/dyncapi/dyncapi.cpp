#include "dyncapi/dyncapi.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "binsim/execution_engine.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "support/timer.hpp"
#include "talpsim/talp.hpp"

namespace capi::dyncapi {

// ---------------------------------------------------------------- backends --

/// Forwards XRay events to __cyg_profile_func_enter/exit with the function's
/// address — the generic interface Score-P uses under Clang (Sec. V-C1).
struct DynCapi::CygBackend {
    DynCapi* owner = nullptr;
    scorep::CygProfileAdapter* adapter = nullptr;

    static void handle(void* context, xray::PackedId id, xray::XRayEntryType type) {
        auto* self = static_cast<CygBackend*>(context);
        std::uint64_t address = self->owner->addressOf(id);
        switch (type) {
            case xray::XRayEntryType::Entry:
                self->adapter->funcEnter(address, 0);
                break;
            case xray::XRayEntryType::Exit:
            case xray::XRayEntryType::TailExit:
                self->adapter->funcExit(address, 0);
                break;
        }
    }
};

/// Forwards XRay events to TALP monitoring regions (Sec. V-C2): a region map
/// stores the handle per function; regions are registered lazily on first
/// entry and retried while unregistered (registration fails before MPI_Init).
struct DynCapi::TalpBackend {
    DynCapi* owner = nullptr;
    talp::TalpRuntime* talp = nullptr;

    struct RegionSlot {
        talp::MonitorHandle handle = talp::MonitorHandle::invalid();
    };
    std::mutex mutex;
    std::unordered_map<xray::PackedId, RegionSlot> regions;
    std::uint64_t failedRegistrations = 0;

    static void handle(void* context, xray::PackedId id, xray::XRayEntryType type) {
        auto* self = static_cast<TalpBackend*>(context);
        binsim::RankState* rank = binsim::currentRankState();
        if (rank == nullptr) {
            return;  // Event outside a simulated rank (e.g. startup code).
        }
        if (type == xray::XRayEntryType::Entry) {
            talp::MonitorHandle handle = self->handleFor(id, rank->rank);
            if (handle.valid()) {
                self->talp->regionStart(handle, rank->rank, rank->virtualNs);
            }
        } else {
            talp::MonitorHandle handle;
            {
                std::lock_guard<std::mutex> lock(self->mutex);
                auto it = self->regions.find(id);
                if (it == self->regions.end()) {
                    return;
                }
                handle = it->second.handle;
            }
            if (handle.valid()) {
                self->talp->regionStop(handle, rank->rank, rank->virtualNs);
            }
        }
    }

    talp::MonitorHandle handleFor(xray::PackedId id, int rank) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto it = regions.find(id);
            if (it != regions.end() && it->second.handle.valid()) {
                return it->second.handle;
            }
        }
        // Register (or retry) outside the map lock; TALP locks internally.
        std::optional<std::string> name = owner->nameOf(id);
        if (!name.has_value()) {
            return talp::MonitorHandle::invalid();
        }
        talp::MonitorHandle handle = talp->regionRegister(*name, rank);
        std::lock_guard<std::mutex> lock(mutex);
        RegionSlot& slot = regions[id];
        if (!handle.valid()) {
            if (!slot.handle.valid()) {
                ++failedRegistrations;
            }
            return slot.handle;
        }
        slot.handle = handle;
        return handle;
    }
};

// ------------------------------------------------------------------ DynCapi --

DynCapi::DynCapi(binsim::Process& process)
    : process_(&process), images_(process.program().dsos().size() + 1) {
    mapObjects();
}

DynCapi::~DynCapi() { detachHandler(); }

void DynCapi::resolveImage(ImageResolution& out, int dsoIndex,
                           xray::ObjectId objectId) const {
    out.resolved = true;
    out.addresses = process_->xray().functionAddresses(objectId);
    out.names.assign(out.addresses.size(), std::string_view());

    // Function ids by runtime address. The compiler hands ids out in layout
    // order, so the sort is normally skipped.
    std::vector<std::uint32_t> order(out.addresses.size());
    std::iota(order.begin(), order.end(), 0u);
    auto byAddress = [&](std::uint32_t a, std::uint32_t b) {
        return out.addresses[a] < out.addresses[b];
    };
    if (!std::is_sorted(order.begin(), order.end(), byAddress)) {
        std::stable_sort(order.begin(), order.end(), byAddress);
    }

    // The nm view of the object — visible symbols at link addresses shifted
    // by the load base — walked in step with the ids. The first visible
    // symbol at an address names it.
    const binsim::ObjectImage& image = process_->objectImage(dsoIndex);
    const std::vector<binsim::Symbol>& symbols = image.symbols;
    const std::uint64_t delta = process_->loadBase(dsoIndex) - image.linkBase;
    std::size_t next = 0;
    for (std::uint32_t fid : order) {
        const std::uint64_t address = out.addresses[fid];
        if (address == 0) {
            continue;
        }
        ++out.sledded;
        while (next < symbols.size() && symbols[next].address + delta < address) {
            ++next;
        }
        std::size_t match = next;
        while (match < symbols.size() && symbols[match].address + delta == address &&
               symbols[match].hidden) {
            ++match;
        }
        if (match < symbols.size() && symbols[match].address + delta == address) {
            out.names[fid] = symbols[match].name;
        } else {
            ++out.unresolvable;  // Hidden symbol: nm cannot see it.
        }
    }
}

void DynCapi::syncObjectIds() const {
    if (loadGeneration_ != process_->loadGeneration()) {
        mapObjects();
    }
}

void DynCapi::mapObjects() const {
    support::Timer timer;
    loadGeneration_ = process_->loadGeneration();
    addressByObject_.assign(xray::kMaxObjectId + 1, {});
    nameByObject_.assign(xray::kMaxObjectId + 1, {});
    unresolvable_ = 0;
    sledded_ = 0;
    objectsScanned_ = 0;

    // Registered objects in name-precedence order: the executable, then
    // every DSO by index, each under its current XRay object id.
    xray::XRayRuntime& xr = process_->xray();
    std::vector<std::pair<const ImageResolution*, xray::ObjectId>> live;
    std::size_t names = 0;
    for (std::size_t slot = 0; slot < images_.size(); ++slot) {
        const int dsoIndex = static_cast<int>(slot) - 1;
        std::optional<xray::ObjectId> id = process_->xrayObjectId(dsoIndex);
        if (!id.has_value() || !xr.objectRegistered(*id)) {
            continue;
        }
        ImageResolution& image = images_[slot];
        if (!image.resolved) {
            resolveImage(image, dsoIndex, *id);
        }
        ++objectsScanned_;
        sledded_ += image.sledded;
        unresolvable_ += image.unresolvable;
        names += image.sledded - image.unresolvable;
        addressByObject_[*id] = image.addresses;
        nameByObject_[*id] = image.names;
        live.emplace_back(&image, *id);
    }

    packedByName_.clear();
    packedByName_.reserve(names);
    for (const auto& [image, objectId] : live) {
        for (std::uint32_t fid = 0; fid < image->names.size(); ++fid) {
            if (image->names[fid].data() != nullptr) {
                packedByName_.emplace(image->names[fid], xray::packId(objectId, fid));
            }
        }
    }

    // The TALP backend caches region handles by packed id; ids that moved
    // now name other functions.
    if (talpBackend_ != nullptr) {
        std::lock_guard<std::mutex> lock(talpBackend_->mutex);
        talpBackend_->regions.clear();
    }
    resolutionSeconds_ += timer.elapsedSec();
}

std::optional<xray::PackedId> DynCapi::lookupName(std::string_view name) const {
    auto it = packedByName_.find(name);
    if (it == packedByName_.end()) {
        return std::nullopt;
    }
    return it->second;
}

std::optional<xray::PackedId> DynCapi::resolveName(const std::string& name) const {
    syncObjectIds();
    return lookupName(name);
}

std::size_t DynCapi::unresolvableFunctionCount() const {
    syncObjectIds();
    return unresolvable_;
}

std::size_t DynCapi::sleddedFunctionCount() const {
    syncObjectIds();
    return sledded_;
}

std::optional<std::string> DynCapi::nameOf(xray::PackedId id) const {
    xray::ObjectId objectId = xray::objectIdOf(id);
    xray::FunctionId fid = xray::functionIdOf(id);
    if (objectId >= nameByObject_.size() || fid >= nameByObject_[objectId].size() ||
        nameByObject_[objectId][fid].empty()) {
        return std::nullopt;
    }
    return std::string(nameByObject_[objectId][fid]);
}

std::uint64_t DynCapi::addressOf(xray::PackedId id) const {
    xray::ObjectId objectId = xray::objectIdOf(id);
    xray::FunctionId fid = xray::functionIdOf(id);
    if (objectId >= addressByObject_.size() ||
        fid >= addressByObject_[objectId].size()) {
        return 0;
    }
    return addressByObject_[objectId][fid];
}

InitStats DynCapi::applyPolicy(const select::InstrumentationPolicy& policy) {
    const DeltaStats delta = applyDiff(policy);
    InitStats stats;
    stats.symbolResolutionSeconds = resolutionSeconds_;
    stats.objectsScanned = objectsScanned_;
    stats.sleddedFunctions = sledded_;
    stats.unresolvableFunctions = unresolvable_;
    stats.requestedFunctions = delta.requestedFunctions;
    stats.patchedFunctions = delta.functionsPatched + delta.functionsUnchanged +
                             delta.functionsPromoted + delta.functionsDemoted;
    stats.requestedUnavailable = delta.requestedUnavailable;
    stats.pagesTouched = delta.pagesTouched;
    stats.sampledFunctions = delta.sampledFunctions;
    stats.patchSeconds = delta.patchSeconds;
    stats.totalSeconds = stats.symbolResolutionSeconds + stats.patchSeconds;
    return stats;
}

DeltaStats DynCapi::applyPolicyDelta(const select::InstrumentationPolicy& policy) {
    return applyDiff(policy);
}

InitStats DynCapi::applyIc(const select::InstrumentationConfig& ic) {
    return applyPolicy(select::InstrumentationPolicy::fullOf(ic));
}

std::optional<xray::PackedId> DynCapi::resolvePolicyEntry(
    const select::InstrumentationPolicy& policy, const std::string& name) const {
    auto staticIt = policy.staticIds.find(name);
    if (staticIt != policy.staticIds.end()) {
        return staticIt->second;  // Static-ID extension: no name resolution.
    }
    return lookupName(name);
}

DeltaStats DynCapi::applyDiff(const select::InstrumentationPolicy& policy) {
    syncObjectIds();
    DeltaStats stats;
    stats.requestedFunctions = policy.functions.size();

    support::Timer timer;
    xray::XRayRuntime& xr = process_->xray();

    // Requested (function, tier) set, resolved to live packed ids and sorted
    // by id. An entry that resolves but has no live sled (its object was
    // dlclosed) counts as unavailable.
    using Flip = xray::XRayRuntime::TieredFlip;
    std::vector<Flip> target;
    target.reserve(policy.functions.size());
    for (std::size_t i = 0; i < policy.functions.size(); ++i) {
        std::optional<xray::PackedId> pid =
            resolvePolicyEntry(policy, policy.functions[i]);
        if (pid.has_value() && addressOf(*pid) != 0) {
            target.push_back({*pid, policy.regions[i].tier == select::Tier::Sampled
                                        ? xray::XRayRuntime::kSampledTier
                                        : xray::XRayRuntime::kFullTier});
        } else {
            ++stats.requestedUnavailable;
        }
    }
    std::stable_sort(target.begin(), target.end(), [](const Flip& a, const Flip& b) {
        return a.function < b.function;
    });
    // Names sharing one static id request it once; the last name wins, as
    // when the names are applied one by one.
    target.erase(target.begin(),
                 std::unique(target.rbegin(), target.rend(),
                             [](const Flip& a, const Flip& b) {
                                 return a.function == b.function;
                             })
                     .base());
    for (const Flip& flip : target) {
        stats.sampledFunctions += flip.tierTag == xray::XRayRuntime::kSampledTier;
    }

    // Merge-join against the currently-patched set and its tiers, read from
    // the runtime itself (also sorted by id), so state the previous policy
    // never saw — a re-registered DSO whose sleds reset to NOP, or sleds
    // another caller flipped — diffs correctly. Same-set tier changes become
    // zero-page retier requests.
    std::vector<Flip> toPatch;
    std::vector<xray::PackedId> toUnpatch;
    std::vector<Flip> toRetier;
    auto want = target.begin();
    for (const auto& [pid, liveTag] : xr.patchedFunctionTiers()) {
        for (; want != target.end() && want->function < pid; ++want) {
            toPatch.push_back(*want);
        }
        if (want == target.end() || want->function != pid) {
            toUnpatch.push_back(pid);
            continue;
        }
        if (want->tierTag == liveTag) {
            ++stats.functionsUnchanged;
        } else if (want->tierTag == xray::XRayRuntime::kFullTier) {
            ++stats.functionsPromoted;
            toRetier.push_back(*want);
        } else {
            ++stats.functionsDemoted;
            toRetier.push_back(*want);
        }
        ++want;
    }
    toPatch.insert(toPatch.end(), want, target.end());

    xray::XRayRuntime::DeltaPatchStats patch =
        xr.patchDeltaTiered(toPatch, toUnpatch, toRetier);
    // Per-list unavailability: a toPatch entry that went stale between the
    // pre-check above and the transaction (dlclose raced us) is a failed
    // request; a stale toUnpatch entry is simply already effectively
    // unpatched and not a policy request at all.
    stats.functionsPatched = toPatch.size() - patch.unavailablePatch;
    stats.functionsUnpatched = toUnpatch.size() - patch.unavailableUnpatch;
    stats.requestedUnavailable += patch.unavailablePatch;
    stats.pagesTouched = patch.pagesMadeWritable;
    stats.patchSeconds = timer.elapsedSec();
    currentPolicy_ = policy;
    syncGates(currentPolicy_);
    return stats;
}

void DynCapi::syncGates(const select::InstrumentationPolicy& policy) {
    if (cygBackend_ == nullptr || cygBackend_->adapter == nullptr) {
        return;
    }
    scorep::Measurement& measurement = cygBackend_->adapter->measurement();
    measurement.clearAllSampling();
    for (std::size_t i = 0; i < policy.functions.size(); ++i) {
        const select::RegionPolicy& region = policy.regions[i];
        if (region.tier != select::Tier::Sampled) {
            continue;
        }
        // Defining by name yields the same handle the adapter's resolver
        // produces for events of this function, so the gate and the events
        // meet at one region.
        scorep::RegionHandle handle =
            measurement.defineRegion(policy.functions[i]);
        measurement.setRegionSampling(handle, region.sampling.everyN,
                                      region.sampling.minIntervalNs);
    }
}

InitStats DynCapi::patchAll() {
    syncObjectIds();
    InitStats stats;
    stats.symbolResolutionSeconds = resolutionSeconds_;
    stats.objectsScanned = objectsScanned_;
    stats.sleddedFunctions = sledded_;
    stats.unresolvableFunctions = unresolvable_;
    support::Timer timer;
    xray::PatchStats patched = process_->xray().patchAll();
    stats.patchedFunctions = sledded_;
    stats.requestedFunctions = sledded_;
    stats.pagesTouched = patched.pagesMadeWritable;
    stats.patchSeconds = timer.elapsedSec();
    stats.totalSeconds = stats.symbolResolutionSeconds + stats.patchSeconds;
    // Every sled is now Full: no cached policy, no sampling gate describes it.
    currentPolicy_ = {};
    syncGates(currentPolicy_);
    return stats;
}

void DynCapi::unpatchAll() {
    process_->xray().unpatchAll();
    currentPolicy_ = {};
    syncGates(currentPolicy_);
}

void DynCapi::attachCygHandler(scorep::CygProfileAdapter& adapter) {
    detachHandler();
    syncObjectIds();
    cygBackend_ = std::make_unique<CygBackend>();
    cygBackend_->owner = this;
    cygBackend_->adapter = &adapter;
    process_->xray().setHandler(&CygBackend::handle, cygBackend_.get());
    // A freshly attached measurement starts with empty gates; re-sync them
    // from the live policy so Sampled regions stay sampled across per-epoch
    // Measurement swaps.
    syncGates(currentPolicy_);
}

void DynCapi::attachTalpHandler(talp::TalpRuntime& talp) {
    detachHandler();
    syncObjectIds();
    talpBackend_ = std::make_unique<TalpBackend>();
    talpBackend_->owner = this;
    talpBackend_->talp = &talp;
    process_->xray().setHandler(&TalpBackend::handle, talpBackend_.get());
}

void DynCapi::detachHandler() {
    process_->xray().clearHandler();
    cygBackend_.reset();
    talpBackend_.reset();
}

std::uint64_t DynCapi::talpFailedRegistrations() const {
    if (talpBackend_ == nullptr) {
        return 0;
    }
    std::lock_guard<std::mutex> lock(talpBackend_->mutex);
    return talpBackend_->failedRegistrations;
}

}  // namespace capi::dyncapi
