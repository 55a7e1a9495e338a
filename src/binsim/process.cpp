#include "binsim/process.hpp"

#include "support/error.hpp"

namespace capi::binsim {

Process::Process(CompiledProgram program, ProcessOptions options)
    : program_(std::move(program)), options_(options) {
    // Layout: executable at its link base, DSOs relocated behind it.
    const ObjectImage& executable = program_.executable();
    std::uint64_t cursor = executable.linkBase + executable.sizeBytes;
    dsoLoadBases_.reserve(program_.dsos().size());
    for (const ObjectImage& dso : program_.dsos()) {
        cursor += options_.dsoGapBytes;
        dsoLoadBases_.push_back(cursor);
        cursor += dso.sizeBytes;
    }

    memory_ = std::make_unique<xray::CodeMemory>(cursor);
    xray_ = std::make_unique<xray::XRayRuntime>(*memory_);
    dsoObjectIds_.assign(program_.dsos().size(), std::nullopt);
    dsoLoaded_.assign(program_.dsos().size(), true);

    registerObjects();
    rebuildExecInfo();
}

xray::ObjectRegistration Process::makeRegistration(const ObjectImage& image,
                                                   std::uint64_t loadBase) const {
    xray::ObjectRegistration reg;
    reg.name = image.name;
    reg.linkBase = image.linkBase;
    reg.loadBase = loadBase;
    reg.trampolinesPositionIndependent = image.picTrampolines;
    reg.sledTable = image.sledTable;
    return reg;
}

void Process::registerObjects() {
    localToModel_.assign(xray::kMaxObjectId + 1, {});

    const ObjectImage& executable = program_.executable();
    mapLocalIds(executable,
                xray_->registerMainExecutable(makeRegistration(executable, loadBase(-1))));

    if (!options_.registerDsos) {
        return;
    }
    for (std::size_t d = 0; d < program_.dsos().size(); ++d) {
        const ObjectImage& dso = program_.dsos()[d];
        if (!dso.xrayInstrumented || dso.sledTable.empty()) {
            continue;
        }
        std::optional<xray::DsoHandle> handle =
            xray::dsoRegister(*xray_, makeRegistration(dso, dsoLoadBases_[d]));
        if (!handle.has_value()) {
            throw support::Error("loader: XRay DSO registry exhausted for '" +
                                 dso.name + "'");
        }
        dsoObjectIds_[d] = handle->objectId;
        mapLocalIds(dso, handle->objectId);
    }
}

void Process::mapLocalIds(const ObjectImage& image, xray::ObjectId objectId) {
    std::vector<std::uint32_t>& table = localToModel_[objectId];
    table.assign(xray_->functionCount(objectId), 0);
    for (const CompiledFunction& fn : image.functions) {
        if (fn.hasSleds) {
            table[fn.localId] = fn.modelIndex;
        }
    }
}

void Process::rebuildExecInfo() {
    // Per object image (slot 0 = executable, d + 1 = DSO d): its live XRay
    // object id, if any, and the link-to-load address shift.
    struct Placement {
        const ObjectImage* image;
        std::optional<xray::ObjectId> objectId;
        std::uint64_t delta;
    };
    std::vector<Placement> placements;
    placements.reserve(program_.dsos().size() + 1);
    placements.push_back({&program_.executable(), xray::kMainExecutableObjectId, 0});
    for (std::size_t d = 0; d < program_.dsos().size(); ++d) {
        const ObjectImage& dso = program_.dsos()[d];
        placements.push_back({&dso,
                              dsoLoaded_[d] ? dsoObjectIds_[d] : std::nullopt,
                              dsoLoadBases_[d] - dso.linkBase});
    }

    const std::size_t functionCount = program_.model().functions.size();
    const std::vector<bool>& inlinedAway = program_.inlinedAway();
    execInfo_.assign(functionCount, ExecInfo{});
    for (std::uint32_t i = 0; i < functionCount; ++i) {
        ExecInfo& info = execInfo_[i];
        info.inlined = inlinedAway[i];
        const FunctionHome home = program_.homeOf(i);
        if (!home.hasCode()) {
            continue;
        }
        info.hasCode = true;
        const Placement& placement =
            placements[static_cast<std::size_t>(home.object + 1)];
        const CompiledFunction& fn = placement.image->functions[home.local];
        // Inlined functions never execute their out-of-line copy, so their
        // sleds (if any) are unreachable from the engine; a dlclosed DSO has
        // no live sleds.
        if (!fn.hasSleds || info.inlined || !placement.objectId.has_value()) {
            continue;
        }
        info.hasSleds = true;
        info.entryAddress = fn.entryAddress + placement.delta;
        info.exitAddress = fn.exitAddress + placement.delta;
        info.packedId = xray::packId(*placement.objectId, fn.localId);
    }
}

std::vector<MapEntry> Process::memoryMap() const {
    std::vector<MapEntry> map;
    map.push_back({program_.executable().name, loadBase(-1),
                   program_.executable().sizeBytes, true, -1});
    for (std::size_t d = 0; d < program_.dsos().size(); ++d) {
        if (dsoLoaded_[d]) {
            map.push_back({program_.dsos()[d].name, dsoLoadBases_[d],
                           program_.dsos()[d].sizeBytes, false,
                           static_cast<int>(d)});
        }
    }
    return map;
}

const ObjectImage& Process::objectImage(int dsoIndex) const {
    if (dsoIndex < 0) {
        return program_.executable();
    }
    if (static_cast<std::size_t>(dsoIndex) >= program_.dsos().size()) {
        throw support::Error("objectImage: bad DSO index");
    }
    return program_.dsos()[static_cast<std::size_t>(dsoIndex)];
}

std::uint64_t Process::loadBase(int dsoIndex) const {
    if (dsoIndex < 0) {
        // The executable is mapped at its link base.
        return program_.executable().linkBase;
    }
    if (static_cast<std::size_t>(dsoIndex) >= dsoLoadBases_.size()) {
        throw support::Error("loadBase: bad DSO index");
    }
    return dsoLoadBases_[static_cast<std::size_t>(dsoIndex)];
}

std::optional<xray::ObjectId> Process::xrayObjectId(int dsoIndex) const {
    if (dsoIndex < 0) {
        return xray::kMainExecutableObjectId;
    }
    if (static_cast<std::size_t>(dsoIndex) >= dsoObjectIds_.size()) {
        return std::nullopt;
    }
    return dsoObjectIds_[static_cast<std::size_t>(dsoIndex)];
}

bool Process::dlcloseDso(std::size_t dsoIndex) {
    if (dsoIndex >= program_.dsos().size() || !dsoLoaded_[dsoIndex]) {
        return false;
    }
    if (dsoObjectIds_[dsoIndex].has_value()) {
        xray::dsoUnregister(*xray_, xray::DsoHandle{*dsoObjectIds_[dsoIndex]});
        localToModel_[*dsoObjectIds_[dsoIndex]].clear();
        dsoObjectIds_[dsoIndex] = std::nullopt;
    }
    dsoLoaded_[dsoIndex] = false;
    ++loadGeneration_;
    rebuildExecInfo();
    return true;
}

bool Process::dlopenDso(std::size_t dsoIndex) {
    if (dsoIndex >= program_.dsos().size() || dsoLoaded_[dsoIndex]) {
        return false;
    }
    const ObjectImage& dso = program_.dsos()[dsoIndex];
    dsoLoaded_[dsoIndex] = true;
    if (options_.registerDsos && dso.xrayInstrumented && !dso.sledTable.empty()) {
        std::optional<xray::DsoHandle> handle = xray::dsoRegister(
            *xray_, makeRegistration(dso, dsoLoadBases_[dsoIndex]));
        if (handle.has_value()) {
            dsoObjectIds_[dsoIndex] = handle->objectId;
            mapLocalIds(dso, handle->objectId);
        }
    }
    ++loadGeneration_;
    rebuildExecInfo();
    return true;
}

std::optional<xray::PackedId> Process::packedIdOf(std::uint32_t modelIndex) const {
    if (modelIndex >= execInfo_.size() || !execInfo_[modelIndex].hasSleds) {
        return std::nullopt;
    }
    return execInfo_[modelIndex].packedId;
}

std::optional<std::uint32_t> Process::modelIndexOf(xray::PackedId id) const {
    xray::ObjectId objectId = xray::objectIdOf(id);
    xray::FunctionId localId = xray::functionIdOf(id);
    if (objectId >= localToModel_.size() ||
        localId >= localToModel_[objectId].size()) {
        return std::nullopt;
    }
    return localToModel_[objectId][localId];
}

std::size_t Process::totalSleds() const {
    std::size_t total = program_.executable().sledTable.size();
    for (std::size_t d = 0; d < program_.dsos().size(); ++d) {
        if (dsoLoaded_[d]) {
            total += program_.dsos()[d].sledTable.size();
        }
    }
    return total;
}

}  // namespace capi::binsim
