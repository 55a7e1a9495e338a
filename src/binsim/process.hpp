// Simulated process: loader + mapped code memory + XRay runtime.
//
// Loading mirrors the dynamic linker: the executable is mapped at its link
// base, every DSO is relocated to a fresh base address (which is why DSO
// trampolines must be position independent), and each instrumented DSO
// registers itself with the XRay runtime through the xray-dso library.
// dlopen/dlclose of individual DSOs is supported to exercise the
// registration/deregistration API.
//
// The compiled image is shared, never copied: every Process built from one
// CompiledProgram reads the same immutable image (taking a Process by value
// bumps a reference count, and a Process built from a temporary keeps that
// image alive itself). What loading decides per process — each object's
// load base, which DSOs are mapped, their XRay object ids, the patched code
// memory — lives here, so two processes of one program are independent.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "binsim/compiler.hpp"
#include "xraysim/xray_dso.hpp"
#include "xraysim/xray_runtime.hpp"

namespace capi::binsim {

struct ProcessOptions {
    bool registerDsos = true;          ///< xray-dso auto-registration on load.
    std::uint64_t dsoGapBytes = 1 << 16;  ///< Guard gap between mappings.
};

/// One line of the simulated /proc/self/maps.
struct MapEntry {
    std::string object;
    std::uint64_t loadBase = 0;
    std::uint64_t sizeBytes = 0;
    bool isMainExecutable = false;
    int dsoIndex = -1;  ///< Object image index (-1 = executable).
};

/// Per-model-function execution facts, precomputed for the hot call path.
struct ExecInfo {
    bool hasCode = false;     ///< Emitted into some object.
    bool inlined = false;     ///< Inlined away; calls execute inline, no events.
    bool hasSleds = false;    ///< Entry/exit sleds exist and object is live.
    std::uint64_t entryAddress = 0;  ///< Runtime address of the entry sled.
    std::uint64_t exitAddress = 0;   ///< Runtime address of the exit sled.
    xray::PackedId packedId = 0;
};

class Process {
public:
    explicit Process(CompiledProgram program, ProcessOptions options = {});

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    const CompiledProgram& program() const { return program_; }
    xray::CodeMemory& memory() { return *memory_; }
    xray::XRayRuntime& xray() { return *xray_; }

    std::vector<MapEntry> memoryMap() const;

    /// Object image by DSO index; -1 = executable.
    const ObjectImage& objectImage(int dsoIndex) const;
    /// Where this process mapped an object (DSO index; -1 = executable).
    /// A closed DSO keeps its reserved base.
    std::uint64_t loadBase(int dsoIndex) const;

    /// XRay object id of a loaded object; nullopt when not registered.
    std::optional<xray::ObjectId> xrayObjectId(int dsoIndex) const;

    /// dlclose simulation: deregisters (unpatching its sleds) and unmaps.
    bool dlcloseDso(std::size_t dsoIndex);
    /// dlopen simulation: re-registers a previously closed DSO at the same
    /// base address (the mapping is kept reserved). It takes the first free
    /// XRay object id, which need not be the id it had before.
    bool dlopenDso(std::size_t dsoIndex);

    /// Bumped by every successful dlopenDso/dlcloseDso: callers that key
    /// tables by XRay object id compare it to learn that ids may have moved.
    std::uint64_t loadGeneration() const { return loadGeneration_; }

    const std::vector<ExecInfo>& execInfo() const { return execInfo_; }

    /// Packed id for a model function, when it has live sleds.
    std::optional<xray::PackedId> packedIdOf(std::uint32_t modelIndex) const;
    /// Reverse lookup: packed id -> model function index.
    std::optional<std::uint32_t> modelIndexOf(xray::PackedId id) const;

    /// Total sleds across all live objects.
    std::size_t totalSleds() const;

private:
    void registerObjects();
    /// Fills localToModel_ for a freshly registered object.
    void mapLocalIds(const ObjectImage& image, xray::ObjectId objectId);
    void rebuildExecInfo();
    xray::ObjectRegistration makeRegistration(const ObjectImage& image,
                                              std::uint64_t loadBase) const;

    CompiledProgram program_;
    ProcessOptions options_;
    std::vector<std::uint64_t> dsoLoadBases_;
    std::unique_ptr<xray::CodeMemory> memory_;
    std::unique_ptr<xray::XRayRuntime> xray_;
    std::vector<std::optional<xray::ObjectId>> dsoObjectIds_;
    std::vector<bool> dsoLoaded_;
    std::uint64_t loadGeneration_ = 0;
    std::vector<ExecInfo> execInfo_;
    /// objectId -> (localId -> model function index).
    std::vector<std::vector<std::uint32_t>> localToModel_;
};

}  // namespace capi::binsim
