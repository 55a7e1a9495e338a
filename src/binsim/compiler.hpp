// Simulated Clang toolchain: compiles an AppModel into object images.
//
// Reproduces the compile-time half of the XRay workflow (paper Sec. V-A):
//  * the inliner runs first — `inline`-marked functions under a size limit
//    disappear from the object (optionally leaving a symbol behind, since
//    symbols "may be retained after inlining");
//  * the XRay machine pass then prepares the *remaining* functions: anything
//    passing the instruction-count threshold (or containing a loop) gets an
//    entry and exit sled and a dense per-object function ID;
//  * symbols get link-time addresses; hidden-visibility symbols stay in the
//    object but are invisible to nm and the dynamic loader.
//
// The compiler also exposes the full-rebuild cost model used for the
// turnaround comparison (Sec. VII-A): OpenFOAM-scale codes take ~50 minutes
// to rebuild, which is what runtime-adaptable instrumentation eliminates.
#pragma once

#include <memory>
#include <vector>

#include "binsim/app_model.hpp"
#include "binsim/object_image.hpp"
#include "xraysim/instruction_threshold.hpp"

namespace capi::binsim {

struct CompileOptions {
    bool xrayInstrument = true;
    xray::ThresholdPolicy xrayThreshold{/*instructionThreshold=*/1,
                                        /*ignoreLoops=*/false};
    std::uint32_t inlineInstructionLimit = 40;  ///< `inline`-keyword size cutoff.
    /// Functions at or below this size are inlined even without the keyword
    /// (the -O2 behaviour that makes source-level inline flags unreliable,
    /// which is exactly why CaPI needs inlining compensation).
    std::uint32_t autoInlineInstructionLimit = 12;
    /// Every Nth inlined function keeps an (out-of-line) symbol, modelling
    /// the approximation gap discussed in Sec. V-E. 0 disables retention.
    std::uint32_t retainedInlineSymbolPeriod = 16;
    double secondsPerTranslationUnit = 0.35;    ///< Rebuild cost model.
};

/// Where a model function's code lives: the object image that emitted it and
/// its entry in that image's `functions`.
struct FunctionHome {
    static constexpr std::int32_t kExecutable = -1;
    static constexpr std::int32_t kNoCode = -2;

    /// kExecutable, a DSO index, or kNoCode (no body, or inlined away
    /// without a retained out-of-line copy).
    std::int32_t object = kNoCode;
    std::uint32_t local = 0;  ///< Index into the object's `functions`.

    bool hasCode() const { return object != kNoCode; }
};

/// The toolchain's output: an immutable value whose image (model copy,
/// object images with their symbol and sled tables, inlining facts) sits
/// behind a shared const pointer. Copying a CompiledProgram bumps a
/// reference count; nothing ever writes a shared image. Everything a loader
/// decides per run (load bases, which DSOs are mapped) lives in Process.
class CompiledProgram {
public:
    /// An empty program: no functions, an empty executable image.
    CompiledProgram();

    const AppModel& model() const { return image_->model; }
    const CompileOptions& options() const { return image_->options; }
    /// Link-time images; load bases are per process (Process::loadBase).
    const ObjectImage& executable() const { return image_->executable; }
    const std::vector<ObjectImage>& dsos() const { return image_->dsos; }
    /// True when the function was inlined into its callers (no call executed).
    const std::vector<bool>& inlinedAway() const { return image_->inlinedAway; }
    double fullRebuildSeconds() const { return image_->fullRebuildSeconds; }

    /// Dense home index, one entry per model function, filled at compile
    /// time: every object/compiled-function lookup below is an array read.
    /// A model index out of range has no code.
    FunctionHome homeOf(std::uint32_t modelIndex) const {
        return modelIndex < image_->homes.size() ? image_->homes[modelIndex]
                                                 : FunctionHome{};
    }

    /// Object image holding a model function's code; nullptr when inlined
    /// away without a retained out-of-line copy.
    const ObjectImage* objectOf(std::uint32_t modelIndex) const;
    const CompiledFunction* compiledOf(std::uint32_t modelIndex) const;

private:
    struct Image {
        AppModel model;
        CompileOptions options;
        ObjectImage executable;
        std::vector<ObjectImage> dsos;
        std::vector<bool> inlinedAway;
        std::vector<FunctionHome> homes;  ///< Indexed by model function.
        double fullRebuildSeconds = 0.0;
    };

    explicit CompiledProgram(std::shared_ptr<const Image> image)
        : image_(std::move(image)) {}

    friend CompiledProgram compile(const AppModel& model,
                                   const CompileOptions& options);

    std::shared_ptr<const Image> image_;
};

/// Runs the simulated toolchain over the model.
CompiledProgram compile(const AppModel& model, const CompileOptions& options = {});

}  // namespace capi::binsim
