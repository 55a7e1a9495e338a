// Reference implementations of the Tinit lookups, kept as test oracles for
// the linear-pass versions in binsim and dyncapi:
//  * per-object model->local hash maps behind objectOf/compiledOf;
//  * the execution facts Process::execInfo() derives from them;
//  * DynCapi's name resolution from deep-copied nm dumps, one address hash
//    map per object and one __xray_function_address call per function id.
// They favour obviousness over speed: each is the straightforward reading of
// what the production code must compute.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "binsim/compiler.hpp"
#include "binsim/nm.hpp"
#include "binsim/process.hpp"
#include "xraysim/xray_runtime.hpp"

namespace capi::reference {

/// Model function -> (object image, compiled function), one hash map per
/// object, probed executable first, then every DSO.
class ModelToLocal {
public:
    explicit ModelToLocal(const binsim::CompiledProgram& program) : program_(&program) {
        index(program.executable());
        for (const binsim::ObjectImage& dso : program.dsos()) {
            index(dso);
        }
    }

    const binsim::ObjectImage* objectOf(std::uint32_t modelIndex) const {
        if (maps_[0].contains(modelIndex)) {
            return &program_->executable();
        }
        for (std::size_t d = 0; d < program_->dsos().size(); ++d) {
            if (maps_[d + 1].contains(modelIndex)) {
                return &program_->dsos()[d];
            }
        }
        return nullptr;
    }

    const binsim::CompiledFunction* compiledOf(std::uint32_t modelIndex) const {
        const binsim::ObjectImage* obj = objectOf(modelIndex);
        if (obj == nullptr) {
            return nullptr;
        }
        const std::size_t slot =
            obj == &program_->executable()
                ? 0
                : static_cast<std::size_t>(obj - program_->dsos().data()) + 1;
        return &obj->functions[maps_[slot].at(modelIndex)];
    }

private:
    void index(const binsim::ObjectImage& image) {
        std::unordered_map<std::uint32_t, std::uint32_t>& map = maps_.emplace_back();
        for (std::uint32_t i = 0; i < image.functions.size(); ++i) {
            map.emplace(image.functions[i].modelIndex, i);
        }
    }

    const binsim::CompiledProgram* program_;
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> maps_;
};

/// Execution facts of every model function in the process's current load
/// state, found through ModelToLocal and a pointer scan for the owning DSO.
inline std::vector<binsim::ExecInfo> execInfo(const binsim::Process& process,
                                              const ModelToLocal& homes) {
    const binsim::CompiledProgram& program = process.program();
    std::vector<binsim::ExecInfo> out(program.model().functions.size());
    for (std::uint32_t i = 0; i < out.size(); ++i) {
        binsim::ExecInfo& info = out[i];
        info.inlined = program.inlinedAway()[i];
        const binsim::ObjectImage* obj = homes.objectOf(i);
        const binsim::CompiledFunction* fn = homes.compiledOf(i);
        if (obj == nullptr || fn == nullptr) {
            continue;
        }
        info.hasCode = true;
        if (!fn->hasSleds || info.inlined) {
            continue;
        }
        std::optional<xray::ObjectId> objectId;
        std::uint64_t base = obj->linkBase;
        if (obj->isMainExecutable) {
            objectId = xray::kMainExecutableObjectId;
        } else {
            for (std::size_t d = 0; d < program.dsos().size(); ++d) {
                if (&program.dsos()[d] == obj) {
                    objectId = process.xrayObjectId(static_cast<int>(d));
                    base = process.loadBase(static_cast<int>(d));
                    break;
                }
            }
        }
        if (!objectId.has_value()) {
            continue;
        }
        info.hasSleds = true;
        const std::uint64_t delta = base - obj->linkBase;
        info.entryAddress = fn->entryAddress + delta;
        info.exitAddress = fn->exitAddress + delta;
        info.packedId = xray::packId(*objectId, fn->localId);
    }
    return out;
}

/// DynCapi's name tables as a fresh resolution over the process would fill
/// them.
struct Resolution {
    std::vector<std::vector<std::uint64_t>> addressByObject;
    std::vector<std::vector<std::string>> nameByObject;
    std::unordered_map<std::string, xray::PackedId> packedByName;
    std::size_t unresolvable = 0;
    std::size_t sledded = 0;

    std::optional<xray::PackedId> resolveName(const std::string& name) const {
        auto it = packedByName.find(name);
        return it == packedByName.end() ? std::nullopt
                                        : std::optional<xray::PackedId>(it->second);
    }
    std::optional<std::string> nameOf(xray::PackedId id) const {
        const xray::ObjectId object = xray::objectIdOf(id);
        const xray::FunctionId fid = xray::functionIdOf(id);
        if (object >= nameByObject.size() || fid >= nameByObject[object].size() ||
            nameByObject[object][fid].empty()) {
            return std::nullopt;
        }
        return nameByObject[object][fid];
    }
    std::uint64_t addressOf(xray::PackedId id) const {
        const xray::ObjectId object = xray::objectIdOf(id);
        const xray::FunctionId fid = xray::functionIdOf(id);
        if (object >= addressByObject.size() || fid >= addressByObject[object].size()) {
            return 0;
        }
        return addressByObject[object][fid];
    }
};

/// nm dump of each registered object (executable, then DSOs by index),
/// translated by load base into an address hash map, cross-checked against
/// __xray_function_address for every function id. The first visible symbol
/// at an address, and the first object defining a name, win.
inline Resolution resolveAllObjects(binsim::Process& process) {
    Resolution out;
    out.addressByObject.assign(xray::kMaxObjectId + 1, {});
    out.nameByObject.assign(xray::kMaxObjectId + 1, {});
    xray::XRayRuntime& xr = process.xray();
    const binsim::CompiledProgram& program = process.program();
    for (int dso = -1; dso < static_cast<int>(program.dsos().size()); ++dso) {
        std::optional<xray::ObjectId> objectId = process.xrayObjectId(dso);
        if (!objectId.has_value() || !xr.objectRegistered(*objectId)) {
            continue;
        }
        const binsim::ObjectImage& image = process.objectImage(dso);
        const std::uint32_t functions = xr.functionCount(*objectId);
        out.addressByObject[*objectId].assign(functions, 0);
        out.nameByObject[*objectId].assign(functions, std::string());

        const std::vector<binsim::NmEntry> symbols = binsim::nmDump(image);
        const std::uint64_t delta = process.loadBase(dso) - image.linkBase;
        std::unordered_map<std::uint64_t, const binsim::NmEntry*> byAddress;
        for (const binsim::NmEntry& symbol : symbols) {
            byAddress.emplace(symbol.address + delta, &symbol);
        }
        for (std::uint32_t fid = 0; fid < functions; ++fid) {
            const xray::PackedId pid = xray::packId(*objectId, fid);
            const std::uint64_t address = xr.functionAddress(pid);
            if (address == 0) {
                continue;
            }
            ++out.sledded;
            out.addressByObject[*objectId][fid] = address;
            auto it = byAddress.find(address);
            if (it == byAddress.end()) {
                ++out.unresolvable;
                continue;
            }
            out.nameByObject[*objectId][fid] = it->second->name;
            out.packedByName.emplace(it->second->name, pid);
        }
    }
    return out;
}

}  // namespace capi::reference
