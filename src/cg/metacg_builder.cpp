#include "cg/metacg_builder.hpp"

#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

namespace capi::cg {

LocalCallGraph MetaCgBuilder::buildLocal(const TranslationUnit& unit) {
    LocalCallGraph local;
    local.unitName = unit.name;

    for (const SourceFunction& fn : unit.functions) {
        FunctionDesc desc = fn.desc;
        if (desc.translationUnit.empty() && desc.flags.hasBody) {
            desc.translationUnit = unit.name;
        }
        local.graph.addFunction(desc);
    }

    for (const SourceFunction& fn : unit.functions) {
        if (!fn.desc.flags.hasBody) {
            continue;
        }
        FunctionId caller = local.graph.lookup(fn.desc.name);
        for (const CallSite& site : fn.callSites) {
            switch (site.kind) {
                case CallSite::Kind::Direct: {
                    FunctionId callee = local.graph.lookup(site.target);
                    if (callee == kInvalidFunction) {
                        // Callee defined in another TU: insert a declaration
                        // node so the local graph is self-contained.
                        FunctionDesc decl;
                        decl.name = site.target;
                        decl.prettyName = site.target;
                        callee = local.graph.addFunction(decl);
                    }
                    local.graph.addCallEdge(caller, callee);
                    break;
                }
                case CallSite::Kind::Virtual:
                    local.pendingVirtual.push_back({fn.desc.name, site});
                    break;
                case CallSite::Kind::FunctionPointer:
                    local.pendingPointer.push_back({fn.desc.name, site});
                    break;
            }
        }
    }
    return local;
}

namespace {

/// A call site whose targets are known only once every TU is in: the base
/// method of a virtual call, or the signature of a function-pointer call.
struct DeferredSite {
    FunctionId caller;
    std::string key;
};

/// Moves `value` out of an owned model, copies it out of a borrowed one.
template <bool Owned, typename T>
std::remove_const_t<T> take(T& value) {
    if constexpr (Owned) {
        return std::move(value);
    } else {
        return value;
    }
}

/// Streams `model` TU by TU into one assembly (see the header comment).
/// `Model` is SourceModel when the caller hands it over, const SourceModel
/// when it is borrowed.
template <typename Model>
CallGraph buildStreaming(Model& model, MergeStats& stats,
                         std::vector<UnresolvedPointerCall>& unresolved) {
    constexpr bool kOwned = !std::is_const_v<Model>;
    stats = MergeStats{};
    unresolved.clear();
    stats.translationUnits = model.units.size();

    std::size_t sightings = 0;
    for (const TranslationUnit& unit : model.units) {
        sightings += unit.functions.size();
    }
    CallGraph::Assembly assembly(sightings);
    std::vector<DeferredSite> virtualSites;
    std::vector<DeferredSite> pointerSites;
    // Per function of the current TU: its node id when this sighting is a
    // definition (whose call sites count), kInvalidFunction otherwise.
    std::vector<FunctionId> definedAs;

    for (auto& unit : model.units) {
        // Local step, part 1: every sighting of the TU, in order.
        definedAs.assign(unit.functions.size(), kInvalidFunction);
        for (std::size_t i = 0; i < unit.functions.size(); ++i) {
            FunctionDesc desc = take<kOwned>(unit.functions[i].desc);
            const bool hasBody = desc.flags.hasBody;
            if (desc.translationUnit.empty() && hasBody) {
                desc.translationUnit = unit.name;
            }
            const FunctionId id = assembly.intern(std::move(desc));
            if (hasBody) {
                definedAs[i] = id;
            }
        }
        // Part 2: the call sites of each definition. A direct callee the
        // program has not seen yet becomes a declaration node here, after
        // the TU's own sightings, as in the TU's standalone local graph.
        for (std::size_t i = 0; i < unit.functions.size(); ++i) {
            const FunctionId caller = definedAs[i];
            if (caller == kInvalidFunction) {
                continue;
            }
            for (auto& site : unit.functions[i].callSites) {
                switch (site.kind) {
                    case CallSite::Kind::Direct:
                        assembly.addCallEdge(
                            caller, assembly.internDeclaration(site.target));
                        break;
                    case CallSite::Kind::Virtual:
                        virtualSites.push_back({caller, take<kOwned>(site.target)});
                        break;
                    case CallSite::Kind::FunctionPointer:
                        pointerSites.push_back(
                            {caller, take<kOwned>(site.signature)});
                        break;
                }
            }
        }
        if constexpr (kOwned) {
            std::vector<SourceFunction>().swap(unit.functions);
        }
    }

    // Whole-program step: the class hierarchy, then the direct edges are
    // filled and counted.
    for (const OverrideRelation& rel : model.overrides) {
        const FunctionId base = assembly.lookup(rel.base);
        const FunctionId derived = assembly.lookup(rel.derived);
        if (base != kInvalidFunction && derived != kInvalidFunction) {
            assembly.addOverride(base, derived);
        }
    }
    stats.directEdges = assembly.fillRows();

    // Virtual call sites: an edge to the static target and to every
    // definition transitively overriding it. This over-approximation
    // guarantees all possible call paths are represented (paper,
    // Sec. III-A).
    std::vector<std::uint32_t> seenAt(assembly.size(), 0);
    std::uint32_t visit = 0;
    std::vector<FunctionId> queue;
    for (const DeferredSite& site : virtualSites) {
        const FunctionId base = assembly.lookup(site.key);
        if (base == kInvalidFunction) {
            continue;
        }
        ++visit;
        queue.assign(1, base);
        seenAt[base] = visit;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const FunctionId target = queue[head];
            assembly.addCallEdge(site.caller, target);
            for (FunctionId derived : assembly.overriddenBy(target)) {
                if (seenAt[derived] != visit) {
                    seenAt[derived] = visit;
                    queue.push_back(derived);
                }
            }
        }
    }
    stats.virtualEdges = assembly.fillRows() - stats.directEdges;

    // Function-pointer call sites. Candidates are address-taken functions
    // whose signature group matches. A unique candidate resolves statically;
    // ambiguous or empty candidate sets are reported so the
    // profile-validation utility can insert the missing edges later.
    struct Candidates {
        FunctionId first = kInvalidFunction;
        std::size_t count = 0;
    };
    std::unordered_map<std::string_view, Candidates> bySignature;
    for (FunctionId id = 0; id < assembly.size(); ++id) {
        const FunctionDesc& desc = assembly.desc(id);
        if (desc.flags.addressTaken && !desc.signature.empty()) {
            Candidates& group = bySignature[desc.signature];
            if (group.count++ == 0) {
                group.first = id;
            }
        }
    }
    for (DeferredSite& site : pointerSites) {
        auto it = bySignature.find(site.key);
        if (it != bySignature.end() && it->second.count == 1) {
            assembly.addCallEdge(site.caller, it->second.first);
            ++stats.pointerEdgesResolved;
        } else {
            ++stats.pointerSitesUnresolved;
            unresolved.push_back(
                {assembly.desc(site.caller).name, std::move(site.key)});
        }
    }

    stats.totalNodes = assembly.size();
    return std::move(assembly).finish();
}

}  // namespace

CallGraph MetaCgBuilder::build(const SourceModel& model) {
    return buildStreaming(model, stats_, unresolved_);
}

CallGraph MetaCgBuilder::build(SourceModel&& model) {
    return buildStreaming(model, stats_, unresolved_);
}

}  // namespace capi::cg
