#include "scorepsim/symbol_resolver.hpp"

#include <algorithm>

namespace capi::scorep {

SymbolResolver SymbolResolver::fromExecutable(const binsim::ObjectImage& executable) {
    SymbolResolver resolver;
    // The executable is mapped at its link base, so nm addresses are process
    // addresses already.
    resolver.appendObject(executable, executable.linkBase);
    resolver.sortEntries();
    return resolver;
}

std::size_t SymbolResolver::injectObject(const binsim::ObjectImage& object,
                                         std::uint64_t loadBase) {
    std::size_t injected = appendObject(object, loadBase);
    sortEntries();
    return injected;
}

SymbolResolver SymbolResolver::withSymbolInjection(const binsim::Process& process) {
    SymbolResolver resolver;
    // Walk the memory map (the /proc/self/maps analogue): the executable and
    // every mapped shared object, each translated by its load base. One
    // sort once everything is in.
    for (const binsim::MapEntry& map : process.memoryMap()) {
        resolver.appendObject(process.objectImage(map.dsoIndex), map.loadBase);
    }
    resolver.sortEntries();
    return resolver;
}

std::size_t SymbolResolver::appendObject(const binsim::ObjectImage& object,
                                         std::uint64_t loadBase) {
    std::size_t appended = 0;
    const std::uint64_t delta = loadBase - object.linkBase;
    for (const binsim::Symbol& symbol : object.symbols) {
        if (symbol.hidden) {
            continue;  // Not in the nm dump.
        }
        addEntry({symbol.address + delta, symbol.address + delta + symbol.size,
                  symbol.name});
        ++appended;
    }
    return appended;
}

void SymbolResolver::addEntry(Entry entry) {
    entries_.push_back(std::move(entry));
    sorted_ = false;
}

void SymbolResolver::sortEntries() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.begin < b.begin; });
    sorted_ = true;
}

std::optional<std::string> SymbolResolver::resolve(std::uint64_t address) const {
    if (!sorted_ || entries_.empty()) {
        return std::nullopt;
    }
    auto it = std::upper_bound(entries_.begin(), entries_.end(), address,
                               [](std::uint64_t addr, const Entry& e) {
                                   return addr < e.begin;
                               });
    if (it == entries_.begin()) {
        return std::nullopt;
    }
    --it;
    if (address >= it->begin && address < it->end) {
        return it->name;
    }
    return std::nullopt;
}

}  // namespace capi::scorep
