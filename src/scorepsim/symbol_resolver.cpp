#include "scorepsim/symbol_resolver.hpp"

#include <algorithm>

namespace capi::scorep {

SymbolResolver SymbolResolver::fromExecutable(const binsim::ObjectImage& executable) {
    SymbolResolver resolver;
    // The executable is mapped at its link base, so nm addresses are process
    // addresses already.
    for (const binsim::NmEntry& symbol : binsim::nmDump(executable)) {
        resolver.addEntry(
            {symbol.address, symbol.address + symbol.size, symbol.name});
    }
    resolver.sortEntries();
    return resolver;
}

std::size_t SymbolResolver::injectObject(const binsim::ObjectImage& object,
                                         std::uint64_t loadBase) {
    std::size_t injected = 0;
    std::uint64_t delta = loadBase - object.linkBase;
    for (const binsim::NmEntry& symbol : binsim::nmDump(object)) {
        addEntry({symbol.address + delta, symbol.address + delta + symbol.size,
                  symbol.name});
        ++injected;
    }
    sortEntries();
    return injected;
}

SymbolResolver SymbolResolver::withSymbolInjection(const binsim::Process& process) {
    const binsim::CompiledProgram& program = process.program();
    SymbolResolver resolver = fromExecutable(program.executable());
    // Walk the memory map (the /proc/self/maps analogue) and inject every
    // mapped shared object.
    for (const binsim::MapEntry& map : process.memoryMap()) {
        if (map.isMainExecutable) {
            continue;
        }
        for (std::size_t d = 0; d < program.dsos().size(); ++d) {
            const binsim::ObjectImage& dso = program.dsos()[d];
            if (dso.name == map.object &&
                process.loadBase(static_cast<int>(d)) == map.loadBase) {
                resolver.injectObject(dso, map.loadBase);
            }
        }
    }
    return resolver;
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
