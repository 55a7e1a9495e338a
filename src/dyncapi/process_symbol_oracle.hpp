// SymbolOracle backed by a compiled program's symbol tables.
//
// CaPI's inlining compensation asks "does a symbol for this function exist in
// the binary or any dependent shared object?" — answered here from the nm
// dumps of every object image (hidden symbols are invisible to nm and
// therefore count as absent, consistent with the runtime resolution path).
#pragma once

#include <unordered_set>

#include "binsim/compiler.hpp"
#include "binsim/nm.hpp"
#include "select/symbol_oracle.hpp"

namespace capi::dyncapi {

class ProcessSymbolOracle final : public select::SymbolOracle {
public:
    explicit ProcessSymbolOracle(const binsim::CompiledProgram& program) {
        addObject(program.executable());
        for (const binsim::ObjectImage& dso : program.dsos()) {
            addObject(dso);
        }
    }

    bool hasSymbol(const std::string& functionName) const override {
        return symbols_.contains(functionName);
    }

    std::size_t size() const { return symbols_.size(); }

private:
    void addObject(const binsim::ObjectImage& image) {
        for (const binsim::NmEntry& symbol : binsim::nmDump(image)) {
            symbols_.insert(symbol.name);
        }
    }

    std::unordered_set<std::string> symbols_;
};

}  // namespace capi::dyncapi
