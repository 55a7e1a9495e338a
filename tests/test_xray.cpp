// Tests for the XRay simulation: packed IDs (Fig. 4), code-memory protection
// semantics, patching, DSO registration/deregistration, trampoline
// position-independence, and the instruction-threshold pre-filter.
#include <gtest/gtest.h>

#include "support/error.hpp"
#include "xraysim/code_memory.hpp"
#include "xraysim/instruction_threshold.hpp"
#include "xraysim/packed_id.hpp"
#include "xraysim/xray_dso.hpp"
#include "xraysim/xray_runtime.hpp"

namespace {

using namespace capi::xray;
using capi::support::MachineFault;

// ------------------------------------------------------------- packed id ---

TEST(PackedId, MainExecutableIdsEqualLegacyIds) {
    for (FunctionId fid : {0u, 1u, 12345u, kFunctionIdMask}) {
        EXPECT_EQ(packId(kMainExecutableObjectId, fid), fid);
    }
}

class PackedIdRoundTrip
    : public ::testing::TestWithParam<std::pair<ObjectId, FunctionId>> {};

TEST_P(PackedIdRoundTrip, EncodeDecode) {
    auto [object, function] = GetParam();
    PackedId packed = packId(object, function);
    EXPECT_EQ(objectIdOf(packed), object);
    EXPECT_EQ(functionIdOf(packed), function);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, PackedIdRoundTrip,
    ::testing::Values(std::pair<ObjectId, FunctionId>{0, 0},
                      std::pair<ObjectId, FunctionId>{0, kFunctionIdMask},
                      std::pair<ObjectId, FunctionId>{1, 0},
                      std::pair<ObjectId, FunctionId>{255, kFunctionIdMask},
                      std::pair<ObjectId, FunctionId>{255, 0},
                      std::pair<ObjectId, FunctionId>{17, 28687},  // paper's max
                      std::pair<ObjectId, FunctionId>{128, 1u << 23}));

TEST(PackedId, CapacityConstants) {
    EXPECT_EQ(kMaxObjectId, 255u);                      // up to 255 DSOs
    EXPECT_EQ(kMaxFunctionsPerObject, 16777216u);       // ~16.7 M functions
}

// ----------------------------------------------------------- code memory ---

TEST(CodeMemory, WriteRequiresWritablePage) {
    CodeMemory memory(2 * kPageSize);
    CodeCell cell{Instr::JmpEntryTrampoline, 42};
    EXPECT_THROW(memory.write(0, cell), MachineFault);
    memory.mprotect(0, kSledBytes, true);
    EXPECT_NO_THROW(memory.write(0, cell));
    EXPECT_EQ(memory.read(0).operand, 42u);
    memory.mprotect(0, kSledBytes, false);
    EXPECT_THROW(memory.write(0, cell), MachineFault);
}

TEST(CodeMemory, MprotectIsPageGranular) {
    CodeMemory memory(4 * kPageSize);
    // Protecting a range that straddles a boundary makes both pages writable.
    memory.mprotect(kPageSize - kSledBytes, 2 * kSledBytes, true);
    EXPECT_TRUE(memory.pageWritable(0));
    EXPECT_TRUE(memory.pageWritable(kPageSize));
    EXPECT_FALSE(memory.pageWritable(2 * kPageSize));
    EXPECT_EQ(memory.pagesMadeWritable(), 2u);
}

TEST(CodeMemory, RepeatedMprotectCountsCowOnce) {
    CodeMemory memory(kPageSize);
    memory.mprotect(0, kSledBytes, true);
    memory.mprotect(0, kSledBytes, true);
    EXPECT_EQ(memory.pagesMadeWritable(), 1u);
    memory.mprotect(0, kSledBytes, false);
    memory.mprotect(0, kSledBytes, true);
    EXPECT_EQ(memory.pagesMadeWritable(), 2u);
    EXPECT_EQ(memory.mprotectCalls(), 4u);
}

TEST(CodeMemory, OutOfBoundsFaults) {
    CodeMemory memory(kPageSize);
    EXPECT_THROW(memory.read(kPageSize + 64), MachineFault);
    EXPECT_THROW(memory.mprotect(0, 3 * kPageSize, true), MachineFault);
}

// ------------------------------------------------------------ registration --

SledTable makeSledTable(std::uint32_t functions, std::uint64_t base) {
    SledTable table;
    for (std::uint32_t f = 0; f < functions; ++f) {
        std::uint64_t fnBase = base + f * 4 * kSledBytes;
        table.sleds.push_back({fnBase, SledKind::FunctionEnter, f});
        table.sleds.push_back({fnBase + 2 * kSledBytes, SledKind::FunctionExit, f});
    }
    return table;
}

ObjectRegistration makeReg(const std::string& name, std::uint32_t functions,
                           std::uint64_t linkBase, std::uint64_t loadBase,
                           bool pic) {
    ObjectRegistration reg;
    reg.name = name;
    reg.linkBase = linkBase;
    reg.loadBase = loadBase;
    reg.trampolinesPositionIndependent = pic;
    reg.sledTable = makeSledTable(functions, linkBase);
    return reg;
}

struct Fixture {
    CodeMemory memory{1 << 20};
    XRayRuntime runtime{memory};

    Fixture() {
        runtime.registerMainExecutable(makeReg("a.out", 4, 0, 0, false));
    }
};

TEST(XRayRuntime, MainMustBeRegisteredFirst) {
    CodeMemory memory(1 << 16);
    XRayRuntime runtime(memory);
    EXPECT_THROW(runtime.registerDso(makeReg("lib.so", 1, 0, 0x8000, true)),
                 capi::support::Error);
}

TEST(XRayRuntime, MainRegistersOnlyOnce) {
    Fixture f;
    EXPECT_THROW(f.runtime.registerMainExecutable(makeReg("b.out", 1, 0, 0, false)),
                 capi::support::Error);
}

TEST(XRayRuntime, DsoIdsStartAtOneAndReuseFreedSlots) {
    Fixture f;
    auto id1 = f.runtime.registerDso(makeReg("libA.so", 2, 0, 0x10000, true));
    auto id2 = f.runtime.registerDso(makeReg("libB.so", 2, 0, 0x20000, true));
    ASSERT_TRUE(id1.has_value());
    ASSERT_TRUE(id2.has_value());
    EXPECT_EQ(*id1, 1u);
    EXPECT_EQ(*id2, 2u);
    EXPECT_TRUE(f.runtime.unregisterDso(*id1));
    auto id3 = f.runtime.registerDso(makeReg("libC.so", 2, 0, 0x30000, true));
    ASSERT_TRUE(id3.has_value());
    EXPECT_EQ(*id3, 1u);  // freed slot reused
    EXPECT_EQ(f.runtime.objectName(1), "libC.so");
}

TEST(XRayRuntime, UnregisterMainOrUnknownFails) {
    Fixture f;
    EXPECT_FALSE(f.runtime.unregisterDso(0));
    EXPECT_FALSE(f.runtime.unregisterDso(42));
}

TEST(XRayRuntime, RegistryExhaustsAt255Dsos) {
    CodeMemory memory(256 * 4 * kPageSize);
    XRayRuntime runtime(memory);
    runtime.registerMainExecutable(makeReg("a.out", 1, 0, 0, false));
    for (int i = 0; i < 255; ++i) {
        auto id = runtime.registerDso(
            makeReg("lib" + std::to_string(i), 1, 0,
                    0x10000 + static_cast<std::uint64_t>(i) * 0x1000, true));
        ASSERT_TRUE(id.has_value()) << "registration " << i;
    }
    EXPECT_EQ(runtime.registeredObjectCount(), 256u);
    auto overflow = runtime.registerDso(makeReg("libX.so", 1, 0, 0x200000, true));
    EXPECT_FALSE(overflow.has_value());
}

// ---------------------------------------------------------------- patching --

TEST(XRayRuntime, PatchAllRewritesEverySled) {
    Fixture f;
    EXPECT_EQ(f.runtime.patchedSledCount(), 0u);
    PatchStats stats = f.runtime.patchAll();
    EXPECT_EQ(stats.sledsPatched, 8u);  // 4 functions x entry+exit
    EXPECT_EQ(f.runtime.patchedSledCount(), 8u);
    // Pages are sealed again after patching.
    EXPECT_FALSE(f.memory.pageWritable(0));

    PatchStats unpatch = f.runtime.unpatchAll();
    EXPECT_EQ(unpatch.sledsUnpatched, 8u);
    EXPECT_EQ(f.runtime.patchedSledCount(), 0u);
}

TEST(XRayRuntime, PatchIsIdempotent) {
    Fixture f;
    f.runtime.patchAll();
    f.runtime.patchAll();
    EXPECT_EQ(f.runtime.patchedSledCount(), 8u);
}

TEST(XRayRuntime, PatchSingleFunction) {
    Fixture f;
    EXPECT_TRUE(f.runtime.patchFunction(packId(0, 2)));
    EXPECT_EQ(f.runtime.patchedSledCount(), 2u);
    EXPECT_TRUE(f.runtime.functionPatched(packId(0, 2)));
    EXPECT_FALSE(f.runtime.functionPatched(packId(0, 1)));
    EXPECT_TRUE(f.runtime.unpatchFunction(packId(0, 2)));
    EXPECT_EQ(f.runtime.patchedSledCount(), 0u);
}

TEST(XRayRuntime, PatchUnknownFunctionReturnsFalse) {
    Fixture f;
    EXPECT_FALSE(f.runtime.patchFunction(packId(0, 99)));
    EXPECT_FALSE(f.runtime.patchFunction(packId(7, 0)));
}

TEST(XRayRuntime, FunctionAddressReflectsLoadBase) {
    Fixture f;
    auto id = f.runtime.registerDso(makeReg("lib.so", 3, 0, 0x40000, true));
    ASSERT_TRUE(id.has_value());
    // Function 1's entry sled: link address 4*kSledBytes, relocated.
    EXPECT_EQ(f.runtime.functionAddress(packId(*id, 1)),
              0x40000u + 4 * kSledBytes);
    EXPECT_EQ(f.runtime.functionAddress(packId(*id, 99)), 0u);
}

TEST(XRayRuntime, SledIndexGroupsUnorderedTablesPerFunction) {
    // Sleds out of function order, an exit listed before its entry, and a
    // function id (2) with no sleds at all.
    ObjectRegistration reg;
    reg.name = "lib.so";
    reg.loadBase = 0x40000;
    reg.trampolinesPositionIndependent = true;
    reg.sledTable.sleds = {
        {5 * kSledBytes, SledKind::FunctionExit, 3},
        {0, SledKind::FunctionEnter, 0},
        {4 * kSledBytes, SledKind::FunctionEnter, 3},
        {2 * kSledBytes, SledKind::FunctionEnter, 1},
        {1 * kSledBytes, SledKind::FunctionExit, 0},
        {3 * kSledBytes, SledKind::TailCallExit, 1},
    };
    Fixture f;
    auto id = f.runtime.registerDso(reg);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(f.runtime.functionCount(*id), 4u);

    const std::vector<std::uint64_t> addresses = f.runtime.functionAddresses(*id);
    ASSERT_EQ(addresses.size(), 4u);
    EXPECT_EQ(addresses[0], 0x40000u);
    EXPECT_EQ(addresses[1], 0x40000u + 2 * kSledBytes);
    EXPECT_EQ(addresses[2], 0u);
    EXPECT_EQ(addresses[3], 0x40000u + 4 * kSledBytes);
    for (FunctionId fid = 0; fid < addresses.size(); ++fid) {
        EXPECT_EQ(addresses[fid], f.runtime.functionAddress(packId(*id, fid)));
    }
    EXPECT_TRUE(f.runtime.functionAddresses(*id + 1).empty());

    EXPECT_FALSE(f.runtime.patchFunction(packId(*id, 2)));
    EXPECT_TRUE(f.runtime.patchFunction(packId(*id, 3)));
    EXPECT_EQ(f.runtime.patchedSledCount(), 2u);
    EXPECT_EQ(f.runtime.patchedFunctions(), std::vector<PackedId>{packId(*id, 3)});
}

TEST(XRayRuntime, UnregisterUnpatchesDsoSleds) {
    Fixture f;
    auto id = f.runtime.registerDso(makeReg("lib.so", 2, 0, 0x40000, true));
    f.runtime.patchAll();
    EXPECT_EQ(f.runtime.patchedSledCount(), 12u);  // 8 main + 4 dso
    EXPECT_TRUE(f.runtime.unregisterDso(*id));
    EXPECT_EQ(f.runtime.patchedSledCount(), 8u);
}

// ---------------------------------------------------------------- dispatch --

struct EventLog {
    std::vector<std::pair<PackedId, XRayEntryType>> events;

    static void handler(void* context, PackedId id, XRayEntryType type) {
        static_cast<EventLog*>(context)->events.emplace_back(id, type);
    }
};

TEST(XRayRuntime, UnpatchedSledFallsThrough) {
    Fixture f;
    EventLog log;
    f.runtime.setHandler(&EventLog::handler, &log);
    EXPECT_FALSE(f.runtime.invokeSled(0));  // entry sled of function 0
    EXPECT_TRUE(log.events.empty());
}

TEST(XRayRuntime, PatchedSledDispatchesPackedIdAndType) {
    Fixture f;
    EventLog log;
    f.runtime.setHandler(&EventLog::handler, &log);
    f.runtime.patchFunction(packId(0, 1));
    std::uint64_t entry = 4 * kSledBytes;      // function 1 entry
    std::uint64_t exit = 6 * kSledBytes;       // function 1 exit
    EXPECT_TRUE(f.runtime.invokeSled(entry));
    EXPECT_TRUE(f.runtime.invokeSled(exit));
    ASSERT_EQ(log.events.size(), 2u);
    EXPECT_EQ(log.events[0].first, packId(0, 1));
    EXPECT_EQ(log.events[0].second, XRayEntryType::Entry);
    EXPECT_EQ(log.events[1].second, XRayEntryType::Exit);
}

TEST(XRayRuntime, DispatchWithoutHandlerIsSafe) {
    Fixture f;
    f.runtime.patchAll();
    EXPECT_TRUE(f.runtime.invokeSled(0));
}

TEST(XRayRuntime, NonPicTrampolineFaultsInRelocatedDso) {
    Fixture f;
    // Bypass the xray-dso wrapper to register a DSO with absolute-addressed
    // trampolines, then relocate it: invoking a patched sled must fault —
    // this is the bug the @GOTPCREL change fixed.
    auto id = f.runtime.registerDso(makeReg("libBad.so", 1, 0, 0x50000, false));
    ASSERT_TRUE(id.has_value());
    f.runtime.patchObject(*id);
    EventLog log;
    f.runtime.setHandler(&EventLog::handler, &log);
    EXPECT_THROW(f.runtime.invokeSled(0x50000), MachineFault);

    // The same object registered through the xray-dso runtime (PIC forced)
    // dispatches fine.
    f.runtime.unregisterDso(*id);
    auto handle = dsoRegister(f.runtime, makeReg("libGood.so", 1, 0, 0x50000, false));
    ASSERT_TRUE(handle.has_value());
    f.runtime.patchObject(handle->objectId);
    EXPECT_TRUE(f.runtime.invokeSled(0x50000));
    ASSERT_EQ(log.events.size(), 1u);
    EXPECT_EQ(objectIdOf(log.events[0].first), handle->objectId);
}

TEST(XRayRuntime, FunctionIdSpaceOverflowRejected) {
    Fixture f;
    ObjectRegistration reg;
    reg.name = "huge.so";
    reg.loadBase = 0x80000;
    SledEntry sled;
    sled.address = 0;
    sled.kind = SledKind::FunctionEnter;
    sled.function = kMaxFunctionsPerObject;  // one past the 24-bit space
    reg.sledTable.sleds.push_back(sled);
    reg.trampolinesPositionIndependent = true;
    EXPECT_THROW(f.runtime.registerDso(reg), capi::support::Error);
}

// --------------------------------------------------------------- threshold --

TEST(Threshold, DefaultsMatchXRaySemantics) {
    ThresholdPolicy policy;  // 200 instructions
    EXPECT_FALSE(shouldPrepareFunction(10, false, false, policy));
    EXPECT_TRUE(shouldPrepareFunction(200, false, false, policy));
    EXPECT_TRUE(shouldPrepareFunction(10, true, false, policy));    // loop
    EXPECT_TRUE(shouldPrepareFunction(10, false, true, policy));    // attribute
    ThresholdPolicy ignoreLoops{200, true};
    EXPECT_FALSE(shouldPrepareFunction(10, true, false, ignoreLoops));
}

}  // namespace
