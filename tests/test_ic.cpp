// Tests for the instrumentation-configuration container and file formats.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "select/ic.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using capi::select::InstrumentationConfig;
using capi::support::Error;

InstrumentationConfig sampleIc() {
    InstrumentationConfig ic;
    ic.specName = "kernels";
    ic.application = "lulesh";
    ic.addFunction("CalcHourglassControlForElems");
    ic.addFunction("Amul");
    ic.addFunction("Foam::fvMatrix::solve");
    return ic;
}

TEST(Ic, FunctionsStaySortedAndUnique) {
    InstrumentationConfig ic = sampleIc();
    ic.addFunction("Amul");
    EXPECT_EQ(ic.size(), 3u);
    EXPECT_EQ(ic.functions.front(), "Amul");
    EXPECT_TRUE(ic.contains("Amul"));
    EXPECT_FALSE(ic.contains("amul"));
}

TEST(Ic, ScorePFilterRoundTrip) {
    InstrumentationConfig ic = sampleIc();
    std::string filter = ic.toScorePFilter();
    EXPECT_NE(filter.find("SCOREP_REGION_NAMES_BEGIN"), std::string::npos);
    EXPECT_NE(filter.find("EXCLUDE *"), std::string::npos);
    EXPECT_NE(filter.find("INCLUDE MANGLED Amul"), std::string::npos);

    InstrumentationConfig round = InstrumentationConfig::fromScorePFilter(filter);
    EXPECT_EQ(round.functions, ic.functions);
}

TEST(Ic, ScorePFilterAcceptsUnmangledIncludes) {
    InstrumentationConfig ic = InstrumentationConfig::fromScorePFilter(
        "SCOREP_REGION_NAMES_BEGIN\n"
        "  EXCLUDE *\n"
        "  INCLUDE foo\n"
        "  INCLUDE MANGLED bar\n"
        "SCOREP_REGION_NAMES_END\n");
    EXPECT_EQ(ic.functions, (std::vector<std::string>{"bar", "foo"}));
}

TEST(Ic, ScorePFilterRejectsGarbage) {
    EXPECT_THROW(InstrumentationConfig::fromScorePFilter("INCLUDE foo\n"), Error);
    EXPECT_THROW(InstrumentationConfig::fromScorePFilter(
                     "SCOREP_REGION_NAMES_BEGIN\nFROBNICATE x\nSCOREP_REGION_NAMES_END\n"),
                 Error);
    EXPECT_THROW(InstrumentationConfig::fromScorePFilter(""), Error);
}

TEST(Ic, JsonRoundTripWithStaticIds) {
    InstrumentationConfig ic = sampleIc();
    ic.staticIds["Amul"] = 0x01000005u;  // object 1, function 5
    InstrumentationConfig round = InstrumentationConfig::fromJson(ic.toJson());
    EXPECT_EQ(round.functions, ic.functions);
    EXPECT_EQ(round.specName, "kernels");
    EXPECT_EQ(round.application, "lulesh");
    ASSERT_EQ(round.staticIds.size(), 1u);
    EXPECT_EQ(round.staticIds.at("Amul"), 0x01000005u);
}

TEST(Ic, AssignFunctionsMatchesOneInsertPerName) {
    capi::support::SplitMix64 rng(7);
    std::vector<std::string> names;
    InstrumentationConfig reference;
    for (int i = 0; i < 500; ++i) {
        names.push_back("fn" + std::to_string(rng.nextBelow(300)));  // Repeats.
        reference.addFunction(names.back());
    }
    InstrumentationConfig bulk;
    bulk.assignFunctions(names);
    EXPECT_EQ(bulk.functions, reference.functions);

    // The readers build through the same helper: unsorted, repeated input
    // comes back sorted and unique.
    std::string filter = "SCOREP_REGION_NAMES_BEGIN\n  EXCLUDE *\n";
    capi::support::Json doc = capi::support::Json::object();
    doc["format"] = capi::support::Json("capi-ic/1");
    capi::support::Json fns = capi::support::Json::array();
    for (const std::string& name : names) {
        filter += "  INCLUDE MANGLED " + name + "\n";
        fns.push_back(capi::support::Json(name));
    }
    filter += "SCOREP_REGION_NAMES_END\n";
    doc["functions"] = fns;
    EXPECT_EQ(InstrumentationConfig::fromScorePFilter(filter).functions,
              reference.functions);
    EXPECT_EQ(InstrumentationConfig::fromJson(doc).functions, reference.functions);
}

TEST(Ic, JsonRejectsUnknownFormat) {
    capi::support::Json doc = capi::support::Json::object();
    doc["format"] = capi::support::Json("other/9");
    EXPECT_THROW(InstrumentationConfig::fromJson(doc), Error);
}

TEST(Ic, FileRoundTripDetectsFormat) {
    InstrumentationConfig ic = sampleIc();
    std::string jsonPath = ::testing::TempDir() + "/capi_ic_test.json";
    std::string filterPath = ::testing::TempDir() + "/capi_ic_test.filter";

    ic.writeFile(jsonPath, /*scorePFormat=*/false);
    ic.writeFile(filterPath, /*scorePFormat=*/true);

    InstrumentationConfig fromJsonFile = InstrumentationConfig::readFile(jsonPath);
    InstrumentationConfig fromFilterFile = InstrumentationConfig::readFile(filterPath);
    EXPECT_EQ(fromJsonFile.functions, ic.functions);
    EXPECT_EQ(fromFilterFile.functions, ic.functions);

    std::remove(jsonPath.c_str());
    std::remove(filterPath.c_str());
}

TEST(Ic, ReadMissingFileThrows) {
    EXPECT_THROW(InstrumentationConfig::readFile("/nonexistent/path/x.json"), Error);
}

// --- tiered policy ----------------------------------------------------------

using capi::select::InstrumentationPolicy;
using capi::select::PolicyDelta;
using capi::select::RegionPolicy;
using capi::select::SamplingSpec;
using capi::select::Tier;

InstrumentationPolicy samplePolicy() {
    InstrumentationPolicy policy;
    policy.specName = "kernels";
    policy.application = "lulesh";
    policy.setRegion("Amul", {Tier::Full, {}});
    policy.setRegion("CalcHourglassControlForElems", {Tier::Sampled, {64, 500}});
    policy.setRegion("Foam::fvMatrix::solve", {Tier::Full, {}});
    return policy;
}

TEST(Policy, TierLookupAndCounts) {
    InstrumentationPolicy policy = samplePolicy();
    EXPECT_EQ(policy.size(), 3u);
    EXPECT_EQ(policy.tierOf("Amul"), Tier::Full);
    EXPECT_EQ(policy.tierOf("CalcHourglassControlForElems"), Tier::Sampled);
    EXPECT_EQ(policy.tierOf("unknown"), Tier::Off);
    EXPECT_EQ(policy.countOf(Tier::Full), 2u);
    EXPECT_EQ(policy.countOf(Tier::Sampled), 1u);
    const RegionPolicy* sampled = policy.policyOf("CalcHourglassControlForElems");
    ASSERT_NE(sampled, nullptr);
    EXPECT_EQ(sampled->sampling.everyN, 64u);
    EXPECT_EQ(sampled->sampling.minIntervalNs, 500u);
}

TEST(Policy, SetRegionOffRemovesAndFullClearsSpec) {
    InstrumentationPolicy policy = samplePolicy();
    policy.setRegion("Amul", {Tier::Off, {}});
    EXPECT_EQ(policy.size(), 2u);
    EXPECT_FALSE(policy.contains("Amul"));

    policy.setRegion("CalcHourglassControlForElems", {Tier::Full, {8, 9}});
    const RegionPolicy* region = policy.policyOf("CalcHourglassControlForElems");
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(region->tier, Tier::Full);
    EXPECT_TRUE(region->sampling.unsampled());
}

TEST(Policy, FullOfIsTheBinaryDegenerateCase) {
    InstrumentationConfig ic = sampleIc();
    ic.staticIds["Amul"] = 0x01000005u;
    InstrumentationPolicy policy = InstrumentationPolicy::fullOf(ic);
    EXPECT_EQ(policy.size(), ic.size());
    for (const std::string& name : ic.functions) {
        EXPECT_EQ(policy.tierOf(name), Tier::Full);
    }
    // Projecting back yields the identical binary IC.
    InstrumentationConfig round = policy.patchSet();
    EXPECT_EQ(round.functions, ic.functions);
    EXPECT_EQ(round.staticIds, ic.staticIds);
}

TEST(Policy, JsonRoundTripPreservesTiersAndSpecs) {
    InstrumentationPolicy policy = samplePolicy();
    policy.staticIds["Amul"] = 0x01000005u;
    InstrumentationPolicy round = InstrumentationPolicy::fromJson(policy.toJson());
    EXPECT_EQ(round.functions, policy.functions);
    EXPECT_EQ(round.regions, policy.regions);
    EXPECT_EQ(round.specName, "kernels");
    EXPECT_EQ(round.staticIds.at("Amul"), 0x01000005u);
    EXPECT_EQ(round.fingerprint(), policy.fingerprint());
}

TEST(Policy, AssignRegionsMatchesSetRegionInOrder) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        capi::support::SplitMix64 rng(seed);
        std::vector<std::pair<std::string, RegionPolicy>> entries;
        InstrumentationPolicy reference;
        for (int i = 0; i < 400; ++i) {
            RegionPolicy region;
            region.tier = static_cast<Tier>(rng.nextBelow(3));
            region.sampling.everyN = static_cast<std::uint32_t>(1 + rng.nextBelow(64));
            region.sampling.minIntervalNs = rng.nextBelow(2) * 500;
            entries.emplace_back("r" + std::to_string(rng.nextBelow(150)), region);
            reference.setRegion(entries.back().first, region);
        }
        InstrumentationPolicy bulk;
        bulk.assignRegions(entries);
        EXPECT_EQ(bulk.functions, reference.functions) << "seed=" << seed;
        EXPECT_EQ(bulk.regions, reference.regions) << "seed=" << seed;
        EXPECT_EQ(bulk.fingerprint(), reference.fingerprint()) << "seed=" << seed;

        // fromJson reads entries in document order through the same helper.
        capi::support::Json doc = capi::support::Json::object();
        doc["format"] = capi::support::Json("capi-policy/1");
        capi::support::Json regions = capi::support::Json::array();
        for (const auto& [name, region] : entries) {
            capi::support::Json entry = capi::support::Json::object();
            entry["name"] = capi::support::Json(name);
            entry["tier"] = capi::support::Json(capi::select::tierName(region.tier));
            entry["everyN"] = capi::support::Json(
                static_cast<std::int64_t>(region.sampling.everyN));
            entry["minIntervalNs"] = capi::support::Json(
                static_cast<std::int64_t>(region.sampling.minIntervalNs));
            regions.push_back(entry);
        }
        doc["regions"] = regions;
        EXPECT_EQ(InstrumentationPolicy::fromJson(doc).fingerprint(),
                  reference.fingerprint())
            << "seed=" << seed;
    }
}

TEST(Policy, DiffClassifiesEveryTransition) {
    InstrumentationPolicy from;
    from.setRegion("a", {Tier::Full, {}});         // stays
    from.setRegion("b", {Tier::Full, {}});         // demoted
    from.setRegion("c", {Tier::Sampled, {64, 0}}); // promoted
    from.setRegion("d", {Tier::Sampled, {64, 0}}); // regated
    from.setRegion("e", {Tier::Full, {}});         // removed

    InstrumentationPolicy to;
    to.setRegion("a", {Tier::Full, {}});
    to.setRegion("b", {Tier::Sampled, {8, 0}});
    to.setRegion("c", {Tier::Full, {}});
    to.setRegion("d", {Tier::Sampled, {8, 0}});
    to.setRegion("f", {Tier::Sampled, {64, 0}});   // added

    PolicyDelta delta = capi::select::policyDiff(from, to);
    EXPECT_EQ(delta.added, std::vector<std::string>{"f"});
    EXPECT_EQ(delta.removed, std::vector<std::string>{"e"});
    EXPECT_EQ(delta.promoted, std::vector<std::string>{"c"});
    EXPECT_EQ(delta.demoted, std::vector<std::string>{"b"});
    EXPECT_EQ(delta.regated, std::vector<std::string>{"d"});
    EXPECT_FALSE(delta.empty());
    EXPECT_TRUE(capi::select::policyDiff(to, to).empty());
}

TEST(Policy, FingerprintTracksTierAndSpecChanges) {
    InstrumentationPolicy policy = samplePolicy();
    const std::uint64_t base = policy.fingerprint();
    EXPECT_EQ(samplePolicy().fingerprint(), base);

    InstrumentationPolicy retiered = samplePolicy();
    retiered.setRegion("Amul", {Tier::Sampled, {64, 0}});
    EXPECT_NE(retiered.fingerprint(), base);

    InstrumentationPolicy regated = samplePolicy();
    regated.setRegion("CalcHourglassControlForElems", {Tier::Sampled, {8, 500}});
    EXPECT_NE(regated.fingerprint(), base);
}

}  // namespace
