/**
 * @file
 * Unit tests for the DRAM model and the event/retiming machinery.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "uarch/dram.hh"
#include "uarch/events.hh"
#include "util/random.hh"

using namespace gemstone::uarch;

TEST(Dram, RowHitFasterThanRowMiss)
{
    DramConfig cfg;
    Dram dram(cfg);
    CacheAccessResult first = dram.access(0, false, false);
    CacheAccessResult second = dram.access(64, false, false);
    EXPECT_DOUBLE_EQ(first.dramNs, cfg.rowMissNs);   // row opened
    EXPECT_DOUBLE_EQ(second.dramNs, cfg.rowHitNs);   // same row
    EXPECT_DOUBLE_EQ(first.latency, 0.0);  // all cost is wall-clock
}

TEST(Dram, DifferentRowsMiss)
{
    DramConfig cfg;
    Dram dram(cfg);
    dram.access(0, false, false);
    CacheAccessResult far = dram.access(
        std::uint64_t(cfg.rowBytes) * cfg.banks, false, false);
    EXPECT_DOUBLE_EQ(far.dramNs, cfg.rowMissNs);  // same bank, new row
}

TEST(Dram, BanksTrackIndependentRows)
{
    DramConfig cfg;
    Dram dram(cfg);
    dram.access(0, false, false);                 // bank 0 row 0
    dram.access(cfg.rowBytes, false, false);      // bank 1 row 1
    // Returning to bank 0's open row still hits.
    CacheAccessResult back = dram.access(32, false, false);
    EXPECT_DOUBLE_EQ(back.dramNs, cfg.rowHitNs);
}

TEST(Dram, StatsCountReadsWritesAndRowOutcomes)
{
    DramConfig cfg;
    Dram dram(cfg);
    dram.access(0, false, false);
    dram.access(8, true, false);
    dram.access(cfg.rowBytes * cfg.banks, false, false);
    const DramStats &s = dram.stats();
    EXPECT_EQ(s.reads, 2u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.rowHits + s.rowMisses, 3u);
    EXPECT_EQ(s.rowMisses, 2u);
}

TEST(Dram, FlushClosesRows)
{
    DramConfig cfg;
    Dram dram(cfg);
    dram.access(0, false, false);
    dram.flush();
    CacheAccessResult after = dram.access(0, false, false);
    EXPECT_DOUBLE_EQ(after.dramNs, cfg.rowMissNs);
}

TEST(Dram, InvalidBankCountFatals)
{
    DramConfig cfg;
    cfg.banks = 3;
    EXPECT_EXIT({ Dram bad(cfg); }, ::testing::ExitedWithCode(1),
                "power of two");
}

// ---------------------------------------------------------------------
// EventCounts
// ---------------------------------------------------------------------

TEST(EventCountsTest, MergeSumsCountsAndMaxesCycles)
{
    EventCounts a;
    a.cycles = 100.0;
    a.instructions = 10;
    a.l1dMisses = 3;
    EventCounts b;
    b.cycles = 250.0;
    b.instructions = 20;
    b.l1dMisses = 4;

    EventCounts total;
    total.merge(a);
    total.merge(b);
    EXPECT_DOUBLE_EQ(total.cycles, 250.0);  // parallel cores: max
    EXPECT_EQ(total.instructions, 30u);     // counts: sum
    EXPECT_EQ(total.l1dMisses, 7u);
}

TEST(EventCountsTest, ToMapRoundTripsKeyFields)
{
    EventCounts e;
    e.cycles = 123.0;
    e.instructions = 456;
    e.branchMispredicts = 7;
    e.dramStallNs = 89.5;
    auto m = e.toMap();
    EXPECT_DOUBLE_EQ(m.at("cycles"), 123.0);
    EXPECT_DOUBLE_EQ(m.at("instructions"), 456.0);
    EXPECT_DOUBLE_EQ(m.at("branchMispredicts"), 7.0);
    EXPECT_DOUBLE_EQ(m.at("dramStallNs"), 89.5);
    EXPECT_GT(m.size(), 50u);  // the record is comprehensive
}

TEST(EventCountsTest, SetFieldInvertsToMapForEveryField)
{
    // Distinct exact values for every field, the largest count a
    // double carries exactly among them.
    std::map<std::string, double> expected = EventCounts{}.toMap();
    double next = 1.0;
    for (auto &[name, value] : expected)
        value = next++;
    expected["instructions"] = 9007199254740991.0;  // 2^53 - 1
    expected["cycles"] = 1.0 / 3.0;
    expected["dramStallNs"] = 4.94e-324;

    EventCounts e;
    for (const auto &[name, value] : expected)
        EXPECT_TRUE(e.setField(name, value)) << name;
    EXPECT_EQ(e.toMap(), expected);
    EXPECT_EQ(e.instructions, 9007199254740991ULL);

    // Setting a field again is last-wins.
    EXPECT_TRUE(e.setField("l2Misses", 12.0));
    EXPECT_EQ(e.l2Misses, 12u);
}

TEST(EventCountsTest, FieldGetterWalkEqualsToMap)
{
    // The store encoder walks (fieldNames()[i], fieldAt(i)) instead of
    // building toMap(): same names, same order, same values.
    const std::span<const std::string_view> names =
        EventCounts::fieldNames();
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        gemstone::Rng rng(seed);
        EventCounts e;
        for (std::size_t i = 0; i < names.size(); ++i)
            ASSERT_TRUE(e.setFieldAt(i, rng.uniform(0.0, 1e12)));
        using Pairs = std::vector<std::pair<std::string, double>>;
        Pairs walk;
        for (std::size_t i = 0; i < names.size(); ++i)
            walk.emplace_back(std::string(names[i]), e.fieldAt(i));
        const std::map<std::string, double> map = e.toMap();
        EXPECT_EQ(walk, Pairs(map.begin(), map.end())) << "seed " << seed;
    }
}

TEST(EventCountsTest, SetFieldRejectsUnknownNames)
{
    EventCounts e;
    const std::map<std::string, double> before = e.toMap();
    for (const char *name :
         {"", "cycle", "cyclesX", "Cycles", "gt_cycles", "zzz", "aaa"})
        EXPECT_FALSE(e.setField(name, 5.0)) << name;
    EXPECT_EQ(e.toMap(), before);
}

TEST(EventCountsTest, SetFieldRejectsCountsTheFieldCannotHold)
{
    // A bit-rotted store value must not reach an undefined
    // double-to-unsigned cast.
    EventCounts e;
    e.instructions = 7;
    for (double bad : {-1.0, -0.5, 18446744073709551616.0, 1e300,
                       std::numeric_limits<double>::quiet_NaN()})
        EXPECT_FALSE(e.setField("instructions", bad)) << bad;
    EXPECT_EQ(e.instructions, 7u);
    EXPECT_TRUE(e.setField("instructions", 0.0));
    EXPECT_EQ(e.instructions, 0u);
    // Time and stall fields are doubles and take any value.
    EXPECT_TRUE(e.setField("dramStallNs", -2.5));
    EXPECT_EQ(e.dramStallNs, -2.5);
}

TEST(EventCountsTest, DerivedMetrics)
{
    EventCounts e;
    e.cycles = 200.0;
    e.instructions = 100;
    e.branches = 50;
    e.branchMispredicts = 5;
    EXPECT_DOUBLE_EQ(e.ipc(), 0.5);
    EXPECT_DOUBLE_EQ(e.branchAccuracy(), 0.9);

    EventCounts empty;
    EXPECT_DOUBLE_EQ(empty.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(empty.branchAccuracy(), 1.0);
}
