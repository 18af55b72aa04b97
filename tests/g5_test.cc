/**
 * @file
 * Tests of the g5 simulator facade: configurations carry the
 * documented specification errors, the stats dump has gem5 shape,
 * and the two simulator versions differ exactly as Section VII says.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "g5/config.hh"
#include "g5/simulator.hh"
#include "hwsim/platform.hh"
#include "isa/memory.hh"
#include "util/random.hh"
#include "workload/workload.hh"

using namespace gemstone;
using namespace gemstone::g5;

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

TEST(Ex5Config, BigCarriesDocumentedSpecErrors)
{
    uarch::ClusterConfig model = ex5Config(G5Model::Ex5Big, 1);
    uarch::ClusterConfig truth = hwsim::trueBigConfig();

    // 64-entry L1 ITLB vs 32 on hardware (Section IV-F).
    EXPECT_EQ(model.core.itlb.entries, 64u);
    EXPECT_EQ(truth.core.itlb.entries, 32u);

    // Split 8-way L2 TLBs at 4 cycles vs shared 4-way at 2 cycles.
    EXPECT_FALSE(model.core.unifiedL2Tlb);
    EXPECT_TRUE(truth.core.unifiedL2Tlb);
    EXPECT_EQ(model.core.l2TlbInstr.assoc, 8u);
    EXPECT_DOUBLE_EQ(model.core.l2TlbInstr.latency, 4.0);

    // DRAM latency too low.
    EXPECT_LT(model.dram.rowMissNs, truth.dram.rowMissNs);
    EXPECT_LT(model.dram.rowHitNs, truth.dram.rowHitNs);

    // Always write-allocate, per-instruction I-cache lookup.
    EXPECT_FALSE(model.core.l1d.writeStreaming);
    EXPECT_EQ(model.core.fetchGroupInsts, 1u);

    // Over-aggressive prefetcher and cheap synchronisation.
    EXPECT_GT(model.l2.prefetchDegree, truth.l2.prefetchDegree);
    EXPECT_LT(model.core.barrierCost, truth.core.barrierCost);
    EXPECT_LT(model.core.exclusiveCost, truth.core.exclusiveCost);

    // The buggy branch predictor.
    EXPECT_EQ(model.core.bpKind, uarch::BpKind::Gshare);
    EXPECT_EQ(model.core.gshareConfig.version, 1);
}

TEST(Ex5Config, VersionTwoOnlyFixesTheBranchPredictor)
{
    uarch::ClusterConfig v1 = ex5Config(G5Model::Ex5Big, 1);
    uarch::ClusterConfig v2 = ex5Config(G5Model::Ex5Big, 2);
    EXPECT_EQ(v1.core.gshareConfig.version, 1);
    EXPECT_EQ(v2.core.gshareConfig.version, 2);
    // Everything else is unchanged between releases.
    EXPECT_EQ(v1.core.itlb.entries, v2.core.itlb.entries);
    EXPECT_DOUBLE_EQ(v1.dram.rowMissNs, v2.dram.rowMissNs);
    EXPECT_DOUBLE_EQ(v1.core.barrierCost, v2.core.barrierCost);
    EXPECT_EQ(v1.l2.prefetchDegree, v2.l2.prefetchDegree);
}

TEST(Ex5Config, LittleHasHighL2LatencyAndLowDram)
{
    uarch::ClusterConfig model = ex5Config(G5Model::Ex5Little, 1);
    uarch::ClusterConfig truth = hwsim::trueLittleConfig();
    EXPECT_GT(model.l2.hitLatency, truth.l2.hitLatency);
    EXPECT_LT(model.dram.rowMissNs, truth.dram.rowMissNs);
}

TEST(Ex5Config, InvalidVersionFatals)
{
    EXPECT_EXIT(ex5Config(G5Model::Ex5Big, 3),
                ::testing::ExitedWithCode(1), "version");
}

TEST(Ex5Config, ModelTags)
{
    EXPECT_EQ(modelTag(G5Model::Ex5Big), "ex5_big");
    EXPECT_EQ(modelTag(G5Model::Ex5Little), "ex5_LITTLE");
}

// ---------------------------------------------------------------------
// Simulation and the stats dump
// ---------------------------------------------------------------------

class G5Run : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        sim = new G5Simulation(1);
        stats = new G5Stats(sim->run(
            workload::Suite::byName("mi-dijkstra"),
            G5Model::Ex5Big, 1000.0));
    }
    static void TearDownTestSuite()
    {
        delete stats;
        delete sim;
    }
    static G5Simulation *sim;
    static G5Stats *stats;
};

G5Simulation *G5Run::sim = nullptr;
G5Stats *G5Run::stats = nullptr;

TEST_F(G5Run, DumpHasGem5StyleNames)
{
    for (const char *name :
         {"sim_seconds", "sim_insts",
          "system.cpu.numCycles",
          "system.cpu.committedInsts",
          "system.cpu.branchPred.condIncorrect",
          "system.cpu.branchPred.RASInCorrect",
          "system.cpu.icache.overall_accesses::total",
          "system.cpu.dcache.WriteReq_misses::total",
          "system.cpu.dcache.writebacks::total",
          "system.cpu.itb.misses",
          "system.cpu.itb_walker_cache.overall_accesses::total",
          "system.cpu.dtb_walker_cache.overall_accesses::total",
          "system.cpu.dtb.prefetch_faults",
          "system.cpu.iew.exec_nop",
          "system.cpu.fetch.TlbCycles",
          "system.cpu.commit.commitNonSpecStalls",
          "system.l2.ReadExReq_hits::total",
          "system.l2.overall_misses::total",
          "system.mem_ctrls.num_reads::total"}) {
        EXPECT_NE(StatDump::indexOf(name), StatDump::npos)
            << "missing " << name;
    }
    // The dump holds the whole schema, and it is rich, like a real
    // gem5 stats.txt.
    EXPECT_EQ(stats->stats.size(), StatDump::names().size());
    EXPECT_GT(stats->stats.size(), 100u);
}

TEST_F(G5Run, FpMisclassifiedAsSimd)
{
    // The counting quirk of Section V: scalar VFP lands in the SIMD
    // statistic and the FP statistic stays empty.
    G5Stats whet = sim->run(workload::Suite::byName("whetstone"),
                            G5Model::Ex5Big, 1000.0);
    EXPECT_DOUBLE_EQ(whet.value("system.cpu.commit.fp_insts"), 0.0);
    EXPECT_GT(whet.value("system.cpu.commit.simd_insts"), 100000.0);
    EXPECT_DOUBLE_EQ(
        whet.value("system.cpu.iq.FU_type_0::FloatAdd"), 0.0);
}

TEST_F(G5Run, ValueAndRateHelpers)
{
    double insts = stats->value("system.cpu.committedInsts");
    EXPECT_GT(insts, 100000.0);
    EXPECT_DOUBLE_EQ(stats->value("no.such.stat"), 0.0);
    EXPECT_NEAR(stats->rate("system.cpu.committedInsts"),
                insts / stats->simSeconds, 1e-6);
}

TEST_F(G5Run, SimSecondsConsistentWithCyclesAndFrequency)
{
    double cycles = stats->value("system.cpu.numCycles");
    EXPECT_NEAR(stats->simSeconds, cycles / 1e9,
                stats->simSeconds * 1e-9);
}

TEST_F(G5Run, StatsTextRendering)
{
    std::string text = stats->statsText();
    EXPECT_NE(text.find("Begin Simulation Statistics"),
              std::string::npos);
    EXPECT_NE(text.find("system.cpu.numCycles"), std::string::npos);
}

TEST_F(G5Run, StatsTextIsPinned)
{
    // The stats.txt rendering of this run, pinned by length and
    // FNV-1a 64 digest: the flat dump must render the same bytes, in
    // the same name order, as the name-keyed map it replaced.
    const std::string text = stats->statsText();
    std::uint64_t digest = 1469598103934665603ULL;
    for (unsigned char c : text) {
        digest ^= c;
        digest *= 1099511628211ULL;
    }
    EXPECT_EQ(text.size(), 8275u);
    EXPECT_EQ(digest, 0xf1364d666c74956bULL);
}

TEST(StatDump, SchemaIsSortedUniqueAndIndexed)
{
    const auto names = StatDump::names();
    ASSERT_EQ(names.size(), 141u);
    EXPECT_TRUE(std::adjacent_find(names.begin(), names.end(),
                                   [](std::string_view a,
                                      std::string_view b) {
                                       return !(a < b);
                                   }) == names.end());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(StatDump::indexOf(names[i]), i);
    EXPECT_EQ(StatDump::indexOf("no.such.stat"), StatDump::npos);
    EXPECT_EQ(StatDump::indexOf(""), StatDump::npos);
}

TEST(StatDump, BuildYieldsExactlyTheSchema)
{
    // Both models, and event records with every field random.
    const auto names = StatDump::names();
    const auto fields = uarch::EventCounts::fieldNames();
    Rng rng(0x57A7D);
    for (int trial = 0; trial < 8; ++trial) {
        uarch::EventCounts events;
        for (std::size_t f = 0; f < fields.size(); ++f) {
            ASSERT_TRUE(events.setFieldAt(
                f, static_cast<double>(rng.uniformInt(1u << 30))));
        }
        for (G5Model model : {G5Model::Ex5Big, G5Model::Ex5Little}) {
            const StatDump dump =
                buildStatDump(events, 1e-3 * (trial + 1), model);
            ASSERT_EQ(dump.size(), names.size());
            std::size_t i = 0;
            for (const auto &[name, value] : dump) {
                ASSERT_LT(i, names.size());
                EXPECT_EQ(name, names[i]);
                EXPECT_EQ(value, dump.value(name));
                ++i;
            }
            EXPECT_EQ(i, names.size());
        }
    }
}

TEST(StatDump, EmptyDumpReadsZeroUntilFirstSet)
{
    StatDump dump;
    EXPECT_TRUE(dump.empty());
    EXPECT_EQ(dump.value("sim_seconds"), 0.0);
    EXPECT_TRUE(dump.begin() == dump.end());

    dump.setAt(StatDump::indexOf("system.cpu.numCycles"), 4000.0);
    EXPECT_EQ(dump.size(), StatDump::names().size());
    EXPECT_EQ(dump.value("system.cpu.numCycles"), 4000.0);
    EXPECT_EQ(dump.value("sim_seconds"), 0.0);
    EXPECT_EQ(dump.value("no.such.stat"), 0.0);
}

TEST_F(G5Run, IpcWithinPhysicalBounds)
{
    double ipc = stats->value("system.cpu.ipc");
    EXPECT_GT(ipc, 0.05);
    EXPECT_LE(ipc, 3.3);  // issue width ceiling
}

TEST(G5BaseRun, AllocatesItsDataMemoryOnce)
{
    // The base run's new model comes with zeroed memory; preparing
    // the workload in it must not allocate and zero a second buffer.
    G5Simulation sim(1);
    const std::uint64_t before = isa::Memory::allocations();
    sim.run(workload::Suite::byName("mi-crc32"), G5Model::Ex5Big, 1000.0);
    EXPECT_EQ(isa::Memory::allocations() - before, 1u);
}

TEST_F(G5Run, DeterministicAcrossInstances)
{
    G5Simulation other(1);
    G5Stats again = other.run(
        workload::Suite::byName("mi-dijkstra"), G5Model::Ex5Big,
        1000.0);
    EXPECT_DOUBLE_EQ(again.simSeconds, stats->simSeconds);
    EXPECT_DOUBLE_EQ(
        again.value("system.cpu.commit.branchMispredicts"),
        stats->value("system.cpu.commit.branchMispredicts"));
}

TEST_F(G5Run, FrequencyRetimePreservesEvents)
{
    G5Stats fast = sim->run(workload::Suite::byName("mi-dijkstra"),
                            G5Model::Ex5Big, 1800.0);
    EXPECT_LT(fast.simSeconds, stats->simSeconds);
    EXPECT_DOUBLE_EQ(fast.value("system.cpu.committedInsts"),
                     stats->value("system.cpu.committedInsts"));
    EXPECT_DOUBLE_EQ(
        fast.value("system.cpu.dcache.overall_misses::total"),
        stats->value("system.cpu.dcache.overall_misses::total"));
}

TEST(G5Version, BuggyPredictorMispredictsMore)
{
    const workload::Workload &pattern =
        workload::Suite::byName("par-basicmath-rad2deg");
    G5Simulation v1(1);
    G5Simulation v2(2);
    G5Stats s1 = v1.run(pattern, G5Model::Ex5Big, 1000.0);
    G5Stats s2 = v2.run(pattern, G5Model::Ex5Big, 1000.0);

    double m1 = s1.value("system.cpu.commit.branchMispredicts");
    double m2 = s2.value("system.cpu.commit.branchMispredicts");
    EXPECT_GT(m1, 10.0 * m2);       // the storm
    EXPECT_GT(s1.simSeconds, 1.5 * s2.simSeconds);
    // Committed instructions are architectural: identical.
    EXPECT_DOUBLE_EQ(s1.value("system.cpu.committedInsts"),
                     s2.value("system.cpu.committedInsts"));
}

TEST(G5Version, InvalidVersionFatals)
{
    EXPECT_EXIT(G5Simulation bad(0), ::testing::ExitedWithCode(1),
                "version");
}
