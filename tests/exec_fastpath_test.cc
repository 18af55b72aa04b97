/**
 * @file
 * Bit-identity of the predecoded fast execution engine against the
 * reference interpreter: cycles, full EventCounts, platform PMC
 * readings (with and without fault injection), campaign checkpoint
 * bytes at any thread count, and cooperative cancellation behaviour
 * must all be indistinguishable between the two engines. Also
 * covers model reuse: a reset model, the thread's pooled model across
 * workloads of different memory sizes, and a rewound arena handed to
 * a tenant of a different shape, run bit-identically to fresh
 * construction, and the warm run loop allocates nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "gemstone/campaign.hh"
#include "gemstone/runner.hh"
#include "hwsim/faults.hh"
#include "hwsim/platform.hh"
#include "isa/program.hh"
#include "uarch/core.hh"
#include "uarch/system.hh"
#include "util/arena.hh"
#include "util/cancellation.hh"
#include "workload/kernels.hh"
#include "workload/workload.hh"

using namespace gemstone;
using namespace gemstone::core;
using workload::Suite;
using workload::Workload;

namespace {

/** Scoped process-wide engine override, always reset on exit. */
struct EngineGuard
{
    explicit EngineGuard(uarch::ExecEngine e)
    {
        uarch::setExecEngineOverride(e);
    }
    ~EngineGuard()
    {
        uarch::setExecEngineOverride(uarch::ExecEngine::Fast, true);
    }
};

/** Run one program on a fresh cluster with the given engine. */
uarch::RunResult
runWith(uarch::ExecEngine engine, const uarch::ClusterConfig &config,
        const Workload &work)
{
    uarch::ClusterModel cluster(config);
    cluster.setExecEngine(engine);
    work.prepareMemory(cluster.memory());
    return cluster.run(work.program, work.numThreads, 1.0);
}

/** Full bit-identity of two runs: cycles and every event count. */
void
expectRunsIdentical(const uarch::RunResult &reference,
                    const uarch::RunResult &fast,
                    const std::string &context)
{
    SCOPED_TRACE(context);
    // Exact double equality is intentional: the contract is
    // bit-identical, not approximately equal.
    EXPECT_EQ(reference.cycles, fast.cycles);
    EXPECT_EQ(reference.seconds, fast.seconds);
    EXPECT_EQ(reference.frequencyGhz, fast.frequencyGhz);
    EXPECT_EQ(reference.instructions, fast.instructions);
    EXPECT_EQ(reference.aggregate.toMap(), fast.aggregate.toMap());
    ASSERT_EQ(reference.perCore.size(), fast.perCore.size());
    for (std::size_t i = 0; i < reference.perCore.size(); ++i)
        EXPECT_EQ(reference.perCore[i].toMap(),
                  fast.perCore[i].toMap())
            << "core " << i;
}

/** The two hardware cluster shapes, sized for one workload. */
uarch::ClusterConfig
bigConfig(std::uint64_t mem_bytes)
{
    uarch::ClusterConfig config = hwsim::trueBigConfig();
    config.memBytes = mem_bytes;
    return config;
}

uarch::ClusterConfig
littleConfig(std::uint64_t mem_bytes)
{
    uarch::ClusterConfig config = hwsim::trueLittleConfig();
    config.memBytes = mem_bytes;
    return config;
}

std::uint64_t
memBytesFor(const Workload &work)
{
    return std::max<std::uint64_t>(work.memBytes, 64 * 1024);
}

/** Both engines on both cluster shapes for one workload. */
void
crossValidate(const Workload &work)
{
    uarch::ClusterConfig big = bigConfig(memBytesFor(work));
    expectRunsIdentical(
        runWith(uarch::ExecEngine::Reference, big, work),
        runWith(uarch::ExecEngine::Fast, big, work), "A15 config");

    uarch::ClusterConfig little = littleConfig(big.memBytes);
    expectRunsIdentical(
        runWith(uarch::ExecEngine::Reference, little, work),
        runWith(uarch::ExecEngine::Fast, little, work), "A7 config");
}

/** Wrap a raw program into a runnable workload. */
Workload
wrapProgram(isa::Program program, unsigned threads = 1)
{
    Workload work;
    work.name = program.name;
    work.suite = "test";
    work.program = std::move(program);
    work.numThreads = threads;
    work.memBytes = 64 * 1024;
    return work;
}

/** One faulted campaign with the given engine and thread count. */
CampaignResult
faultedCampaign(uarch::ExecEngine engine, unsigned jobs)
{
    EngineGuard guard(engine);
    ExperimentRunner runner{RunnerConfig{}};
    runner.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignConfig policy;
    policy.jobs = jobs;
    CampaignEngine campaign(runner, policy);
    return campaign.runValidation(hwsim::CpuCluster::BigA15,
                                  {1000.0});
}

} // namespace

// ---------------------------------------------------------------------
// Engine selection plumbing
// ---------------------------------------------------------------------

TEST(ExecEngineSelection, EnvVarSelectsReferenceEngine)
{
    ASSERT_EQ(uarch::defaultExecEngine(), uarch::ExecEngine::Fast);

    ::setenv("GEMSTONE_REFERENCE_EXEC", "1", 1);
    EXPECT_EQ(uarch::defaultExecEngine(),
              uarch::ExecEngine::Reference);
    ::setenv("GEMSTONE_REFERENCE_EXEC", "0", 1);
    EXPECT_EQ(uarch::defaultExecEngine(), uarch::ExecEngine::Fast);
    ::setenv("GEMSTONE_REFERENCE_EXEC", "yes", 1);
    EXPECT_EQ(uarch::defaultExecEngine(),
              uarch::ExecEngine::Reference);

    // The programmatic override wins over the environment.
    {
        EngineGuard guard(uarch::ExecEngine::Fast);
        EXPECT_EQ(uarch::defaultExecEngine(),
                  uarch::ExecEngine::Fast);
    }
    ::unsetenv("GEMSTONE_REFERENCE_EXEC");
    EXPECT_EQ(uarch::defaultExecEngine(), uarch::ExecEngine::Fast);
}

TEST(ExecEngineSelection, CoresInheritTheDefaultAtConstruction)
{
    EngineGuard guard(uarch::ExecEngine::Reference);
    uarch::ClusterConfig config = hwsim::trueLittleConfig();
    config.memBytes = 64 * 1024;
    uarch::ClusterModel cluster(config);
    for (const auto &core : cluster.cores())
        EXPECT_EQ(core->execEngine(), uarch::ExecEngine::Reference);
    cluster.setExecEngine(uarch::ExecEngine::Fast);
    for (const auto &core : cluster.cores())
        EXPECT_EQ(core->execEngine(), uarch::ExecEngine::Fast);
}

// ---------------------------------------------------------------------
// Directed edge cases: programs chosen to stress predecode block
// boundaries and flag-driven side effects.
// ---------------------------------------------------------------------

TEST(ExecFastpathEdges, StrexWithoutReservationFails)
{
    isa::ProgramBuilder b("strex-fail");
    b.movi(1, 64);
    b.movi(2, 7);
    b.movi(5, 200);
    b.label("loop");
    // STREX with no open reservation must fail (and charge the
    // failure cost) identically in both engines.
    b.strex(0, 2, 1);
    b.ldrex(3, 1);
    b.strex(0, 2, 1);   // succeeds: reservation open
    b.subi(5, 5, 1);
    b.bne(5, "loop");
    b.halt();
    crossValidate(wrapProgram(b.build()));
}

TEST(ExecFastpathEdges, UnalignedAndByteAccesses)
{
    isa::ProgramBuilder b("unaligned");
    b.movi(1, 129);     // odd base: 8-byte accesses are unaligned
    b.movi(5, 300);
    b.label("loop");
    b.ldr(2, 1, 0);
    b.str(2, 1, 8);
    b.ldrb(3, 1, 3);    // byte accesses are never unaligned
    b.strb(3, 1, 5);
    b.subi(5, 5, 1);
    b.bne(5, "loop");
    b.halt();
    crossValidate(wrapProgram(b.build()));
}

TEST(ExecFastpathEdges, DivisionEdgeCases)
{
    isa::ProgramBuilder b("div-edges");
    b.movi(1, -9223372036854775807LL - 1);  // INT64_MIN
    b.movi(2, -1);
    b.movi(3, 0);
    b.movi(4, 7);
    b.movi(5, 150);
    b.label("loop");
    b.divr(6, 1, 2);    // INT64_MIN / -1 overflow case
    b.divr(7, 4, 3);    // divide by zero
    b.divr(8, 1, 4);
    b.fmovi(9, 1.0);
    b.fmovi(10, 0.0);
    b.fdiv(11, 9, 10);  // FP divide by zero -> inf
    b.subi(5, 5, 1);
    b.bne(5, "loop");
    b.halt();
    crossValidate(wrapProgram(b.build()));
}

TEST(ExecFastpathEdges, IndirectBranchIntoMidBlock)
{
    // A computed branch landing in the middle of a straight-line
    // stretch: the fast engine must execute the tail of the block
    // from an address that is not a block leader.
    isa::ProgramBuilder b("mid-block-entry");
    b.movi(5, 400);
    b.movi(6, 0);
    b.label("loop");
    b.movi(7, 1);
    b.andr(7, 6, 7);
    b.lsl(7, 7, 1);     // offset 0 or 2 by parity of r6
    b.movi(9, 8);       // landing-area base (asserted below)
    b.add(9, 9, 7);
    b.bidx(9);
    ASSERT_EQ(b.here(), 8u);  // keep the movi above in sync
    b.add(10, 6, 5);    // landing +0: a stretch leader
    b.sub(10, 10, 6);
    b.eor(10, 10, 5);   // landing +2: mid-stretch entry
    b.orr(10, 10, 6);
    b.addi(6, 6, 1);
    b.subi(5, 5, 1);
    b.bne(5, "loop");
    b.halt();
    crossValidate(wrapProgram(b.build()));
}

TEST(ExecFastpathEdges, CallReturnAndBarriers)
{
    isa::ProgramBuilder b("call-ret-sync");
    b.movi(5, 120);
    b.label("loop");
    b.bl("leaf");
    b.dmb();
    b.isb();
    b.subi(5, 5, 1);
    b.bne(5, "loop");
    b.halt();
    b.label("leaf");
    b.addi(0, 0, 1);
    b.ret();
    crossValidate(wrapProgram(b.build()));
}

TEST(ExecFastpathEdges, MultiThreadedSharedCounter)
{
    // LDREX/STREX contention across cores: strex failures depend on
    // the exact round-robin interleaving, which the quantum-preserving
    // fast engine must reproduce.
    Workload work = workload::kernels::makeSpinLock(
        "fastpath-spin", "test", 400, 4);
    crossValidate(work);
}

// ---------------------------------------------------------------------
// Full-suite cross-validation: every workload kernel, both cluster
// shapes, exact equality of cycles and every event count.
// ---------------------------------------------------------------------

class EveryWorkloadBitIdentical
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(EveryWorkloadBitIdentical, FastMatchesReference)
{
    crossValidate(Suite::all()[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryWorkloadBitIdentical,
    ::testing::Range<std::size_t>(0, 65),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = Suite::all()[info.param].name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Platform level: PMC readings, timing medians and power must be
// bit-identical, with and without fault injection.
// ---------------------------------------------------------------------

namespace {

void
expectMeasurementsIdentical(const hwsim::HwMeasurement &reference,
                            const hwsim::HwMeasurement &fast)
{
    SCOPED_TRACE(reference.workload);
    EXPECT_EQ(reference.execSeconds, fast.execSeconds);
    EXPECT_EQ(reference.repeatSeconds, fast.repeatSeconds);
    EXPECT_EQ(reference.pmc, fast.pmc);
    EXPECT_EQ(reference.powerWatts, fast.powerWatts);
    EXPECT_EQ(reference.temperatureC, fast.temperatureC);
    EXPECT_EQ(reference.throttled, fast.throttled);
    EXPECT_EQ(reference.groundTruth.toMap(),
              fast.groundTruth.toMap());
}

hwsim::HwMeasurement
measureWith(uarch::ExecEngine engine, const Workload &work,
            hwsim::CpuCluster cluster, double freq_mhz,
            unsigned attempt, bool faults)
{
    EngineGuard guard(engine);
    hwsim::OdroidXu3Platform board;
    if (faults)
        board.injectFaults(hwsim::FaultConfig::labMix());
    return board.measureAttempt(work, cluster, freq_mhz, attempt, 3);
}

} // namespace

TEST(ExecFastpathPlatform, PmcAndPowerIdenticalAcrossEngines)
{
    for (const char *name : {"mi-crc32", "whetstone"}) {
        const Workload &work = Suite::byName(name);
        expectMeasurementsIdentical(
            measureWith(uarch::ExecEngine::Reference, work,
                        hwsim::CpuCluster::BigA15, 1000.0, 0, false),
            measureWith(uarch::ExecEngine::Fast, work,
                        hwsim::CpuCluster::BigA15, 1000.0, 0, false));
    }
}

TEST(ExecFastpathPlatform, FaultedMeasurementsIdenticalAcrossEngines)
{
    // Attempts that the fault planner fails must fail with the same
    // fault either way; attempts that succeed must be bit-identical.
    const Workload &work = Suite::byName("mi-crc32");
    auto attemptWith = [&](uarch::ExecEngine engine, unsigned attempt,
                           hwsim::HwMeasurement &out) -> std::string {
        try {
            out = measureWith(engine, work,
                              hwsim::CpuCluster::LittleA7, 600.0,
                              attempt, true);
            return {};
        } catch (const hwsim::RunError &error) {
            return error.what();
        }
    };
    unsigned successes = 0;
    unsigned faults = 0;
    for (unsigned attempt = 0; attempt < 6; ++attempt) {
        SCOPED_TRACE("attempt " + std::to_string(attempt));
        hwsim::HwMeasurement reference, fast;
        std::string reference_fault =
            attemptWith(uarch::ExecEngine::Reference, attempt,
                        reference);
        std::string fast_fault =
            attemptWith(uarch::ExecEngine::Fast, attempt, fast);
        EXPECT_EQ(reference_fault, fast_fault);
        if (reference_fault.empty() && fast_fault.empty()) {
            ++successes;
            expectMeasurementsIdentical(reference, fast);
        } else {
            ++faults;
        }
    }
    // The attempt window must exercise both outcomes.
    EXPECT_GT(successes, 0u);
    EXPECT_GT(faults, 0u);
}

// ---------------------------------------------------------------------
// Campaign level: the collated dataset (the checkpoint/CSV bytes)
// must be identical between engines at any thread count, under
// fault injection.
// ---------------------------------------------------------------------

TEST(ExecFastpathCampaign, CheckpointBytesIdenticalAtAnyJobCount)
{
    CampaignResult reference =
        faultedCampaign(uarch::ExecEngine::Reference, 1);
    // The fault mix must actually bite for this to prove anything.
    ASSERT_GT(reference.totalFailures + reference.totalRejected, 0u);

    CampaignResult fast_serial =
        faultedCampaign(uarch::ExecEngine::Fast, 1);
    CampaignResult fast_parallel =
        faultedCampaign(uarch::ExecEngine::Fast, 4);

    for (const CampaignResult *fast :
         {&fast_serial, &fast_parallel}) {
        EXPECT_EQ(reference.dataset.toCsv(), fast->dataset.toCsv());
        EXPECT_EQ(reference.measuredPoints, fast->measuredPoints);
        EXPECT_EQ(reference.totalAttempts, fast->totalAttempts);
        EXPECT_EQ(reference.totalFailures, fast->totalFailures);
        EXPECT_EQ(reference.totalRejected, fast->totalRejected);
        EXPECT_EQ(reference.warnings, fast->warnings);
    }
}

// ---------------------------------------------------------------------
// Cancellation: the fast engine must still reach the cooperative
// checkpoint at the same cadence (the poll sits on the scheduling
// round, and quantum boundaries are preserved exactly).
// ---------------------------------------------------------------------

TEST(ExecFastpathCancel, CancelStillLandsPromptly)
{
    Workload work = workload::kernels::makeWhetstone(
        "fastpath-cancel", "test", 4'000'000);
    uarch::ClusterConfig config = hwsim::trueBigConfig();
    config.memBytes = 64 * 1024;
    uarch::ClusterModel cluster(config);
    cluster.setExecEngine(uarch::ExecEngine::Fast);
    work.prepareMemory(cluster.memory());

    CancellationToken token;
    token.requestCancel();
    CoopScope scope(token, Deadline(), "fastpath-cancel");
    EXPECT_THROW(cluster.run(work.program, work.numThreads, 1.0),
                 CancelledError);
}

// ---------------------------------------------------------------------
// Arena-backed reuse: reset() identity and the zero-alloc contract
// ---------------------------------------------------------------------

TEST(ExecFastpathReuse, ResetModelMatchesFreshModelBitIdentically)
{
    Workload work = workload::kernels::makeStreamCopy(
        "t-reuse-stream", "test", 512, 3);
    uarch::ClusterConfig config = bigConfig(memBytesFor(work));

    uarch::ClusterModel fresh(config);
    work.prepareMemory(fresh.memory());
    uarch::RunResult baseline =
        fresh.run(work.program, work.numThreads, 1.0);

    // One model, three consecutive runs through reset(): every rerun
    // must reproduce the fresh-model result exactly, or reset() is
    // leaking state between runs.
    uarch::ClusterModel reused(config);
    for (int round = 0; round < 3; ++round) {
        reused.reset();
        reused.memory().clear();
        work.prepareMemory(reused.memory());
        uarch::RunResult again;
        reused.runInto(work.program, work.numThreads, 1.0, again);
        expectRunsIdentical(baseline, again, "reset-vs-fresh round");
    }
}

TEST(ExecFastpathReuse, PooledModelResizesMemoryPerWorkload)
{
    // The thread's one pooled A15 model serves a 16 MB workload, a
    // 64 KB one and the 16 MB one again: each run must match a fresh
    // model sized for that workload, memory size included.
    const Workload &big = Suite::byName("lm-lat-mem-rd-dram");
    Workload small = workload::kernels::makeStreamCopy(
        "t-pooled-small", "test", 512, 3);
    ASSERT_GT(big.memBytes, 16u << 20);
    ASSERT_LE(memBytesFor(small), 64u * 1024);

    const Workload *order[] = {&big, &small, &big};
    for (const Workload *work : order) {
        SCOPED_TRACE(work->name);
        const std::uint64_t mem_bytes = memBytesFor(*work);
        uarch::ClusterModel fresh(bigConfig(mem_bytes));
        work->prepareMemory(fresh.memory());
        uarch::RunResult expected =
            fresh.run(work->program, work->numThreads, 1.0);

        uarch::ClusterModel &pooled =
            hwsim::pooledModel(hwsim::CpuCluster::BigA15, mem_bytes);
        EXPECT_EQ(pooled.memory().size(), fresh.memory().size());
        EXPECT_EQ(pooled.memory().size(), std::bit_ceil(mem_bytes));
        work->prepareMemory(pooled.memory());
        uarch::RunResult again;
        pooled.runInto(work->program, work->numThreads, 1.0, again);
        expectRunsIdentical(expected, again, "pooled vs fresh");
    }
}

TEST(ExecFastpathReuse, WarmQuantumLoopMakesZeroHeapAllocations)
{
    if (!mallocTallyActive())
        GTEST_SKIP() << "counting operator new not linked "
                        "(sanitizer build)";

    Workload work = workload::kernels::makeStreamCopy(
        "t-zeroalloc-stream", "test", 512, 3);
    uarch::ClusterConfig config = bigConfig(memBytesFor(work));

    uarch::ClusterModel cluster(config);
    // Warm-up run: predecode cache fill, RunResult vector growth.
    cluster.reset();
    work.prepareMemory(cluster.memory());
    uarch::RunResult result;
    cluster.runInto(work.program, work.numThreads, 1.0, result);

    // Steady state: the whole simulated run — quantum loop, cache/TLB
    // machinery, result aggregation — must not touch the heap.
    cluster.reset();
    work.prepareMemory(cluster.memory());
    MallocTallySnapshot before = mallocTally();
    cluster.runInto(work.program, work.numThreads, 1.0, result);
    MallocTallySnapshot after = mallocTally();
    EXPECT_EQ(after.allocs - before.allocs, 0u)
        << "steady-state runInto must perform zero heap allocations";
    EXPECT_EQ(after.bytes - before.bytes, 0u);
    EXPECT_GT(result.instructions, 0u);
}

// ---------------------------------------------------------------------
// Arena reuse across different configs: a reset arena must re-carve
// every table (including the cache probe hints and the TLB
// last-translation entries) bit-identically to fresh construction,
// even when the next tenant has a different shape.
// ---------------------------------------------------------------------

TEST(BatchArena, ArenaResetAcrossDifferentConfigsIsBitIdentical)
{
    Workload work = workload::kernels::makeDhrystone("b-dhry", "test",
                                                     4000);
    std::uint64_t mem = memBytesFor(work);
    uarch::ClusterConfig config_a = bigConfig(mem);
    uarch::ClusterConfig config_b = littleConfig(mem);

    std::vector<uarch::RunResult> expected;
    for (const uarch::ClusterConfig *config :
         {&config_a, &config_b}) {
        uarch::ClusterModel standalone(*config);
        work.prepareMemory(standalone.memory());
        expected.push_back(
            standalone.run(work.program, work.numThreads, 1.0));
    }

    // One arena, alternating tenants of different shapes: dirty the
    // arena with config A, rewind, hand it to config B (and back).
    // Any table whose initial bytes depend on what the previous
    // tenant left behind breaks the identity.
    Arena arena(1 << 20);
    for (int round = 0; round < 2; ++round) {
        {
            uarch::ClusterModel model_a(config_a, &arena);
            work.prepareMemory(model_a.memory());
            expectRunsIdentical(
                expected[0],
                model_a.run(work.program, work.numThreads, 1.0),
                "config A, arena round " + std::to_string(round));
        }
        arena.reset();
        {
            uarch::ClusterModel model_b(config_b, &arena);
            work.prepareMemory(model_b.memory());
            expectRunsIdentical(
                expected[1],
                model_b.run(work.program, work.numThreads, 1.0),
                "config B, arena round " + std::to_string(round));
        }
        arena.reset();
    }
}
