/**
 * @file
 * Tests of the reference-platform model: PMU, power, thermal, DVFS
 * and the measurement harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "hwsim/faults.hh"
#include "hwsim/platform.hh"
#include "hwsim/pmu.hh"
#include "hwsim/power.hh"
#include "isa/memory.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/workload.hh"

using namespace gemstone;
using namespace gemstone::hwsim;

// ---------------------------------------------------------------------
// PMU event table
// ---------------------------------------------------------------------

TEST(Pmu, EventIdsUnique)
{
    std::set<int> ids;
    for (const PmcEvent &event : PmuEventTable::events())
        EXPECT_TRUE(ids.insert(event.id).second)
            << "duplicate id " << event.id;

    // find() binary-searches the table, so it must stay in strictly
    // ascending id order, and every id must find its own entry.
    const std::vector<PmcEvent> &table = PmuEventTable::events();
    for (std::size_t i = 1; i < table.size(); ++i) {
        EXPECT_LT(table[i - 1].id, table[i].id)
            << "ids out of order at index " << i;
    }
    for (const PmcEvent &event : table)
        EXPECT_EQ(PmuEventTable::find(event.id), &event)
            << pmcIdString(event.id);
    for (int id : {-1, 0x1E, 0x3F, 0x7F, 0x1000})
        EXPECT_EQ(PmuEventTable::find(id), nullptr) << pmcIdString(id);
}

TEST(Pmu, TableHasPaperEventCount)
{
    // The paper's Experiment 1 captured 68 PMC events; our table
    // provides a comparable set (at least 55).
    EXPECT_GE(PmuEventTable::events().size(), 55u);
}

TEST(Pmu, CoreArchitecturalEventsPresent)
{
    for (int id : {0x02, 0x08, 0x10, 0x11, 0x12, 0x15, 0x16, 0x1B,
                   0x43, 0x6C, 0x6D, 0x7E, 0x73, 0x75, 0x76}) {
        EXPECT_NE(PmuEventTable::find(id), nullptr)
            << "missing " << pmcIdString(id);
    }
}

TEST(Pmu, FindByNameWorks)
{
    const PmcEvent *cycles = PmuEventTable::findByName("CPU_CYCLES");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(cycles->id, 0x11);
    EXPECT_EQ(PmuEventTable::findByName("NO_SUCH_EVENT"), nullptr);
}

TEST(Pmu, IdStringFormat)
{
    EXPECT_EQ(pmcIdString(0x02), "0x02");
    EXPECT_EQ(pmcIdString(0x6C), "0x6C");
    EXPECT_EQ(pmcIdString(0xC0), "0xC0");
}

TEST(Pmu, ExtractorsProduceConsistentValues)
{
    uarch::EventCounts e;
    e.instructions = 1000;
    e.cycles = 2000;
    e.branches = 100;
    e.branchMispredicts = 7;
    e.loadOps = 50;
    e.storeOps = 30;
    EXPECT_DOUBLE_EQ(PmuEventTable::find(0x08)->extract(e), 1000.0);
    EXPECT_DOUBLE_EQ(PmuEventTable::find(0x11)->extract(e), 2000.0);
    EXPECT_DOUBLE_EQ(PmuEventTable::find(0x10)->extract(e), 7.0);
    EXPECT_DOUBLE_EQ(PmuEventTable::find(0x06)->extract(e), 50.0);
    EXPECT_DOUBLE_EQ(PmuEventTable::find(0x07)->extract(e), 30.0);
    // 0x72 = loads + stores.
    EXPECT_DOUBLE_EQ(PmuEventTable::find(0x72)->extract(e), 80.0);
}

// ---------------------------------------------------------------------
// PMU multiplexed sampling
// ---------------------------------------------------------------------

TEST(PmuSamplerTest, RunsNeededCeils)
{
    PmuSampler sampler(6, 0.0);
    EXPECT_EQ(sampler.runsNeeded(6), 1u);
    EXPECT_EQ(sampler.runsNeeded(7), 2u);
    EXPECT_EQ(sampler.runsNeeded(68), 12u);
}

TEST(PmuSamplerTest, NoiselessCaptureIsExact)
{
    PmuSampler sampler(6, 0.0);
    uarch::EventCounts truth;
    truth.instructions = 123456;
    truth.cycles = 234567;
    Rng rng(1);
    auto counts = sampler.capture({0x08, 0x11}, truth, rng);
    EXPECT_DOUBLE_EQ(pmcCount(counts, 0x08), 123456.0);
    EXPECT_DOUBLE_EQ(pmcCount(counts, 0x11), 234567.0);
}

TEST(PmuSamplerTest, NoisyCaptureWithinTolerance)
{
    PmuSampler sampler(6, 0.005);
    uarch::EventCounts truth;
    truth.instructions = 1000000;
    Rng rng(2);
    auto counts = sampler.capture({0x08}, truth, rng);
    EXPECT_NEAR(pmcCount(counts, 0x08), 1e6, 1e6 * 0.05);
    EXPECT_NE(pmcCount(counts, 0x08), 1e6);  // but not exact
}

TEST(PmuSamplerTest, SameRunGroupSharesPerturbation)
{
    // Events captured in the same multiplexing group see the same
    // run, so their ratio is exact even under noise.
    PmuSampler sampler(6, 0.01);
    uarch::EventCounts truth;
    truth.loadOps = 600000;
    truth.storeOps = 300000;
    Rng rng(3);
    auto counts = sampler.capture({0x06, 0x07}, truth, rng);
    EXPECT_NEAR(pmcCount(counts, 0x06) / pmcCount(counts, 0x07), 2.0, 1e-9);
}

// ---------------------------------------------------------------------
// Power / thermal
// ---------------------------------------------------------------------

TEST(Power, MoreActivityMorePower)
{
    GroundTruthPower gtp(bigCoefficients());
    uarch::EventCounts idle;
    idle.cycles = 1e9;
    uarch::EventCounts busy = idle;
    busy.instSpec = 2'000'000'000;
    busy.fpOps = 500'000'000;
    double p_idle = gtp.meanPower(idle, 1.0, 1.0, 1.0, 40.0);
    double p_busy = gtp.meanPower(busy, 1.0, 1.0, 1.0, 40.0);
    EXPECT_GT(p_busy, p_idle * 1.5);
}

TEST(Power, VoltageScalesQuadratically)
{
    GroundTruthPower gtp(bigCoefficients());
    uarch::EventCounts e;
    e.cycles = 1e9;
    e.instSpec = 1'000'000'000;
    double p1 = gtp.meanPower(e, 1.0, 1.0, 1.0, 25.0);
    double p2 = gtp.meanPower(e, 1.0, 1.25, 1.0, 25.0);
    // The dynamic part scales with V^2 (about 1.56x).
    EXPECT_GT(p2, p1 * 1.4);
    EXPECT_LT(p2, p1 * 1.7);
}

TEST(Power, LittleCoefficientsAreSmaller)
{
    PowerCoefficients big = bigCoefficients();
    PowerCoefficients little = littleCoefficients();
    EXPECT_LT(little.energyCycle, big.energyCycle);
    EXPECT_LT(little.energyFp, big.energyFp);
    EXPECT_LT(little.staticBase, big.staticBase);
    // DRAM energy is a property of the DRAM, not the core.
    EXPECT_DOUBLE_EQ(little.energyDram, big.energyDram);
}

TEST(Power, SensorNoiseShrinksWithWindow)
{
    PowerSensor sensor(3.8, 0.05);
    Rng rng(7);
    double spread_short = 0.0;
    double spread_long = 0.0;
    for (int i = 0; i < 300; ++i) {
        spread_short +=
            std::fabs(sensor.measure(1.0, 0.5, rng) - 1.0);
        spread_long +=
            std::fabs(sensor.measure(1.0, 120.0, rng) - 1.0);
    }
    EXPECT_LT(spread_long, spread_short * 0.5);
}

TEST(Thermal, SteadyStateAndTrip)
{
    ThermalModel thermal(24.0, 9.0, 85.0);
    EXPECT_DOUBLE_EQ(thermal.steadyTemperature(0.0), 24.0);
    EXPECT_DOUBLE_EQ(thermal.steadyTemperature(4.0), 60.0);
    EXPECT_FALSE(thermal.throttles(80.0));
    EXPECT_TRUE(thermal.throttles(90.0));
}

// ---------------------------------------------------------------------
// Platform configuration
// ---------------------------------------------------------------------

TEST(Platform, OppTablesMatchPaper)
{
    const auto &little = OdroidXu3Platform::oppTable(
        CpuCluster::LittleA7);
    const auto &big = OdroidXu3Platform::oppTable(
        CpuCluster::BigA15);
    EXPECT_EQ(little.front().freqMhz, 200.0);
    EXPECT_EQ(little.back().freqMhz, 1400.0);
    EXPECT_EQ(big.back().freqMhz, 2000.0);  // exists but throttles
    // Voltage rises with frequency.
    for (std::size_t i = 1; i < big.size(); ++i)
        EXPECT_GT(big[i].voltage, big[i - 1].voltage);
}

TEST(Platform, VoltageLookup)
{
    EXPECT_DOUBLE_EQ(
        OdroidXu3Platform::voltageFor(CpuCluster::BigA15, 1000.0),
        1.0);
    EXPECT_EXIT(OdroidXu3Platform::voltageFor(CpuCluster::BigA15,
                                              1234.0),
                ::testing::ExitedWithCode(1), "no operating point");
}

TEST(Platform, TrueConfigsMatchTrm)
{
    uarch::ClusterConfig big = trueBigConfig();
    EXPECT_EQ(big.core.itlb.entries, 32u);   // A15 TRM value
    EXPECT_TRUE(big.core.unifiedL2Tlb);
    EXPECT_EQ(big.core.l2TlbUnified.entries, 512u);
    EXPECT_EQ(big.core.l2TlbUnified.assoc, 4u);
    EXPECT_TRUE(big.core.l1d.writeStreaming);
    EXPECT_EQ(big.l2.sizeBytes, 2u * 1024u * 1024u);

    uarch::ClusterConfig little = trueLittleConfig();
    EXPECT_EQ(little.l2.sizeBytes, 512u * 1024u);
    EXPECT_LT(little.core.issueWidth, big.core.issueWidth);
    EXPECT_GT(little.core.depStallFactor, big.core.depStallFactor);
}

// ---------------------------------------------------------------------
// Measurement harness
// ---------------------------------------------------------------------

class PlatformMeasure : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        board = new OdroidXu3Platform(42);
        work = &workload::Suite::byName("mi-crc32");
    }
    static void TearDownTestSuite()
    {
        delete board;
        board = nullptr;
    }
    static OdroidXu3Platform *board;
    static const workload::Workload *work;
};

OdroidXu3Platform *PlatformMeasure::board = nullptr;
const workload::Workload *PlatformMeasure::work = nullptr;

TEST_F(PlatformMeasure, MedianOfRepeats)
{
    HwMeasurement m =
        board->measure(*work, CpuCluster::BigA15, 1000.0, 5);
    ASSERT_EQ(m.repeatSeconds.size(), 5u);
    std::vector<double> sorted = m.repeatSeconds;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_DOUBLE_EQ(m.execSeconds, sorted[2]);
}

TEST_F(PlatformMeasure, CapturesFullPmuSet)
{
    HwMeasurement m =
        board->measure(*work, CpuCluster::BigA15, 1000.0, 1);
    EXPECT_EQ(m.pmc.size(), PmuEventTable::events().size());
    EXPECT_GT(m.pmcValue(0x08), 100000.0);
    EXPECT_GT(m.pmcValue(0x11), m.pmcValue(0x08) * 0.2);
    EXPECT_GT(m.powerWatts, 0.05);
    EXPECT_GT(m.temperatureC, 20.0);
}

TEST_F(PlatformMeasure, BaseRunAllocatesItsDataMemoryOnce)
{
    // A base run sizes the thread's pooled model memory (zeroed) and
    // initialises the workload in it: one zeroed buffer per base run,
    // whether the pool builds the model or reuses it.
    for (const char *name : {"mi-crc32", "mi-qsort", "mi-crc32"}) {
        OdroidXu3Platform fresh(7);  // its own base-run cache
        const std::uint64_t before = isa::Memory::allocations();
        fresh.measure(workload::Suite::byName(name), CpuCluster::LittleA7,
                      1000.0, 1);
        EXPECT_EQ(isa::Memory::allocations() - before, 1u) << name;
    }
}

TEST_F(PlatformMeasure, DeterministicForSameSeed)
{
    OdroidXu3Platform a(99);
    OdroidXu3Platform b(99);
    HwMeasurement ma =
        a.measure(*work, CpuCluster::BigA15, 1400.0, 3);
    HwMeasurement mb =
        b.measure(*work, CpuCluster::BigA15, 1400.0, 3);
    EXPECT_DOUBLE_EQ(ma.execSeconds, mb.execSeconds);
    EXPECT_DOUBLE_EQ(ma.powerWatts, mb.powerWatts);
    EXPECT_DOUBLE_EQ(ma.pmcValue(0x11), mb.pmcValue(0x11));
}

TEST_F(PlatformMeasure, HigherFrequencyFasterAndHotter)
{
    HwMeasurement slow =
        board->measure(*work, CpuCluster::BigA15, 600.0, 1);
    HwMeasurement fast =
        board->measure(*work, CpuCluster::BigA15, 1800.0, 1);
    EXPECT_GT(slow.execSeconds, fast.execSeconds);
    EXPECT_GT(fast.powerWatts, slow.powerWatts);
    EXPECT_GT(fast.temperatureC, slow.temperatureC);
    EXPECT_DOUBLE_EQ(fast.voltage, 1.25);
}

TEST_F(PlatformMeasure, ThermalThrottleAtTwoGigahertz)
{
    // The paper had to cap the A15 at 1.8 GHz because 2 GHz
    // throttled. A sustained heavy workload reproduces this.
    const workload::Workload &heavy =
        workload::Suite::byName("parsec-streamcluster-4");
    HwMeasurement m =
        board->measure(heavy, CpuCluster::BigA15, 2000.0, 1);
    EXPECT_TRUE(m.throttled);
}

TEST_F(PlatformMeasure, LittleClusterSlowerAndCooler)
{
    HwMeasurement big =
        board->measure(*work, CpuCluster::BigA15, 1000.0, 1);
    HwMeasurement little =
        board->measure(*work, CpuCluster::LittleA7, 1000.0, 1);
    EXPECT_GT(little.execSeconds, big.execSeconds);
    EXPECT_LT(little.powerWatts, big.powerWatts);
}

TEST_F(PlatformMeasure, BoardVariationChangesPowerOnly)
{
    OdroidXu3Platform reference(1234, 0.0);
    OdroidXu3Platform other(1234, 0.10);
    HwMeasurement ma =
        reference.measure(*work, CpuCluster::BigA15, 1000.0, 1);
    HwMeasurement mb =
        other.measure(*work, CpuCluster::BigA15, 1000.0, 1);
    // Timing and events are properties of the silicon design...
    EXPECT_DOUBLE_EQ(ma.pmcValue(0x08), mb.pmcValue(0x08));
    // ...but the power characteristics differ between boards.
    EXPECT_NE(ma.powerWatts, mb.powerWatts);
}

TEST_F(PlatformMeasure, GroundTruthMatchesPmcScale)
{
    HwMeasurement m =
        board->measure(*work, CpuCluster::BigA15, 1000.0, 1);
    // The noisy PMC value sits within a percent of the ground truth.
    EXPECT_NEAR(m.pmcValue(0x08),
                static_cast<double>(m.groundTruth.instructions),
                m.pmcValue(0x08) * 0.02);
}

// ---------------------------------------------------------------------
// Sensor and thermal edge cases that matter under faults
// ---------------------------------------------------------------------

TEST(Power, SensorWindowShorterThanOneSamplePeriod)
{
    // Below one 3.8 Hz sample period the sensor has exactly one
    // sample to report, so every sub-period duration behaves the
    // same (n clamps to 1 — the noise cannot shrink further).
    PowerSensor sensor(3.8, 0.05);
    Rng a(11), b(11), c(11);
    double one_period = 1.0 / 3.8;
    double tiny = sensor.measure(2.0, 0.001, a);
    double short_win = sensor.measure(2.0, one_period * 0.5, b);
    double full = sensor.measure(2.0, one_period, c);
    EXPECT_DOUBLE_EQ(tiny, short_win);
    EXPECT_DOUBLE_EQ(short_win, full);
    EXPECT_GT(tiny, 0.0);
}

TEST(Power, SensorNeverReportsNegativePower)
{
    // Huge single-sample noise must clamp at zero, not go negative.
    PowerSensor sensor(3.8, 5.0);
    Rng rng(3);
    for (int i = 0; i < 200; ++i)
        EXPECT_GE(sensor.measure(0.5, 0.1, rng), 0.0);
}

TEST(Power, DegradedSensorIsNoisierAndFractionZeroExact)
{
    PowerSensor sensor(3.8, 0.05);
    {
        Rng a(21), b(21);
        EXPECT_DOUBLE_EQ(sensor.measure(1.0, 60.0, a),
                         sensor.measureDegraded(1.0, 60.0, 0.0, b));
    }
    Rng a(22), b(22);
    double spread_full = 0.0, spread_degraded = 0.0;
    for (int i = 0; i < 300; ++i) {
        spread_full += std::fabs(sensor.measure(1.0, 60.0, a) - 1.0);
        spread_degraded +=
            std::fabs(sensor.measureDegraded(1.0, 60.0, 0.9, b) - 1.0);
    }
    EXPECT_GT(spread_degraded, spread_full * 1.5);
}

TEST(Thermal, TripPointBoundaryIsExclusive)
{
    ThermalModel thermal(24.0, 9.0, 85.0);
    // Exactly at the trip point the governor has not yet tripped;
    // any excursion beyond it throttles.
    EXPECT_FALSE(thermal.throttles(thermal.tripPoint()));
    EXPECT_TRUE(thermal.throttles(
        std::nextafter(thermal.tripPoint(), 1e9)));
    EXPECT_FALSE(thermal.throttles(
        std::nextafter(thermal.tripPoint(), -1e9)));
    // The power that lands exactly on the trip point: 24 + 9p = 85.
    double trip_power = (85.0 - 24.0) / 9.0;
    EXPECT_FALSE(
        thermal.throttles(thermal.steadyTemperature(trip_power)));
    EXPECT_TRUE(thermal.throttles(
        thermal.steadyTemperature(trip_power + 1e-6)));
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

TEST(Faults, DisabledConfigIsInactive)
{
    FaultConfig config;
    EXPECT_FALSE(config.active());
    // Enabled but with every probability zero is still inactive.
    config.enabled = true;
    EXPECT_FALSE(config.active());
    config.runFailureProb = 0.5;
    EXPECT_TRUE(config.active());
    config.enabled = false;
    EXPECT_FALSE(config.active());
}

TEST(Faults, DisabledInjectorKeepsPlatformBitIdentical)
{
    const workload::Workload &work =
        workload::Suite::byName("mi-crc32");
    OdroidXu3Platform clean(4242);
    OdroidXu3Platform armed(4242);
    armed.injectFaults(FaultConfig{});  // disabled master switch

    HwMeasurement a =
        clean.measure(work, CpuCluster::BigA15, 1400.0, 5);
    HwMeasurement b =
        armed.measure(work, CpuCluster::BigA15, 1400.0, 5);
    EXPECT_DOUBLE_EQ(a.execSeconds, b.execSeconds);
    EXPECT_DOUBLE_EQ(a.powerWatts, b.powerWatts);
    ASSERT_EQ(a.pmc.size(), b.pmc.size());
    for (const auto &[id, count] : a.pmc)
        EXPECT_DOUBLE_EQ(count, pmcCount(b.pmc, id));
    EXPECT_EQ(a.repeatSeconds, b.repeatSeconds);
}

TEST(Faults, PlansArePureFunctionsOfPointAndAttempt)
{
    FaultInjector injector(FaultConfig::labMix(77));
    auto p1 = injector.plan("w", "a15", 1800.0, 3);
    auto p2 = injector.plan("w", "a15", 1800.0, 3);
    EXPECT_EQ(p1.runFails, p2.runFails);
    EXPECT_EQ(p1.thermalEpisode, p2.thermalEpisode);
    EXPECT_EQ(p1.sensorStuck, p2.sensorStuck);
    EXPECT_DOUBLE_EQ(p1.sensorStuckScale, p2.sensorStuckScale);
    EXPECT_EQ(p1.lostGroup, p2.lostGroup);

    // Interleaving other plan() calls must not disturb a point's
    // stream — the property resume depends on.
    FaultInjector other(FaultConfig::labMix(77));
    other.plan("x", "a7", 200.0, 0);
    other.plan("y", "a15", 600.0, 1);
    auto p3 = other.plan("w", "a15", 1800.0, 3);
    EXPECT_EQ(p1.runFails, p3.runFails);
    EXPECT_EQ(p1.thermalEpisode, p3.thermalEpisode);
    EXPECT_DOUBLE_EQ(p1.sensorStuckScale, p3.sensorStuckScale);
}

TEST(Faults, AttemptsSeeDifferentDraws)
{
    FaultConfig config;
    config.enabled = true;
    config.thermalEpisodeProb = 0.5;
    FaultInjector injector(config);
    bool saw_episode = false, saw_clean = false;
    for (unsigned attempt = 0; attempt < 32; ++attempt) {
        auto plan = injector.plan("w", "a15", 1000.0, attempt);
        (plan.thermalEpisode ? saw_episode : saw_clean) = true;
    }
    EXPECT_TRUE(saw_episode);
    EXPECT_TRUE(saw_clean);
    EXPECT_EQ(injector.tally().plans, 32u);
}

TEST(Faults, RunFailureSurfacesAsRunError)
{
    const workload::Workload &work =
        workload::Suite::byName("mi-crc32");
    OdroidXu3Platform board(7);
    FaultConfig config;
    config.enabled = true;
    config.runFailureProb = 1.0;
    board.injectFaults(config);
    try {
        board.measure(work, CpuCluster::BigA15, 1000.0, 1);
        FAIL() << "expected RunError";
    } catch (const RunError &error) {
        EXPECT_TRUE(error.kind() == "hung-run" ||
                    error.kind() == "crashed-run");
        EXPECT_NE(std::string(error.what()).find("mi-crc32"),
                  std::string::npos);
    }
    EXPECT_EQ(board.faults().tally().runFailures, 1u);
}

TEST(Faults, ThermalEpisodeInflatesTimeDeterministically)
{
    setQuiet(true);
    const workload::Workload &work =
        workload::Suite::byName("mi-crc32");
    OdroidXu3Platform clean(123);
    OdroidXu3Platform faulty(123);
    FaultConfig config;
    config.enabled = true;
    config.thermalEpisodeProb = 1.0;
    config.thermalSlowdown = 0.35;
    faulty.injectFaults(config);

    HwMeasurement a =
        clean.measure(work, CpuCluster::BigA15, 1000.0, 3);
    HwMeasurement b =
        faulty.measure(work, CpuCluster::BigA15, 1000.0, 3);
    // Attempt 0 shares the clean noise stream, so the inflation is
    // exactly the configured slowdown.
    EXPECT_NEAR(b.execSeconds / a.execSeconds, 1.35, 1e-9);
    EXPECT_TRUE(b.throttled);
    EXPECT_GE(b.temperatureC, faulty.thermal().tripPoint());
    // The work done is unchanged — only the wall clock stretched.
    EXPECT_EQ(b.groundTruth.instructions, a.groundTruth.instructions);
    setQuiet(false);
}

TEST(Faults, StuckSensorReadsFarBelowTruth)
{
    setQuiet(true);
    const workload::Workload &work =
        workload::Suite::byName("mi-crc32");
    OdroidXu3Platform clean(55);
    OdroidXu3Platform faulty(55);
    FaultConfig config;
    config.enabled = true;
    config.sensorStuckProb = 1.0;
    faulty.injectFaults(config);

    HwMeasurement a =
        clean.measure(work, CpuCluster::BigA15, 1400.0, 1);
    HwMeasurement b =
        faulty.measure(work, CpuCluster::BigA15, 1400.0, 1);
    // The latched sample dates from an idle stretch: 15-45% of the
    // true power, far outside sensor noise.
    EXPECT_LT(b.powerWatts, a.powerWatts * 0.6);
    EXPECT_GT(b.powerWatts, 0.0);
    setQuiet(false);
}

TEST(Faults, PmcGroupLossDropsEvents)
{
    setQuiet(true);
    const workload::Workload &work =
        workload::Suite::byName("mi-crc32");
    OdroidXu3Platform board(99);
    FaultConfig config;
    config.enabled = true;
    config.pmcGroupLossProb = 1.0;
    board.injectFaults(config);

    HwMeasurement m =
        board.measure(work, CpuCluster::BigA15, 1000.0, 1);
    std::size_t full = PmuEventTable::events().size();
    EXPECT_LT(m.pmc.size(), full);
    EXPECT_GE(m.pmc.size(), full - 6);  // one group of six lost
    setQuiet(false);
}

TEST(Faults, PmcOverflowWrapsAt32Bits)
{
    PmuSampler sampler(6, 0.0);
    uarch::EventCounts truth;
    truth.cycles = 5e9;          // above 2^32: wraps
    truth.instructions = 1000;   // below: untouched
    Rng rng(1);
    PmuSampler::CaptureFaults faults;
    faults.overflow = true;
    auto counts =
        sampler.captureFaulty({0x11, 0x08}, truth, rng, faults);
    EXPECT_DOUBLE_EQ(pmcCount(counts, 0x11),
                     5e9 - 4294967296.0);
    EXPECT_DOUBLE_EQ(pmcCount(counts, 0x08), 1000.0);
}

TEST(Faults, CaptureFaultyDefaultIsCaptureExactly)
{
    PmuSampler sampler(6, 0.01);
    uarch::EventCounts truth;
    truth.instructions = 123456;
    truth.cycles = 777777;
    Rng a(5), b(5);
    auto plain = sampler.capture({0x08, 0x11}, truth, a);
    auto faulty = sampler.captureFaulty({0x08, 0x11}, truth, b,
                                        PmuSampler::CaptureFaults{});
    EXPECT_EQ(plain, faulty);
}

namespace {

/**
 * captureFaulty() as an id -> count map: every listed event in order,
 * one noise draw per group of @p slots, a repeated id overwritten by
 * its later count, then the lost group erased and overflow wrapped.
 */
std::map<int, double>
mapCapture(const std::vector<int> &ids, const uarch::EventCounts &truth,
           Rng &rng, unsigned slots, double sigma,
           const PmuSampler::CaptureFaults &faults)
{
    std::map<int, double> out;
    double scale = 1.0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i % slots == 0)
            scale = 1.0 + rng.gaussian(0.0, sigma);
        double measured = PmuEventTable::find(ids[i])->extract(truth) *
            scale;
        out[ids[i]] = measured < 0 ? 0.0 : measured;
    }
    if (faults.loseGroup && !ids.empty()) {
        std::size_t groups = (ids.size() + slots - 1) / slots;
        std::size_t first = faults.lostGroup % groups * slots;
        for (std::size_t i = first;
             i < std::min(first + slots, ids.size()); ++i) {
            out.erase(ids[i]);
        }
    }
    if (faults.overflow) {
        for (auto &[id, count] : out) {
            if (count >= 4294967296.0)
                count = std::fmod(count, 4294967296.0);
        }
    }
    return out;
}

} // namespace

TEST(PmcCounts, SetKeepsIdsSortedAndUniqueWithLastCount)
{
    PmcCounts counts;
    setPmcCount(counts, 5, 1.0);
    setPmcCount(counts, 2, 2.0);
    setPmcCount(counts, 9, 4.0);
    setPmcCount(counts, 5, 3.0);
    EXPECT_EQ(counts, (PmcCounts{{2, 2.0}, {5, 3.0}, {9, 4.0}}));
    EXPECT_EQ(pmcCount(counts, 5), 3.0);
    EXPECT_EQ(pmcCount(counts, 7), 0.0);
    EXPECT_EQ(pmcCount(counts, 1), 0.0);
    EXPECT_EQ(pmcCount(counts, 10), 0.0);
    EXPECT_EQ(pmcCount(PmcCounts{}, 5), 0.0);
}

TEST(PmcCounts, RepeatedEventKeepsItsLastCount)
{
    // One counter slot: each listing of 0x08 is its own run, with its
    // own noise draw, so the two counts differ.
    PmuSampler sampler(1, 0.01);
    uarch::EventCounts truth;
    truth.instructions = 1000000;
    Rng rng(9), replay(9);
    const PmcCounts counts = sampler.capture({0x08, 0x08}, truth, rng);
    const double first = 1e6 * (1.0 + replay.gaussian(0.0, 0.01));
    const double last = 1e6 * (1.0 + replay.gaussian(0.0, 0.01));
    ASSERT_NE(first, last);
    EXPECT_EQ(counts, (PmcCounts{{0x08, last}}));
}

TEST(PmcCounts, CaptureMatchesMapSemanticsUnderFaults)
{
    // Every event, listed out of order with repeats, over a truth
    // record whose counts straddle the 32-bit wrap.
    std::vector<int> ids = PmuEventTable::allIds();
    std::reverse(ids.begin(), ids.end());
    ids.insert(ids.end(), {0x11, 0x08, 0x03, 0x11});
    uarch::EventCounts truth;
    const auto fields = uarch::EventCounts::fieldNames();
    Rng values(0xC0FFEE);
    for (std::size_t f = 0; f < fields.size(); ++f) {
        ASSERT_TRUE(truth.setFieldAt(
            f, static_cast<double>(values.uniformInt(1ULL << 34))));
    }
    const PmuSampler sampler(6, 0.01);
    for (bool lose : {false, true}) {
        for (bool overflow : {false, true}) {
            for (unsigned group : {0u, 3u, 12u}) {
                SCOPED_TRACE(testing::Message()
                             << "lose " << lose << " overflow "
                             << overflow << " group " << group);
                PmuSampler::CaptureFaults faults;
                faults.loseGroup = lose;
                faults.lostGroup = group;
                faults.overflow = overflow;
                Rng rng(17), replay(17);
                const PmcCounts counts =
                    sampler.captureFaulty(ids, truth, rng, faults);
                const std::map<int, double> expected =
                    mapCapture(ids, truth, replay, 6, 0.01, faults);
                EXPECT_EQ(counts, PmcCounts(expected.begin(),
                                            expected.end()));
                for (std::size_t i = 1; i < counts.size(); ++i)
                    EXPECT_LT(counts[i - 1].first, counts[i].first);
                const std::size_t distinct =
                    std::set<int>(ids.begin(), ids.end()).size();
                if (lose)
                    EXPECT_LT(counts.size(), distinct);
                else
                    EXPECT_EQ(counts.size(), distinct);
            }
        }
    }
}

TEST(Faults, LabMixEnablesEveryMode)
{
    FaultConfig mix = FaultConfig::labMix();
    EXPECT_TRUE(mix.active());
    EXPECT_GT(mix.runFailureProb, 0.0);
    EXPECT_GT(mix.thermalEpisodeProb, 0.0);
    EXPECT_GT(mix.sensorDropoutProb, 0.0);
    EXPECT_GT(mix.sensorStuckProb, 0.0);
    EXPECT_GT(mix.pmcGroupLossProb, 0.0);
    EXPECT_GT(mix.pmcOverflowProb, 0.0);
}
