/**
 * @file
 * Tests of the resilient campaign engine: quorum collation, retry
 * accounting, graceful degradation, and checkpoint/resume.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gemstone/campaign.hh"
#include "gemstone/runner.hh"
#include "hwsim/faults.hh"
#include "mlstat/descriptive.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

using namespace gemstone;
using namespace gemstone::core;

namespace {

constexpr double kFreq = 1000.0;

/** A fresh runner; optionally on a different simulated board. */
ExperimentRunner makeRunner(std::uint64_t seed = RunnerConfig{}.seed)
{
    RunnerConfig config;
    config.seed = seed;
    return ExperimentRunner(config);
}

/** Unique scratch path, removed on destruction. */
struct ScratchFile
{
    std::string path;
    explicit ScratchFile(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                name).string())
    {
        std::filesystem::remove(path);
    }
    ~ScratchFile() { std::filesystem::remove(path); }
};

/** Clean single-frequency A15 dataset, shared across tests. */
class CampaignFlow : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        cleanRunner = new ExperimentRunner(RunnerConfig{});
        cleanDataset = new ValidationDataset(
            cleanRunner->runValidation(hwsim::CpuCluster::BigA15,
                                       {kFreq}));
    }
    static void TearDownTestSuite()
    {
        delete cleanDataset;
        delete cleanRunner;
    }

    static ExperimentRunner *cleanRunner;
    static ValidationDataset *cleanDataset;
};

ExperimentRunner *CampaignFlow::cleanRunner = nullptr;
ValidationDataset *CampaignFlow::cleanDataset = nullptr;

} // namespace

// ---------------------------------------------------------------------
// Fault-free behaviour
// ---------------------------------------------------------------------

TEST_F(CampaignFlow, FaultFreeCampaignMatchesNaiveRunner)
{
    ExperimentRunner runner = makeRunner();
    CampaignEngine engine(runner, CampaignConfig{});
    CampaignResult result =
        engine.runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    ASSERT_EQ(result.dataset.records.size(),
              cleanDataset->records.size());
    EXPECT_EQ(result.totalFailures, 0u);
    EXPECT_EQ(result.totalRejected, 0u);
    EXPECT_EQ(result.excludedPoints, 0u);
    EXPECT_TRUE(result.warnings.empty());
    EXPECT_TRUE(result.complete);
    for (const CampaignPoint &point : result.points)
        EXPECT_EQ(point.status, PointStatus::Clean);

    // The platform's noise is a pure function of the point, so the
    // quorum repeats are identical and the median collation must
    // reproduce the naive runner bit for bit.
    for (const ValidationRecord &r : result.dataset.records) {
        const ValidationRecord *clean =
            cleanDataset->find(r.work->name, kFreq);
        ASSERT_NE(clean, nullptr);
        EXPECT_DOUBLE_EQ(r.hw.execSeconds, clean->hw.execSeconds);
        EXPECT_DOUBLE_EQ(r.hw.powerWatts, clean->hw.powerWatts);
        EXPECT_DOUBLE_EQ(r.g5.simSeconds, clean->g5.simSeconds);
    }
    EXPECT_NEAR(result.dataset.execMpe(), cleanDataset->execMpe(),
                1e-12);
}

// ---------------------------------------------------------------------
// Faulted campaigns
// ---------------------------------------------------------------------

TEST_F(CampaignFlow, LabMixCampaignReproducesCleanMpe)
{
    ExperimentRunner runner = makeRunner();
    runner.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignEngine engine(runner, CampaignConfig{});
    CampaignResult result =
        engine.runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    // The fault mix must actually have bitten...
    EXPECT_GT(result.totalFailures + result.totalRejected, 0u);
    // ...while the resilient policy keeps nearly every point and
    // reproduces the clean error metric within one percentage point.
    EXPECT_GE(result.dataset.records.size(),
              cleanDataset->records.size() - 3);
    EXPECT_NEAR(result.dataset.execMpe() * 100.0,
                cleanDataset->execMpe() * 100.0, 1.0);

    for (const CampaignPoint &point : result.points) {
        if (point.converged() &&
            (point.failures > 0 || point.rejected > 0)) {
            EXPECT_EQ(point.status, PointStatus::Recovered);
        }
    }
}

TEST_F(CampaignFlow, RetryAccountingIsDeterministic)
{
    hwsim::FaultConfig always_fail;
    always_fail.enabled = true;
    always_fail.runFailureProb = 1.0;

    CampaignConfig policy;
    policy.quorum = 1;
    policy.maxAttempts = 3;

    auto campaign = [&]() {
        ExperimentRunner runner = makeRunner();
        runner.platform().injectFaults(always_fail);
        CampaignEngine engine(runner, policy);
        return engine.runValidation(hwsim::CpuCluster::BigA15,
                                    {kFreq});
    };
    CampaignResult first = campaign();
    CampaignResult second = campaign();

    // Every point burns the full attempt budget, is excluded, and
    // leaves a structured warning.
    ASSERT_EQ(first.points.size(), 45u);
    EXPECT_TRUE(first.dataset.records.empty());
    EXPECT_EQ(first.excludedPoints, 45u);
    EXPECT_EQ(first.totalAttempts, 45u * policy.maxAttempts);
    EXPECT_EQ(first.totalFailures, 45u * policy.maxAttempts);
    EXPECT_EQ(first.warnings.size(), 45u);
    for (const CampaignPoint &point : first.points)
        EXPECT_EQ(point.status, PointStatus::Failed);

    // Backoff is ledgered, bounded and seed-derived: identical
    // campaigns book identical (positive, finite) waits.
    EXPECT_GT(first.backoffSeconds, 0.0);
    double cap_per_failure =
        policy.backoffCapSeconds * 1.25;  // cap plus max jitter
    EXPECT_LE(first.backoffSeconds,
              first.totalFailures * cap_per_failure);
    EXPECT_DOUBLE_EQ(first.backoffSeconds, second.backoffSeconds);
}

TEST_F(CampaignFlow, BudgetExhaustionDegradesGracefully)
{
    // Fail often enough that some points cannot fill a large quorum
    // within the attempt budget, without failing everywhere.
    hwsim::FaultConfig flaky;
    flaky.enabled = true;
    flaky.runFailureProb = 0.5;

    CampaignConfig policy;
    policy.quorum = 3;
    policy.maxAttempts = 4;

    ExperimentRunner runner = makeRunner();
    runner.platform().injectFaults(flaky);
    CampaignEngine engine(runner, policy);
    CampaignResult result =
        engine.runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    unsigned degraded = 0, failed = 0, converged = 0;
    for (const CampaignPoint &point : result.points) {
        switch (point.status) {
          case PointStatus::Degraded:
            ++degraded;
            break;
          case PointStatus::Failed:
            ++failed;
            break;
          default:
            ++converged;
        }
    }
    EXPECT_GT(degraded, 0u);
    EXPECT_GT(converged, 0u);
    EXPECT_EQ(result.excludedPoints, degraded + failed);
    EXPECT_EQ(result.dataset.records.size(), converged);
    // Each excluded point leaves exactly one structured warning.
    EXPECT_EQ(result.warnings.size(), degraded + failed);
}

// ---------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------

TEST_F(CampaignFlow, KilledCampaignResumesWithoutRemeasuring)
{
    ScratchFile checkpoint("gs_campaign_resume_test.csv");

    CampaignConfig policy;
    policy.checkpointPath = checkpoint.path;

    // First campaign dies after 10 points (emulating a kill: the
    // checkpoint is appended and flushed per point).
    CampaignConfig partial = policy;
    partial.maxPoints = 10;
    ExperimentRunner first = makeRunner();
    first.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignResult before =
        CampaignEngine(first, partial)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
    ASSERT_FALSE(before.complete);
    ASSERT_EQ(before.points.size(), 10u);
    ASSERT_TRUE(std::filesystem::exists(checkpoint.path));

    // Second campaign runs on a *different simulated board* (other
    // seed): if it re-measured the finished points they could not
    // match the checkpoint.
    ExperimentRunner second = makeRunner(0xd1ffe4ULL);
    second.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignResult after =
        CampaignEngine(second, policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    EXPECT_TRUE(after.complete);
    EXPECT_EQ(after.resumedPoints, 10u);
    EXPECT_EQ(after.measuredPoints, 45u - 10u);
    ASSERT_EQ(after.points.size(), 45u);

    for (std::size_t i = 0; i < before.points.size(); ++i) {
        const CampaignPoint &done = before.points[i];
        const CampaignPoint &restored = after.points[i];
        EXPECT_EQ(restored.workload, done.workload);
        if (done.converged()) {
            EXPECT_EQ(restored.status, PointStatus::Resumed);
        }
        // The scalars came from the CSV, not from a re-measurement
        // (formatDouble rounds to nanoseconds in the checkpoint).
        EXPECT_NEAR(restored.execSeconds, done.execSeconds, 1e-8);
        EXPECT_NEAR(restored.powerWatts, done.powerWatts, 1e-5);
        EXPECT_EQ(restored.attempts, done.attempts);
        EXPECT_EQ(restored.failures, done.failures);

        if (done.converged()) {
            const ValidationRecord *record =
                after.dataset.find(done.workload, kFreq);
            ASSERT_NE(record, nullptr);
            EXPECT_NEAR(record->hw.execSeconds, done.execSeconds,
                        1e-8);
        }
    }
}

TEST_F(CampaignFlow, ResumeCarriesSubnormalsAndExtremesBitExactly)
{
    ScratchFile checkpoint("gs_campaign_extremes_test.csv");
    CampaignConfig policy;
    policy.checkpointPath = checkpoint.path;
    CampaignConfig partial = policy;
    partial.maxPoints = 1;
    ExperimentRunner first = makeRunner();
    CampaignResult before =
        CampaignEngine(first, partial)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
    ASSERT_EQ(before.points.size(), 1u);
    ASSERT_TRUE(before.points[0].converged());

    // Rewrite the checkpointed point's doubles with the extremes of
    // the double range, subnormals included.
    const double subnormal = 4.94e-324;
    const double half_min = DBL_MIN / 2.0;
    CsvReader saved = CsvReader::parseFile(checkpoint.path);
    ASSERT_TRUE(saved.ok());
    ASSERT_EQ(saved.rowCount(), 1u);
    std::vector<std::string> row;
    for (std::string_view cell : saved.row(0))
        row.emplace_back(cell);
    auto set = [&](const std::string &column, const std::string &value) {
        row[saved.columnIndex(column)] = value;
    };
    set("exec_seconds", formatExactDouble(subnormal));
    set("power_watts", formatExactDouble(half_min));
    set("temperature_c", formatExactDouble(-0.0));
    set("voltage", formatExactDouble(DBL_MAX));
    set("repeats", formatExactDouble(subnormal) + ";" +
                       formatExactDouble(-0.0) + ";" +
                       formatExactDouble(DBL_MAX));
    set("pmc", "1:" + formatExactDouble(half_min) + ";2:" +
                   formatExactDouble(subnormal));
    CsvWriter rewritten(saved.header());
    rewritten.addRow(row);
    ASSERT_TRUE(rewritten.writeFileAtomic(checkpoint.path).ok());

    ExperimentRunner second = makeRunner();
    CampaignResult after =
        CampaignEngine(second, policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
    ASSERT_EQ(after.resumedPoints, 1u);
    const CampaignPoint &restored = after.points[0];
    EXPECT_EQ(restored.workload, before.points[0].workload);
    EXPECT_EQ(restored.status, PointStatus::Resumed);
    auto bits = [](double value) {
        std::uint64_t out = 0;
        std::memcpy(&out, &value, sizeof out);
        return out;
    };
    EXPECT_EQ(bits(restored.execSeconds), bits(subnormal));
    EXPECT_EQ(bits(restored.powerWatts), bits(half_min));
    EXPECT_EQ(bits(restored.temperatureC), bits(-0.0));
    EXPECT_EQ(bits(restored.voltage), bits(DBL_MAX));
    ASSERT_EQ(restored.repeatSeconds.size(), 3u);
    EXPECT_EQ(bits(restored.repeatSeconds[0]), bits(subnormal));
    EXPECT_EQ(bits(restored.repeatSeconds[1]), bits(-0.0));
    EXPECT_EQ(bits(restored.repeatSeconds[2]), bits(DBL_MAX));
    ASSERT_EQ(restored.pmc.size(), 2u);
    EXPECT_EQ(bits(hwsim::pmcCount(restored.pmc, 1)), bits(half_min));
    EXPECT_EQ(bits(hwsim::pmcCount(restored.pmc, 2)), bits(subnormal));
}

TEST_F(CampaignFlow, CheckpointPmcFieldIsSortedAndLastWins)
{
    // A hand-edited pmc cell lists ids out of order and one twice: the
    // resumed point holds them sorted, the repeated id at its last
    // count.
    ScratchFile checkpoint("gs_campaign_pmc_order_test.csv");
    CampaignConfig policy;
    policy.checkpointPath = checkpoint.path;
    CampaignConfig partial = policy;
    partial.maxPoints = 1;
    ExperimentRunner first = makeRunner();
    CampaignEngine(first, partial)
        .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    CsvReader saved = CsvReader::parseFile(checkpoint.path);
    ASSERT_TRUE(saved.ok());
    ASSERT_EQ(saved.rowCount(), 1u);
    std::vector<std::string> row;
    for (std::string_view cell : saved.row(0))
        row.emplace_back(cell);
    row[saved.columnIndex("pmc")] = "17:1.5;3:2;17:4.25;8:0;3:7";
    CsvWriter rewritten(saved.header());
    rewritten.addRow(row);
    ASSERT_TRUE(rewritten.writeFileAtomic(checkpoint.path).ok());

    ExperimentRunner second = makeRunner();
    CampaignResult after =
        CampaignEngine(second, policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
    ASSERT_EQ(after.resumedPoints, 1u);
    EXPECT_EQ(after.points[0].pmc,
              (hwsim::PmcCounts{{3, 7.0}, {8, 0.0}, {17, 4.25}}));
}

TEST_F(CampaignFlow, CollationTakesPerEventMediansOverLostGroups)
{
    // Half the attempts lose a multiplex group, so a point's kept
    // repeats carry different id sets. Each collated count must be
    // mlstat::median over the repeats that captured the event.
    setQuiet(true);
    ExperimentRunner runner = makeRunner();
    hwsim::FaultConfig loss;
    loss.enabled = true;
    loss.pmcGroupLossProb = 0.5;
    runner.platform().injectFaults(loss);
    CampaignResult result = CampaignEngine(runner, CampaignConfig{})
                                .runValidation(hwsim::CpuCluster::BigA15,
                                               {kFreq});
    std::size_t checked = 0;
    std::size_t mixed = 0;
    for (const CampaignPoint &point : result.points) {
        // Without failures or rejections the kept repeats are exactly
        // attempts 0 .. attempts-1.
        if (!point.converged() || point.failures != 0 ||
            point.rejected != 0) {
            continue;
        }
        std::map<int, std::vector<double>> per_event;
        std::set<std::size_t> sizes;
        for (unsigned attempt = 0; attempt < point.attempts; ++attempt) {
            const hwsim::HwMeasurement m = runner.measureHw(
                workload::Suite::byName(point.workload), point.cluster,
                point.freqMhz, attempt);
            sizes.insert(m.pmc.size());
            for (const auto &[id, count] : m.pmc)
                per_event[id].push_back(count);
        }
        hwsim::PmcCounts expected;
        for (auto &[id, counts] : per_event)
            expected.emplace_back(id, mlstat::median(std::move(counts)));
        EXPECT_EQ(point.pmc, expected) << point.workload;
        ++checked;
        mixed += sizes.size() > 1 ? 1 : 0;
    }
    setQuiet(false);
    EXPECT_GT(checked, 10u);
    EXPECT_GT(mixed, 0u);
}

TEST_F(CampaignFlow, CorruptCheckpointIsReportedAndRerun)
{
    ScratchFile checkpoint("gs_campaign_corrupt_test.csv");
    {
        std::ofstream out(checkpoint.path);
        out << "workload,cluster,freq_mhz,status,attempts,failures,"
               "rejected,backoff_s,exec_seconds,power_watts,"
               "temperature_c,voltage,throttled,repeats,pmc,error\n";
        // Bad status tag and bad numeric: both rows must be rejected
        // with a warning, then re-measured.
        out << "mi-crc32,a15,1000.000,meh,1,0,0,0,0.5,1,60,1.1,0,"
               "0.5,,ok\n";
        out << "mi-dijkstra,a15,1000.000,clean,1,0,0,0,oops,1,60,"
               "1.1,0,oops,,ok\n";
    }

    CampaignConfig policy;
    policy.checkpointPath = checkpoint.path;
    ExperimentRunner runner = makeRunner();
    CampaignResult result =
        CampaignEngine(runner, policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    EXPECT_EQ(result.resumedPoints, 0u);
    EXPECT_EQ(result.measuredPoints, 45u);
    EXPECT_EQ(result.dataset.records.size(), 45u);
    EXPECT_GE(result.warnings.size(), 2u);
}

TEST_F(CampaignFlow, NaivePolicyAcceptsFirstMeasurement)
{
    CampaignConfig naive = CampaignConfig::naive();
    EXPECT_EQ(naive.quorum, 1u);

    ExperimentRunner runner = makeRunner();
    runner.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignEngine engine(runner, naive);
    CampaignResult result =
        engine.runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    // The naive flow retries crashes but rejects nothing, so faulty
    // measurements land in the dataset and drag the error metric
    // outside the resilient campaign's one-point tolerance.
    EXPECT_EQ(result.totalRejected, 0u);
    EXPECT_GT(std::abs(result.dataset.execMpe() -
                       cleanDataset->execMpe()) * 100.0,
              1.0);
}
