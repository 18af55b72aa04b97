/**
 * @file
 * Tests of the power-modelling flow: event specs, selection, model
 * building, validation and application to both platforms.
 */

#include <gtest/gtest.h>

#include "gemstone/runner.hh"
#include "hwsim/pmu.hh"
#include "mlstat/descriptive.hh"
#include "mlstat/ols.hh"
#include "powmon/builder.hh"
#include "powmon/eventspec.hh"
#include "powmon/model.hh"

using namespace gemstone;
using namespace gemstone::powmon;

// ---------------------------------------------------------------------
// Event specifications
// ---------------------------------------------------------------------

TEST(EventSpecTest, SinglePmcExtraction)
{
    EventSpec cycles = EventSpecTable::forPmc(0x11);
    EXPECT_EQ(cycles.key, "0x11");
    hwsim::HwMeasurement m;
    hwsim::setPmcCount(m.pmc, 0x11, 5000.0);
    m.execSeconds = 2.0;
    EXPECT_DOUBLE_EQ(cycles.hwCount(m), 5000.0);
    EXPECT_DOUBLE_EQ(cycles.hwRate(m), 2500.0);
}

TEST(EventSpecTest, CompositeDifference)
{
    EventSpec diff = EventSpecTable::difference(0x1B, 0x73);
    EXPECT_EQ(diff.key, "0x1B-0x73");
    hwsim::HwMeasurement m;
    hwsim::setPmcCount(m.pmc, 0x1B, 1000.0);
    hwsim::setPmcCount(m.pmc, 0x73, 400.0);
    m.execSeconds = 1.0;
    EXPECT_DOUBLE_EQ(diff.hwCount(m), 600.0);
}

TEST(EventSpecTest, G5EquivalentExtraction)
{
    EventSpec cycles = EventSpecTable::forPmc(0x11);
    g5::G5Stats s;
    s.simSeconds = 0.5;
    s.stats.setAt(g5::StatDump::indexOf("system.cpu.numCycles"), 4000.0);
    EXPECT_DOUBLE_EQ(cycles.g5Count(s), 4000.0);
    EXPECT_DOUBLE_EQ(cycles.g5Rate(s), 8000.0);
}

TEST(EventSpecTest, BrokenEquivalentsAreFlagged)
{
    // 0x15 and 0x75 are on the paper's restriction list.
    const auto &bad = EventSpecTable::knownBadForG5();
    EXPECT_NE(std::find(bad.begin(), bad.end(), 0x15), bad.end());
    EXPECT_NE(std::find(bad.begin(), bad.end(), 0x75), bad.end());
}

TEST(EventSpecTest, KeyEventsHaveG5Equivalents)
{
    for (int id : {0x08, 0x11, 0x16, 0x1B, 0x73, 0x04, 0x6C})
        EXPECT_TRUE(EventSpecTable::hasG5Equivalent(id))
            << hwsim::pmcIdString(id);
}

TEST(EventSpecTest, UnknownPmcFatals)
{
    EXPECT_EXIT(EventSpecTable::forPmc(0xEE),
                ::testing::ExitedWithCode(1), "unknown PMC");
}

// ---------------------------------------------------------------------
// Model building on real platform data (shared fixture: the
// characterisation run is expensive, do it once).
// ---------------------------------------------------------------------

class PowerModelFlow : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        core::RunnerConfig config;
        runner = new core::ExperimentRunner(config);
        observations = new std::vector<PowerObservation>(
            runner->runPowerCharacterisation(
                hwsim::CpuCluster::BigA15));
        builder = new PowerModelBuilder(*observations, "a15-test");

        SelectionConfig sel;
        sel.maxEvents = 6;
        sel.requireG5Equivalent = true;
        for (int id : EventSpecTable::knownBadForG5())
            sel.excluded.insert(id);
        sel.composites.push_back(
            EventSpecTable::difference(0x1B, 0x73));
        selection = new SelectionResult(builder->selectEvents(sel));
        model = new PowerModel(builder->build(selection->events));
    }
    static void TearDownTestSuite()
    {
        delete model;
        delete selection;
        delete builder;
        delete observations;
        delete runner;
    }

    static core::ExperimentRunner *runner;
    static std::vector<PowerObservation> *observations;
    static PowerModelBuilder *builder;
    static SelectionResult *selection;
    static PowerModel *model;
};

core::ExperimentRunner *PowerModelFlow::runner = nullptr;
std::vector<PowerObservation> *PowerModelFlow::observations = nullptr;
PowerModelBuilder *PowerModelFlow::builder = nullptr;
SelectionResult *PowerModelFlow::selection = nullptr;
PowerModel *PowerModelFlow::model = nullptr;

TEST_F(PowerModelFlow, CharacterisationCoversSuiteAndOpps)
{
    // 65 workloads x 4 DVFS points.
    EXPECT_EQ(observations->size(), 65u * 4u);
}

TEST_F(PowerModelFlow, SelectionRespectsConstraints)
{
    EXPECT_GE(selection->events.size(), 3u);
    EXPECT_LE(selection->events.size(), 6u);
    for (const EventSpec &spec : selection->events) {
        for (int id : spec.addIds) {
            for (int bad : EventSpecTable::knownBadForG5())
                EXPECT_NE(id, bad) << spec.key;
        }
    }
    // Adjusted R2 grows monotonically along the selection.
    for (std::size_t i = 1; i < selection->adjR2Trajectory.size();
         ++i) {
        EXPECT_GE(selection->adjR2Trajectory[i],
                  selection->adjR2Trajectory[i - 1]);
    }
}

namespace {

/** What the brute-force oracle selected, and how often VIF vetoed. */
struct OracleSelection
{
    std::vector<std::string> keys;
    std::vector<double> trajectory;
    /** Candidates that beat round_best significantly but whose mean
     *  VIF exceeded the cap. */
    std::size_t vifVetoes = 0;
};

/**
 * Event selection the exhaustive way: each round computes every
 * viable candidate's fit, significance and mean VIF up front, then
 * scans them in candidate order against an evolving round_best.
 */
OracleSelection
bruteForceSelect(const std::vector<PowerObservation> &obs,
                 const SelectionConfig &config)
{
    std::vector<EventSpec> candidates;
    const std::vector<int> pool = config.pool.empty()
        ? hwsim::PmuEventTable::allIds()
        : config.pool;
    for (int id : pool) {
        if (config.excluded.count(id) ||
            (config.requireG5Equivalent &&
             !EventSpecTable::hasG5Equivalent(id))) {
            continue;
        }
        candidates.push_back(EventSpecTable::forPmc(id));
    }
    for (const EventSpec &composite : config.composites)
        candidates.push_back(composite);

    std::vector<std::vector<double>> columns;
    for (const EventSpec &spec : candidates) {
        columns.emplace_back();
        for (const PowerObservation &o : obs)
            columns.back().push_back(spec.hwRate(o.measurement));
    }
    std::vector<double> response;
    for (const PowerObservation &o : obs)
        response.push_back(o.power());

    struct Eval
    {
        bool viable = false;
        double adjR2 = 0.0;
        bool significant = false;
        double meanVif = 0.0;
    };
    OracleSelection out;
    std::vector<bool> used(candidates.size(), false);
    std::vector<std::size_t> chosen;
    double best = -1.0;
    while (chosen.size() < config.maxEvents) {
        std::vector<Eval> evals(candidates.size());
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            if (used[c] || mlstat::stddev(columns[c]) < 1e-12)
                continue;
            std::vector<std::vector<double>> design;
            for (std::size_t s : chosen)
                design.push_back(columns[s]);
            design.push_back(columns[c]);
            mlstat::OlsResult fit = mlstat::fitOls(design, response, true);
            if (!fit.ok)
                continue;
            Eval &eval = evals[c];
            eval.viable = true;
            eval.adjR2 = fit.adjustedR2;
            eval.significant = true;
            for (std::size_t k = 1; k < fit.pValues.size(); ++k)
                eval.significant &= fit.pValues[k] <= config.pValueStop;
            eval.meanVif =
                mlstat::mean(mlstat::varianceInflation(design));
        }
        std::size_t best_index = SIZE_MAX;
        double round_best = best;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            const Eval &eval = evals[c];
            if (!eval.viable || eval.adjR2 <= round_best + config.minGain ||
                !eval.significant) {
                continue;
            }
            if (eval.meanVif > config.maxMeanVif) {
                ++out.vifVetoes;
                continue;
            }
            round_best = eval.adjR2;
            best_index = c;
        }
        if (best_index == SIZE_MAX)
            break;
        used[best_index] = true;
        chosen.push_back(best_index);
        best = round_best;
        out.trajectory.push_back(round_best);
    }
    for (std::size_t s : chosen)
        out.keys.push_back(candidates[s].key);
    return out;
}

/** The selection generateReport's power-model step uses. */
SelectionConfig
reportSelection()
{
    SelectionConfig sel;
    sel.maxEvents = 7;
    sel.requireG5Equivalent = true;
    for (int id : EventSpecTable::knownBadForG5())
        sel.excluded.insert(id);
    sel.composites.push_back(EventSpecTable::difference(0x1B, 0x73));
    return sel;
}

/** selectEvents matches the oracle exactly; returns the oracle. */
OracleSelection
expectMatchesOracle(const std::vector<PowerObservation> &obs,
                    const SelectionConfig &config)
{
    const OracleSelection oracle = bruteForceSelect(obs, config);
    const SelectionResult got =
        PowerModelBuilder(obs, "oracle").selectEvents(config);
    std::vector<std::string> keys;
    for (const EventSpec &spec : got.events)
        keys.push_back(spec.key);
    EXPECT_EQ(keys, oracle.keys);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(got.adjR2Trajectory, oracle.trajectory);
    EXPECT_FALSE(oracle.keys.empty());
    return oracle;
}

} // namespace

TEST_F(PowerModelFlow, SelectionMatchesBruteForceOracle)
{
    {
        SCOPED_TRACE("A15, report selection");
        expectMatchesOracle(*observations, reportSelection());
    }
    {
        SCOPED_TRACE("A15, unrestricted");
        expectMatchesOracle(*observations, SelectionConfig{});
    }
    {
        SCOPED_TRACE("A7, report selection");
        expectMatchesOracle(
            runner->runPowerCharacterisation(hwsim::CpuCluster::LittleA7),
            reportSelection());
    }
    {
        // A VIF cap tight enough to veto candidates that would
        // otherwise have won their round.
        SCOPED_TRACE("A15, tight VIF cap");
        SelectionConfig tight = reportSelection();
        tight.maxMeanVif = 1.5;
        EXPECT_GT(expectMatchesOracle(*observations, tight).vifVetoes,
                  0u);
    }
}

TEST_F(PowerModelFlow, PerFrequencyModelsCoverOpps)
{
    ASSERT_EQ(model->perFrequency.size(), 4u);
    EXPECT_DOUBLE_EQ(model->perFrequency.front().freqMhz, 600.0);
    EXPECT_DOUBLE_EQ(model->perFrequency.back().freqMhz, 1800.0);
    for (const FrequencyModel &fm : model->perFrequency) {
        EXPECT_TRUE(fm.fit.ok);
        EXPECT_GT(fm.voltage, 0.5);
    }
}

TEST_F(PowerModelFlow, InSampleQualityIsPaperGrade)
{
    PowerModelQuality q =
        PowerModelBuilder::validate(*model, *observations);
    EXPECT_LT(q.mape, 0.10);          // paper: 3.28%
    EXPECT_GT(q.adjustedR2, 0.97);    // paper: 0.996
    EXPECT_LT(q.meanVif, 12.0);       // paper: 6
    EXPECT_EQ(q.observations, observations->size());
    EXPECT_FALSE(q.worstObservation.empty());
}

TEST_F(PowerModelFlow, EstimatesTrackMeasurementsPerObservation)
{
    for (std::size_t i = 0; i < observations->size(); i += 17) {
        const PowerObservation &obs = (*observations)[i];
        double est = model->estimateHw(obs.measurement);
        EXPECT_GT(est, 0.0);
        EXPECT_NEAR(est, obs.power(), obs.power() * 0.5)
            << obs.workload();
    }
}

TEST_F(PowerModelFlow, BreakdownSumsToEstimate)
{
    const PowerObservation &obs = observations->front();
    double est = model->estimateHw(obs.measurement);
    std::vector<double> parts = model->breakdownHw(obs.measurement);
    ASSERT_EQ(parts.size(), model->events.size() + 1);
    double sum = 0.0;
    for (double part : parts)
        sum += part;
    EXPECT_NEAR(sum, est, 1e-9);
}

TEST_F(PowerModelFlow, AppliesToG5Statistics)
{
    // The Fig. 2 tool: the same model runs on simulator output.
    g5::G5Stats stats = runner->simulator().run(
        workload::Suite::byName("mi-crc32"), g5::G5Model::Ex5Big,
        1000.0);
    double est = model->estimateG5(stats);
    EXPECT_GT(est, 0.0);
    EXPECT_LT(est, 10.0);
}

TEST_F(PowerModelFlow, RuntimeEquationsMentionEveryEvent)
{
    std::string equations = model->runtimeEquations();
    for (const EventSpec &spec : model->events)
        EXPECT_NE(equations.find(spec.key), std::string::npos);
    EXPECT_NE(equations.find("600mhz"), std::string::npos);
    EXPECT_NE(equations.find("1800mhz"), std::string::npos);
}

TEST_F(PowerModelFlow, UnknownFrequencyFatals)
{
    const PowerObservation &obs = observations->front();
    std::vector<double> rates = model->hwRates(obs.measurement);
    EXPECT_EXIT(model->estimateFromRates(rates, 1234.0),
                ::testing::ExitedWithCode(1), "no fit");
}


TEST_F(PowerModelFlow, SerializationRoundTrip)
{
    std::string text = model->serialize();
    PowerModel restored = PowerModel::deserialize(text);
    EXPECT_EQ(restored.clusterName, model->clusterName);
    ASSERT_EQ(restored.events.size(), model->events.size());
    ASSERT_EQ(restored.perFrequency.size(),
              model->perFrequency.size());
    for (std::size_t e = 0; e < model->events.size(); ++e)
        EXPECT_EQ(restored.events[e].key, model->events[e].key);

    // Estimates from the restored model are bit-identical.
    const PowerObservation &obs = observations->front();
    EXPECT_DOUBLE_EQ(restored.estimateHw(obs.measurement),
                     model->estimateHw(obs.measurement));
}

TEST(PowerModelSerialization, RejectsGarbage)
{
    EXPECT_EXIT(PowerModel::deserialize("not a model"),
                ::testing::ExitedWithCode(1), "powmon model");
    EXPECT_EXIT(PowerModel::deserialize("powmon-model 1\n"),
                ::testing::ExitedWithCode(1), "incomplete");
}

TEST(PowerModelBuilderTest, EmptyObservationsFatal)
{
    EXPECT_EXIT(PowerModelBuilder({}, "empty"),
                ::testing::ExitedWithCode(1), "no observations");
}
