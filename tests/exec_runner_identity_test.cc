/**
 * @file
 * Runner-level byte identity: ExperimentRunner::runValidation plus
 * runPowerCharacterisation must produce the same datasets and power
 * observations at any thread count, with no result store, an empty
 * one or a warm one, with fault injection off and on, and
 * runExperiments (both experiments as one graph) must return exactly
 * what the two separate calls do. Base runs are graph nodes of their
 * own (BaseRunNodes); a warm store must skip them entirely, so a warm
 * run simulates nothing.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/resultstore.hh"
#include "gemstone/runner.hh"
#include "hwsim/faults.hh"
#include "isa/predecode.hh"
#include "util/cancellation.hh"
#include "util/strutil.hh"

using namespace gemstone;
using namespace gemstone::core;

namespace {

constexpr hwsim::CpuCluster kCluster = hwsim::CpuCluster::BigA15;

/**
 * The lab fault mix minus run failures: the runner takes attempt 0
 * of every point, so a failed run aborts the experiment instead of
 * producing a dataset (RunFailureIsIdenticalAcrossSchedules covers
 * that path). Thermal episodes, sensor and PMC faults all still
 * bite.
 */
hwsim::FaultConfig
observationFaults()
{
    hwsim::FaultConfig faults = hwsim::FaultConfig::labMix();
    faults.runFailureProb = 0.0;
    return faults;
}

/** Every field of a measurement, doubles rendered exactly. */
void
render(std::ostringstream &out, const hwsim::HwMeasurement &m)
{
    out << m.workload << ' ' << hwsim::clusterTag(m.cluster) << ' '
        << formatExactDouble(m.freqMhz) << ' '
        << formatExactDouble(m.voltage) << ' '
        << formatExactDouble(m.execSeconds) << ' '
        << formatExactDouble(m.powerWatts) << ' '
        << formatExactDouble(m.temperatureC) << ' ' << m.throttled;
    for (double seconds : m.repeatSeconds)
        out << " r" << formatExactDouble(seconds);
    for (const auto &[id, count] : m.pmc)
        out << " p" << id << '=' << formatExactDouble(count);
    for (const auto &[name, value] : m.groundTruth.toMap())
        out << ' ' << name << '=' << formatExactDouble(value);
    out << '\n';
}

/** Everything the two experiments return, rendered exactly. */
struct RunnerOutput
{
    std::string validationCsv;
    std::string records;
    std::string observations;
    /** Injected faults that fired (0 with injection off). */
    unsigned faultsFired = 0;
};

struct RunSpec
{
    unsigned jobs = 1;
    bool faults = false;
    std::shared_ptr<exec::ResultStore> store;
    /** One runExperiments graph instead of the two entry points. */
    bool combined = false;
    unsigned workers = 0;
};

RunnerOutput
runBoth(const RunSpec &spec)
{
    RunnerConfig config;
    config.jobs = spec.jobs;
    config.workers = spec.workers;
    config.repeats = 3;
    ExperimentRunner runner(config);
    if (spec.faults)
        runner.platform().injectFaults(observationFaults());
    if (spec.store)
        runner.attachResultStore(spec.store);

    RunnerOutput output;
    ExperimentResults results;
    if (spec.combined) {
        results = runner.runExperiments(kCluster);
    } else {
        results.validation = runner.runValidation(kCluster);
        results.power = runner.runPowerCharacterisation(kCluster);
    }
    const ValidationDataset &dataset = results.validation;
    output.validationCsv = dataset.toCsv();
    std::ostringstream records;
    for (const ValidationRecord &record : dataset.records) {
        render(records, record.hw);
        records << formatExactDouble(record.g5.simSeconds);
        for (const auto &[name, value] : record.g5.stats)
            records << ' ' << name << '=' << formatExactDouble(value);
        records << '\n';
    }
    output.records = records.str();

    std::ostringstream observations;
    for (const powmon::PowerObservation &obs : results.power)
        render(observations, obs.measurement);
    output.observations = observations.str();

    const hwsim::FaultInjector::Tally &tally =
        runner.platform().faults().tally();
    output.faultsFired = tally.thermalEpisodes + tally.sensorDropouts +
        tally.sensorStuck + tally.pmcGroupLosses + tally.pmcOverflows;
    return output;
}

void
expectIdentical(const RunnerOutput &expected,
                const RunnerOutput &actual, const std::string &context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(expected.validationCsv, actual.validationCsv);
    EXPECT_EQ(expected.records, actual.records);
    EXPECT_EQ(expected.observations, actual.observations);
}

std::uint64_t
predecodeLookups()
{
    isa::PredecodeCacheStats stats = isa::predecodeCacheStats();
    return stats.hits + stats.misses;
}

/**
 * The matrix for one fault setting. The serial storeless run is the
 * reference. Cold runs each simulate every base run, which is slow
 * under sanitizers, so the cold schedules are spread over the two
 * fault settings: here one more storeless run at @p storeless_jobs
 * and an empty-store run at @p empty_store_jobs. The store that run
 * fills is then replayed warm at every thread count, and a warm run
 * must not simulate at all. Returns the reference.
 */
RunnerOutput
checkMatrix(bool faults, unsigned storeless_jobs,
            unsigned empty_store_jobs)
{
    RunnerOutput reference = runBoth({1, faults, nullptr});
    EXPECT_FALSE(reference.records.empty());
    EXPECT_FALSE(reference.observations.empty());

    expectIdentical(reference,
                    runBoth({storeless_jobs, faults, nullptr}),
                    "no store jobs=" + std::to_string(storeless_jobs));

    auto store = std::make_shared<exec::ResultStore>();
    expectIdentical(reference, runBoth({empty_store_jobs, faults, store}),
                    "empty store jobs=" +
                        std::to_string(empty_store_jobs));
    const exec::ResultStore::Stats filled = store->stats();
    EXPECT_GT(filled.insertions, 0u);

    // Warm: every point is a store hit, so no base node is added and
    // nothing is simulated — not one predecode lookup.
    for (unsigned jobs : {1u, 2u, 4u}) {
        const std::string tag = "warm store jobs=" + std::to_string(jobs);
        const std::uint64_t lookups_before = predecodeLookups();
        expectIdentical(reference, runBoth({jobs, faults, store}), tag);
        EXPECT_EQ(predecodeLookups() - lookups_before, 0u) << tag;
    }
    const exec::ResultStore::Stats warmed = store->stats();
    EXPECT_EQ(warmed.insertions, filled.insertions);
    EXPECT_EQ(warmed.misses, filled.misses);
    return reference;
}

} // namespace

TEST(ExecRunnerIdentity, CleanRunsAreByteIdenticalAcrossSchedules)
{
    RunnerOutput reference = checkMatrix(false, 4, 2);
    EXPECT_EQ(reference.faultsFired, 0u);
}

TEST(ExecRunnerIdentity, FaultedRunsAreByteIdenticalAcrossSchedules)
{
    RunnerOutput reference = checkMatrix(true, 2, 4);
    // The faults must actually bite for this to prove anything.
    EXPECT_GT(reference.faultsFired, 0u);
}

TEST(ExecRunnerIdentity, CombinedGraphMatchesSeparateRuns)
{
    // One graph for both experiments reorders the nodes (power-only
    // base runs first, shared base nodes, power points behind the
    // validation point they share a measurement with); the results
    // must not move.
    const RunnerOutput reference = runBoth({1, false, nullptr});
    for (unsigned jobs : {1u, 4u}) {
        const std::string tag = "combined jobs=" + std::to_string(jobs);
        auto store = std::make_shared<exec::ResultStore>();
        expectIdentical(reference, runBoth({jobs, false, store, true}),
                        tag + " cold store");
        // Each key was simulated and inserted once: a power point
        // never races its validation twin to a second miss.
        const exec::ResultStore::Stats cold = store->stats();
        EXPECT_EQ(cold.insertions, store->size()) << tag;
        EXPECT_EQ(cold.misses, store->size()) << tag;

        const std::uint64_t lookups_before = predecodeLookups();
        expectIdentical(reference, runBoth({jobs, false, store, true}),
                        tag + " warm store");
        EXPECT_EQ(predecodeLookups() - lookups_before, 0u) << tag;
        EXPECT_EQ(store->stats().insertions, cold.insertions) << tag;
    }
    expectIdentical(reference,
                    runBoth({2, false, nullptr, true, /*workers=*/2}),
                    "combined jobs=2 workers=2");
}

TEST(ExecRunnerIdentity, CombinedGraphCancelsMidGraph)
{
    // jobs=1 runs the graph on this thread, so a poll hook sees every
    // cooperative checkpoint: cancel at the first one after the first
    // store insertion, i.e. after some nodes have completed.
    {
        RunnerConfig config;
        config.repeats = 3;
        ExperimentRunner runner(config);
        auto store = std::make_shared<exec::ResultStore>();
        runner.attachResultStore(store);
        setCoopPollHook(
            [store, token = config.cancel]() mutable {
                if (store->size() > 0)
                    token.requestCancel();
            },
            0.0);
        EXPECT_THROW(runner.runExperiments(kCluster), CancelledError);
        clearCoopPollHook();
        EXPECT_GT(store->size(), 0u);
    }
    // jobs=4: a watchdog thread cancels once the pool has finished a
    // point, while the rest of the graph is still in flight.
    {
        RunnerConfig config;
        config.jobs = 4;
        config.repeats = 3;
        ExperimentRunner runner(config);
        auto store = std::make_shared<exec::ResultStore>();
        runner.attachResultStore(store);
        std::thread watchdog([store, token = config.cancel]() mutable {
            const auto give_up = std::chrono::steady_clock::now() +
                std::chrono::seconds(60);
            while (store->size() == 0 &&
                   std::chrono::steady_clock::now() < give_up) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
            token.requestCancel();
        });
        EXPECT_THROW(runner.runExperiments(kCluster), CancelledError);
        watchdog.join();
    }
}

TEST(ExecRunnerIdentity, RunFailureIsIdenticalAcrossSchedules)
{
    // With run failures armed, some attempt-0 measurement fails and
    // the experiment unwinds with it. The lowest-id failed node is
    // rethrown, so the reported error is the same at any thread
    // count.
    std::vector<std::string> errors;
    for (unsigned jobs : {1u, 4u}) {
        RunnerConfig config;
        config.jobs = jobs;
        config.repeats = 3;
        ExperimentRunner runner(config);
        runner.platform().injectFaults(hwsim::FaultConfig::labMix());
        try {
            runner.runValidation(kCluster, {1000.0});
            ADD_FAILURE() << "expected a RunError at jobs=" << jobs;
        } catch (const hwsim::RunError &error) {
            errors.push_back(error.what());
        }
    }
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_EQ(errors[0], errors[1]);
}
