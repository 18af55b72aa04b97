/**
 * @file
 * ExperimentRunner implementation.
 *
 * The experiment loops run through the execution engine (src/exec/):
 * each (workload, frequency) point becomes a small task pipeline and
 * the results are gathered by point index, so the collated dataset
 * is bit-identical at any thread count. Each workload's 1.0 GHz base
 * runs are graph nodes of their own (BaseRunNodes), which the point
 * nodes that would simulate depend on.
 */

#include "gemstone/runner.hh"

#include <signal.h>
#include <unistd.h>

#include <charconv>
#include <map>
#include <string>
#include <string_view>

#include "exec/procpool.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone::core {

namespace {

/**
 * Flatten a hardware measurement for the result store. The identity
 * fields (workload, cluster, frequency) live in the key; everything
 * else — scalars, per-repeat timings, PMC counts, the ground-truth
 * event record — is encoded as named doubles.
 */
exec::ResultStore::Fields
encodeHwMeasurement(const hwsim::HwMeasurement &m)
{
    exec::ResultStore::Fields fields;
    fields.emplace_back("voltage", m.voltage);
    fields.emplace_back("exec_seconds", m.execSeconds);
    fields.emplace_back("power_watts", m.powerWatts);
    fields.emplace_back("temperature_c", m.temperatureC);
    fields.emplace_back("throttled", m.throttled ? 1.0 : 0.0);
    for (std::size_t i = 0; i < m.repeatSeconds.size(); ++i) {
        fields.emplace_back("repeat_" + std::to_string(i),
                            m.repeatSeconds[i]);
    }
    for (const auto &[id, count] : m.pmc)
        fields.emplace_back("pmc_" + std::to_string(id), count);
    for (const auto &[name, value] : m.groundTruth.toMap())
        fields.emplace_back("gt_" + name, value);
    return fields;
}

/**
 * Parse a PMC id: the whole of @p digits must be a decimal int, so a
 * bit-rotted name ("pmc_x17", "pmc_17x", "pmc_") is rejected rather
 * than thrown on or aliased to another counter.
 */
bool
parsePmcId(std::string_view digits, int &id)
{
    const char *end = digits.data() + digits.size();
    auto [ptr, ec] = std::from_chars(digits.data(), end, id);
    return ec == std::errc() && ptr == end;
}

/**
 * Decode one "gt_"/"raw:" field into @p events. An unknown name, or a
 * count the field cannot hold, is ignored and not marked present.
 */
void
decodeEventField(SortedNameCursor &cursor, uarch::EventCounts &events,
                 std::string_view name, double value)
{
    const std::size_t index = cursor.find(name);
    if (index != SortedNameCursor::npos && events.setFieldAt(index, value))
        cursor.markPresent(index);
}

/**
 * Decode a hardware measurement in one pass over the fields. Accept
 * set: a duplicate name is last-wins and an unknown "gt_" name (or a
 * count its field cannot hold) is ignored. The entry is undecodable
 * (false) on an unknown top-level name or a malformed "pmc_" id, and
 * unless it carries the complete schema: every scalar and every
 * EventCounts field under "gt_". PMC ids may vary, since a lost
 * multiplex group is a legitimate measurement.
 */
bool
decodeHwMeasurement(const exec::ResultStore::Fields &fields,
                    const std::string &workload,
                    hwsim::CpuCluster cluster, double freq_mhz,
                    unsigned repeats, hwsim::HwMeasurement &m)
{
    m = hwsim::HwMeasurement{};
    m.workload = workload;
    m.cluster = cluster;
    m.freqMhz = freq_mhz;
    m.repeatSeconds.reserve(repeats);
    m.pmc.reserve(hwsim::PmuEventTable::events().size());
    // Encoded in toMap() order, which is the cursor's table order.
    SortedNameCursor ground_truth(uarch::EventCounts::fieldNames());
    enum : unsigned {
        kVoltage = 1u << 0,
        kExecSeconds = 1u << 1,
        kPowerWatts = 1u << 2,
        kTemperatureC = 1u << 3,
        kThrottled = 1u << 4,
        kAllScalars = (1u << 5) - 1,
    };
    unsigned scalars = 0;
    for (const auto &[field_name, value] : fields) {
        const std::string_view name = field_name;
        if (name.starts_with("gt_")) {
            decodeEventField(ground_truth, m.groundTruth, name.substr(3),
                             value);
        } else if (name.starts_with("pmc_")) {
            // Encoded in ascending id order, so this appends.
            int id = 0;
            if (!parsePmcId(name.substr(4), id))
                return false;
            hwsim::setPmcCount(m.pmc, id, value);
        } else if (name.starts_with("repeat_")) {
            // Encoded in index order; Fields preserves it.
            m.repeatSeconds.push_back(value);
        } else if (name == "voltage") {
            m.voltage = value;
            scalars |= kVoltage;
        } else if (name == "exec_seconds") {
            m.execSeconds = value;
            scalars |= kExecSeconds;
        } else if (name == "power_watts") {
            m.powerWatts = value;
            scalars |= kPowerWatts;
        } else if (name == "temperature_c") {
            m.temperatureC = value;
            scalars |= kTemperatureC;
        } else if (name == "throttled") {
            m.throttled = value != 0.0;
            scalars |= kThrottled;
        } else {
            return false;
        }
    }
    return scalars == kAllScalars && ground_truth.complete();
}

exec::ResultStore::Fields
encodeG5Stats(const g5::G5Stats &stats)
{
    exec::ResultStore::Fields fields;
    fields.emplace_back("sim_seconds", stats.simSeconds);
    for (const auto &[name, value] : stats.stats)
        fields.emplace_back(std::string("stat:").append(name), value);
    for (const auto &[name, value] : stats.raw.toMap())
        fields.emplace_back("raw:" + name, value);
    return fields;
}

/**
 * Decode g5 statistics. Same accept set as decodeHwMeasurement, with
 * "raw:" in place of "gt_"; in addition every StatDump name must be
 * present under "stat:", and an unknown "stat:" name makes the entry
 * undecodable.
 */
bool
decodeG5Stats(const exec::ResultStore::Fields &fields,
              const std::string &workload, g5::G5Model model,
              int version, double freq_mhz, g5::G5Stats &stats)
{
    stats = g5::G5Stats{};
    stats.workload = workload;
    stats.model = model;
    stats.version = version;
    stats.freqMhz = freq_mhz;
    // Both groups are encoded in their table's order.
    SortedNameCursor stat_names(g5::StatDump::names());
    SortedNameCursor raw_names(uarch::EventCounts::fieldNames());
    bool sim_seconds = false;
    for (const auto &[field_name, value] : fields) {
        const std::string_view name = field_name;
        if (name.starts_with("stat:")) {
            const std::size_t index = stat_names.find(name.substr(5));
            if (index == SortedNameCursor::npos)
                return false;
            stats.stats.setAt(index, value);
            stat_names.markPresent(index);
        } else if (name.starts_with("raw:")) {
            decodeEventField(raw_names, stats.raw, name.substr(4), value);
        } else if (name == "sim_seconds") {
            stats.simSeconds = value;
            sim_seconds = true;
        } else {
            return false;
        }
    }
    return sim_seconds && stat_names.complete() && raw_names.complete();
}

/** One (workload, frequency) point of an experiment graph. */
struct PointSpec
{
    const workload::Workload *work;
    double freq;
};

/** The run-wide deadline of one experiment entry point. */
Deadline
runDeadlineFor(const RunnerConfig &config)
{
    return config.runDeadlineSeconds > 0.0
        ? Deadline::after(config.runDeadlineSeconds)
        : Deadline();
}

} // namespace

ExperimentRunner::ExperimentRunner(const RunnerConfig &config)
    : runnerConfig(config),
      board(std::make_unique<hwsim::OdroidXu3Platform>(
          config.seed, config.boardVariation)),
      sim(std::make_unique<g5::G5Simulation>(config.g5Version))
{
}

const std::vector<double> &
ExperimentRunner::frequenciesFor(hwsim::CpuCluster cluster)
{
    // Section III: 200/600/1000/1400 MHz on the A7 and
    // 600/1000/1400/1800 MHz on the A15 (2 GHz throttles).
    static const std::vector<double> little = {200.0, 600.0, 1000.0,
                                               1400.0};
    static const std::vector<double> big = {600.0, 1000.0, 1400.0,
                                            1800.0};
    return cluster == hwsim::CpuCluster::LittleA7 ? little : big;
}

g5::G5Model
ExperimentRunner::modelFor(hwsim::CpuCluster cluster)
{
    return cluster == hwsim::CpuCluster::LittleA7
        ? g5::G5Model::Ex5Little
        : g5::G5Model::Ex5Big;
}

void
ExperimentRunner::warmBaseRun(BaseEngine engine,
                              const workload::Workload &work,
                              hwsim::CpuCluster cluster)
{
    CoopScope scope(runnerConfig.cancel, Deadline(), "warmBaseRun");
    if (engine == BaseEngine::Hw)
        board->warmBaseRun(work, cluster);
    else
        sim->warmBaseRun(work, modelFor(cluster));
}

bool
ExperimentRunner::needsSimulation(BaseEngine engine,
                                  const workload::Workload &work,
                                  hwsim::CpuCluster cluster,
                                  double freq_mhz) const
{
    if (!store)
        return true;
    return !store->contains(engine == BaseEngine::Hw
                                ? hwKey(work, cluster, freq_mhz, 0)
                                : g5Key(work, cluster, freq_mhz));
}

void
ExperimentRunner::attachResultStore(
    std::shared_ptr<exec::ResultStore> new_store)
{
    store = std::move(new_store);
}

std::string
ExperimentRunner::hwKey(const workload::Workload &work,
                        hwsim::CpuCluster cluster, double freq_mhz,
                        unsigned attempt) const
{
    // Every input the measurement depends on is part of the address;
    // anything less would alias results across configurations.
    return detail::concatToString(
        "hw|seed=", runnerConfig.seed,
        "|var=", formatDouble(runnerConfig.boardVariation, 9),
        "|faults=", board->faults().config().signature(),
        "|repeats=", runnerConfig.repeats, "|", work.name, "|",
        hwsim::clusterTag(cluster), "|", formatDouble(freq_mhz, 3),
        "|a", attempt);
}

std::string
ExperimentRunner::g5Key(const workload::Workload &work,
                        hwsim::CpuCluster cluster,
                        double freq_mhz) const
{
    return detail::concatToString(
        "g5|v", runnerConfig.g5Version, "|",
        g5::modelTag(modelFor(cluster)), "|", work.name, "|",
        formatDouble(freq_mhz, 3));
}

hwsim::HwMeasurement
ExperimentRunner::measureHw(const workload::Workload &work,
                            hwsim::CpuCluster cluster,
                            double freq_mhz, unsigned attempt)
{
    // Make the runner's token visible to the platform's poll points
    // even when measureHw is called outside the experiment loops
    // (the campaign layer adds its own deadline scopes on top).
    CoopScope scope(runnerConfig.cancel, Deadline(), "measureHw");
    if (!store) {
        return board->measureAttempt(work, cluster, freq_mhz, attempt,
                                     runnerConfig.repeats);
    }
    std::string key = hwKey(work, cluster, freq_mhz, attempt);
    exec::ResultStore::Payload fields;
    if (store->lookup(key, fields)) {
        hwsim::HwMeasurement m;
        if (decodeHwMeasurement(*fields, work.name, cluster, freq_mhz,
                                runnerConfig.repeats, m)) {
            return m;
        }
        warnLimited("resultstore-decode", 3,
                    "undecodable store entry for ", key,
                    "; re-measuring");
    }
    // A RunError propagates before the insert, so failures are never
    // cached and a warm store replays them deterministically.
    hwsim::HwMeasurement m = board->measureAttempt(
        work, cluster, freq_mhz, attempt, runnerConfig.repeats);
    store->insert(key, encodeHwMeasurement(m));
    return m;
}

g5::G5Stats
ExperimentRunner::runG5(const workload::Workload &work,
                        hwsim::CpuCluster cluster, double freq_mhz)
{
    CoopScope scope(runnerConfig.cancel, Deadline(), "runG5");
    g5::G5Model model = modelFor(cluster);
    if (!store)
        return sim->run(work, model, freq_mhz);
    std::string key = g5Key(work, cluster, freq_mhz);
    exec::ResultStore::Payload fields;
    if (store->lookup(key, fields)) {
        g5::G5Stats stats;
        if (decodeG5Stats(*fields, work.name, model,
                          runnerConfig.g5Version, freq_mhz, stats)) {
            return stats;
        }
        warnLimited("resultstore-decode", 3,
                    "undecodable store entry for ", key,
                    "; re-simulating");
    }
    g5::G5Stats stats = sim->run(work, model, freq_mhz);
    store->insert(key, encodeG5Stats(stats));
    return stats;
}

ValidationDataset
ExperimentRunner::runValidation(hwsim::CpuCluster cluster)
{
    return runValidation(cluster, frequenciesFor(cluster));
}

void
ExperimentRunner::prewarmStore(hwsim::CpuCluster cluster,
                               const std::vector<PrewarmSpec> &specs,
                               const Deadline &deadline)
{
    if (!store || specs.empty() || runnerConfig.workers <= 1 ||
        runnerConfig.cancel.cancelled() || deadline.expired()) {
        return;
    }
    std::map<std::string, const workload::Workload *> byName;
    std::vector<std::string> payloads;
    for (const PrewarmSpec &spec : specs) {
        byName[spec.work->name] = spec.work;
        payloads.push_back(std::string(spec.withG5 ? "point" : "hw") +
                           "|" + spec.work->name + "|" +
                           formatExactDouble(spec.freq));
    }

    auto body = [this, &byName, cluster](
                    const std::string &payload,
                    unsigned dispatch) -> std::string {
        std::vector<std::string> parts = split(payload, '|');
        if (parts.size() != 3) {
            throw std::runtime_error("malformed prewarm task: " +
                                     payload);
        }
        const workload::Workload &work = *byName.at(parts[1]);
        double freq = 0.0;
        if (!parseFiniteDouble(parts[2], freq)) {
            throw std::runtime_error("malformed prewarm task: " +
                                     payload);
        }
        if (dispatch == 0 && exec::ProcPool::insideWorker() &&
            board->faults().workerCrashPlanned(
                work.name, hwsim::clusterTag(cluster), freq)) {
            ::kill(::getpid(), SIGKILL);
        }
        store->enableJournal();
        try {
            measureHw(work, cluster, freq, 0);
            if (parts[0] == "point")
                runG5(work, cluster, freq);
        } catch (const hwsim::RunError &) {
            // An injected attempt-0 failure is deterministic: the
            // experiment loop will replay the identical failure, so
            // there is nothing to cache and nothing to retry here.
        }
        return exec::encodeStoreEntries(store->takeJournal());
    };

    exec::ProcPool::Config pool_config;
    pool_config.workers = runnerConfig.workers;
    pool_config.cancel = runnerConfig.cancel;
    pool_config.deadline = deadline;
    exec::ProcPool pool(pool_config, body);
    std::vector<exec::ProcPool::TaskResult> outcomes =
        pool.runAll(payloads);
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
        if (!outcomes[t].completed)
            continue;  // the experiment loop recomputes it
        std::vector<std::pair<std::string, exec::ResultStore::Fields>>
            entries;
        if (exec::decodeStoreEntries(outcomes[t].payload, entries)) {
            for (auto &entry : entries)
                store->insert(entry.first, std::move(entry.second));
        }
    }
    inform("runner prewarm: ", pool.stats().tasksCompleted, " of ",
           payloads.size(), " tasks in ", runnerConfig.workers,
           " workers (", pool.stats().workerDeaths,
           " worker deaths)");
}

ValidationDataset
ExperimentRunner::runValidation(hwsim::CpuCluster cluster,
                                const std::vector<double> &freqs_mhz)
{
    ValidationDataset dataset;
    dataset.cluster = cluster;
    dataset.g5Version = runnerConfig.g5Version;
    dataset.freqsMhz = freqs_mhz;

    // Worker processes replay through the memoisation layer, so a
    // prewarmed run needs a store even if the caller attached none.
    if (runnerConfig.workers > 1 && !store)
        attachResultStore(std::make_shared<exec::ResultStore>());

    const Deadline deadline = runDeadlineFor(runnerConfig);
    std::vector<PointSpec> specs;
    for (const workload::Workload *work :
         workload::Suite::validationSet()) {
        for (double freq : freqs_mhz)
            specs.push_back({work, freq});
    }

    if (runnerConfig.workers > 1) {
        std::vector<PrewarmSpec> prewarm;
        prewarm.reserve(specs.size());
        for (const PointSpec &spec : specs)
            prewarm.push_back({spec.work, spec.freq, true});
        prewarmStore(cluster, prewarm, deadline);
    }

    // Records are gathered by point index: the dataset order never
    // depends on completion order. Declared before the graph so the
    // storage outlives any in-flight node.
    std::vector<ValidationRecord> records(specs.size());
    exec::TaskGraph graph;
    BaseRunNodes base(*this, graph, cluster, runnerConfig.cancel,
                      deadline, "validation");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const PointSpec &spec = specs[i];
        graph.add("hw:" + spec.work->name,
                  [this, &records, spec, cluster, i, deadline] {
                      CoopScope scope(runnerConfig.cancel, deadline,
                                      "validation");
                      records[i].work = spec.work;
                      records[i].cluster = cluster;
                      records[i].freqMhz = spec.freq;
                      records[i].hw = measureHw(*spec.work, cluster,
                                                spec.freq, 0);
                  },
                  base.depsFor(BaseEngine::Hw, *spec.work, spec.freq));
        graph.add("g5:" + spec.work->name,
                  [this, &records, spec, cluster, i, deadline] {
                      CoopScope scope(runnerConfig.cancel, deadline,
                                      "validation");
                      records[i].g5 =
                          runG5(*spec.work, cluster, spec.freq);
                  },
                  base.depsFor(BaseEngine::G5, *spec.work, spec.freq));
    }
    graph.runWithJobs(runnerConfig.jobs, runnerConfig.cancel);
    dataset.records = std::move(records);
    return dataset;
}

std::vector<powmon::PowerObservation>
ExperimentRunner::runPowerCharacterisation(hwsim::CpuCluster cluster)
{
    if (runnerConfig.workers > 1 && !store)
        attachResultStore(std::make_shared<exec::ResultStore>());

    const Deadline deadline = runDeadlineFor(runnerConfig);
    std::vector<PointSpec> specs;
    for (const workload::Workload &work : workload::Suite::all()) {
        for (double freq : frequenciesFor(cluster))
            specs.push_back({&work, freq});
    }

    if (runnerConfig.workers > 1) {
        std::vector<PrewarmSpec> prewarm;
        prewarm.reserve(specs.size());
        for (const PointSpec &spec : specs)
            prewarm.push_back({spec.work, spec.freq, false});
        prewarmStore(cluster, prewarm, deadline);
    }

    std::vector<powmon::PowerObservation> observations(specs.size());
    exec::TaskGraph graph;
    BaseRunNodes base(*this, graph, cluster, runnerConfig.cancel,
                      deadline, "power");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const PointSpec &spec = specs[i];
        graph.add("hw:" + spec.work->name,
                  [this, &observations, spec, cluster, i, deadline] {
                      CoopScope scope(runnerConfig.cancel, deadline,
                                      "power");
                      observations[i].measurement = measureHw(
                          *spec.work, cluster, spec.freq, 0);
                  },
                  base.depsFor(BaseEngine::Hw, *spec.work, spec.freq));
    }
    graph.runWithJobs(runnerConfig.jobs, runnerConfig.cancel);
    return observations;
}

BaseRunNodes::BaseRunNodes(ExperimentRunner &runner,
                           exec::TaskGraph &graph,
                           hwsim::CpuCluster cluster,
                           CancellationToken cancel, Deadline deadline,
                           const char *what)
    : runner(runner), graph(graph), cluster(cluster),
      cancel(std::move(cancel)), deadline(deadline), what(what)
{
}

std::vector<exec::TaskGraph::NodeId>
BaseRunNodes::depsFor(BaseEngine engine, const workload::Workload &work,
                      double freq_mhz)
{
    if (!runner.needsSimulation(engine, work, cluster, freq_mhz))
        return {};
    auto [it, added] = nodes.try_emplace({engine, &work});
    if (added) {
        it->second = graph.add(
            std::string(engine == BaseEngine::Hw ? "base:hw:"
                                                 : "base:g5:") +
                work.name,
            // By value: the nodes must not depend on this object's
            // lifetime, only on the runner's and the workload's.
            [runner = &runner, engine, &work, cluster = cluster,
             cancel = cancel, deadline = deadline, what = what] {
                CoopScope scope(cancel, deadline, what);
                runner->warmBaseRun(engine, work, cluster);
            });
    }
    return {it->second};
}

} // namespace gemstone::core
