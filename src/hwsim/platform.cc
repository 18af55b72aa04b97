/**
 * @file
 * ODROID-XU3 platform model implementation.
 */

#include "hwsim/platform.hh"

#include <algorithm>
#include <vector>

#include "mlstat/descriptive.hh"
#include "util/arena.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone::hwsim {

std::string
clusterTag(CpuCluster cluster)
{
    return cluster == CpuCluster::LittleA7 ? "a7" : "a15";
}

double
HwMeasurement::pmcValue(int id) const
{
    return pmcCount(pmc, id);
}

double
HwMeasurement::pmcRate(int id) const
{
    return execSeconds > 0.0 ? pmcValue(id) / execSeconds : 0.0;
}

uarch::ClusterConfig
trueBigConfig()
{
    uarch::ClusterConfig cluster;
    cluster.name = "cortex-a15";
    cluster.numCores = 4;
    cluster.quantum = 128;

    uarch::CoreConfig &core = cluster.core;
    core.name = "a15";
    core.issueWidth = 3.0;
    core.frontendDepth = 15.0;
    core.depStallFactor = 0.15;   // deep OoO window hides latency
    core.memStallFactor = 0.35;   // MLP + run-ahead
    core.latIntMul = 4.0;
    core.latIntDiv = 12.0;
    core.latFpAlu = 4.0;
    core.latFpDiv = 18.0;
    core.latSimd = 4.0;
    core.latLoadToUse = 2.0;

    core.bpKind = uarch::BpKind::Tournament;
    core.tournamentConfig = uarch::TournamentBpConfig{};
    core.wrongPathFetchLines = 3;
    core.wrongPathLoads = 1;

    core.l1i.name = "a15.l1i";
    core.l1i.sizeBytes = 32 * 1024;
    core.l1i.assoc = 2;
    core.l1i.lineBytes = 64;
    core.l1i.hitLatency = 1.0;
    core.fetchGroupInsts = 4;  // fetch-group lookup

    core.l1d.name = "a15.l1d";
    core.l1d.sizeBytes = 32 * 1024;
    core.l1d.assoc = 2;
    core.l1d.lineBytes = 64;
    core.l1d.hitLatency = 2.0;
    core.l1d.writeStreaming = true;   // real A15 write-streams
    core.l1d.streamingThreshold = 1;
    core.l1d.prefetchDegree = 1;

    // True TLB hierarchy (Cortex-A15 TRM): 32-entry L1 ITLB, 32-entry
    // L1 DTLB, shared 512-entry 4-way L2 TLB with a short latency.
    core.itlb.name = "a15.itlb";
    core.itlb.entries = 32;
    core.itlb.assoc = 0;  // fully associative
    core.dtlb.name = "a15.dtlb";
    core.dtlb.entries = 32;
    core.dtlb.assoc = 0;
    core.unifiedL2Tlb = true;
    core.l2TlbUnified.name = "a15.l2tlb";
    core.l2TlbUnified.entries = 512;
    core.l2TlbUnified.assoc = 4;
    core.l2TlbUnified.latency = 2.0;
    core.pageWalkLatency = 30.0;

    core.osItlbFlushPeriod = 20000;  // timer-tick TLB interference
    core.barrierCost = 25.0;
    core.isbCost = 14.0;
    core.exclusiveCost = 7.0;
    core.strexFailCost = 12.0;
    core.snoopCost = 30.0;

    cluster.l2.name = "a15.l2";
    cluster.l2.sizeBytes = 2 * 1024 * 1024;
    cluster.l2.assoc = 16;
    cluster.l2.lineBytes = 64;
    cluster.l2.hitLatency = 12.0;
    cluster.l2.prefetchDegree = 1;

    cluster.dram.rowHitNs = 35.0;
    cluster.dram.rowMissNs = 80.0;
    return cluster;
}

uarch::ClusterConfig
trueLittleConfig()
{
    uarch::ClusterConfig cluster;
    cluster.name = "cortex-a7";
    cluster.numCores = 4;
    cluster.quantum = 128;

    uarch::CoreConfig &core = cluster.core;
    core.name = "a7";
    core.issueWidth = 1.5;        // partial dual issue
    core.frontendDepth = 8.0;
    core.depStallFactor = 0.70;   // in-order: latency mostly exposed
    core.memStallFactor = 1.00;
    core.latIntMul = 3.0;
    core.latIntDiv = 18.0;
    core.latFpAlu = 5.0;
    core.latFpDiv = 25.0;
    core.latSimd = 5.0;
    core.latLoadToUse = 2.0;

    core.bpKind = uarch::BpKind::Tournament;
    core.tournamentConfig.localEntries = 512;
    core.tournamentConfig.globalEntries = 2048;
    core.tournamentConfig.chooserEntries = 2048;
    core.tournamentConfig.historyBits = 8;
    core.tournamentConfig.btbEntries = 512;
    core.tournamentConfig.rasEntries = 8;
    core.tournamentConfig.indirectEntries = 128;
    core.wrongPathFetchLines = 2;
    core.wrongPathLoads = 0;

    core.l1i.name = "a7.l1i";
    core.l1i.sizeBytes = 32 * 1024;
    core.l1i.assoc = 2;
    core.l1i.lineBytes = 32;
    core.l1i.hitLatency = 1.0;
    core.fetchGroupInsts = 2;

    core.l1d.name = "a7.l1d";
    core.l1d.sizeBytes = 32 * 1024;
    core.l1d.assoc = 4;
    core.l1d.lineBytes = 64;
    core.l1d.hitLatency = 2.0;
    core.l1d.writeStreaming = true;
    core.l1d.streamingThreshold = 1;

    core.itlb.name = "a7.itlb";
    core.itlb.entries = 10;   // micro-TLB
    core.itlb.assoc = 0;
    core.dtlb.name = "a7.dtlb";
    core.dtlb.entries = 10;
    core.dtlb.assoc = 0;
    core.unifiedL2Tlb = true;
    core.l2TlbUnified.name = "a7.l2tlb";
    core.l2TlbUnified.entries = 256;
    core.l2TlbUnified.assoc = 2;
    core.l2TlbUnified.latency = 2.0;
    core.pageWalkLatency = 40.0;

    core.osItlbFlushPeriod = 20000;
    core.barrierCost = 18.0;
    core.isbCost = 10.0;
    core.exclusiveCost = 5.0;
    core.strexFailCost = 9.0;
    core.snoopCost = 22.0;

    cluster.l2.name = "a7.l2";
    cluster.l2.sizeBytes = 512 * 1024;
    cluster.l2.assoc = 8;
    cluster.l2.lineBytes = 64;
    cluster.l2.hitLatency = 8.0;   // the g5 model has this too high
    cluster.l2.prefetchDegree = 0;

    cluster.dram.rowHitNs = 40.0;
    cluster.dram.rowMissNs = 90.0;
    return cluster;
}

const std::vector<OppPoint> &
OdroidXu3Platform::oppTable(CpuCluster cluster)
{
    static const std::vector<OppPoint> little = {
        {200.0, 0.90}, {600.0, 0.95}, {1000.0, 1.05}, {1400.0, 1.25}};
    static const std::vector<OppPoint> big = {
        {600.0, 0.90},
        {1000.0, 1.00},
        {1400.0, 1.10},
        {1800.0, 1.25},
        {2000.0, 1.3625}};
    return cluster == CpuCluster::LittleA7 ? little : big;
}

double
OdroidXu3Platform::voltageFor(CpuCluster cluster, double freq_mhz)
{
    for (const OppPoint &opp : oppTable(cluster)) {
        if (opp.freqMhz == freq_mhz)
            return opp.voltage;
    }
    fatal("no operating point at ", freq_mhz, " MHz on ",
          clusterTag(cluster));
}

namespace {

/** Apply multiplicative board-to-board spread to every coefficient. */
PowerCoefficients
perturbCoefficients(PowerCoefficients c, Rng &rng, double variation)
{
    if (variation <= 0.0)
        return c;
    auto jitter = [&rng, variation](double &field) {
        field *= 1.0 + rng.gaussian(0.0, variation);
        if (field < 0.0)
            field = 0.0;
    };
    jitter(c.staticBase);
    jitter(c.staticPerDegree);
    jitter(c.clockTreePerGhz);
    jitter(c.energyCycle);
    jitter(c.energyInst);
    jitter(c.energyIntMul);
    jitter(c.energyIntDiv);
    jitter(c.energyFp);
    jitter(c.energySimd);
    jitter(c.energyL1dAccess);
    jitter(c.energyL1dMiss);
    jitter(c.energyL1iAccess);
    jitter(c.energyL2Access);
    jitter(c.energyDram);
    jitter(c.energyMispredict);
    jitter(c.energyTlbWalk);
    jitter(c.energyExclusive);
    jitter(c.energyBarrier);
    jitter(c.energySnoop);
    jitter(c.energyUnaligned);
    return c;
}

PowerCoefficients
boardCoefficients(PowerCoefficients base, std::uint64_t seed,
                  std::uint64_t stream, double variation)
{
    Rng rng(seed ^ stream);
    return perturbCoefficients(base, rng, variation);
}

/**
 * Thread-local pool of warm cluster models, keyed by cluster shape
 * and workload memory size. Each model carves its tables from the
 * thread's arena (threadArena()), so a campaign thread builds a
 * given (cluster, memBytes) model exactly once; every later base run
 * reuses it through reset() + memory().clear(), which restores
 * bit-identical fresh-model state without touching the heap
 * (enforced by tests/exec_fastpath_test.cc). The engine selection is
 * re-applied on reuse because a freshly constructed model reads the
 * process-wide default at construction time.
 */
uarch::ClusterModel &
pooledModel(CpuCluster cluster, std::uint64_t mem_bytes)
{
    struct PoolEntry
    {
        CpuCluster cluster;
        std::uint64_t memBytes;
        std::unique_ptr<uarch::ClusterModel> model;
    };
    thread_local std::vector<PoolEntry> pool;
    for (PoolEntry &entry : pool) {
        if (entry.cluster == cluster && entry.memBytes == mem_bytes) {
            entry.model->reset();
            entry.model->memory().clear();
            entry.model->setExecEngine(uarch::defaultExecEngine());
            return *entry.model;
        }
    }
    uarch::ClusterConfig config = cluster == CpuCluster::LittleA7
        ? trueLittleConfig()
        : trueBigConfig();
    config.memBytes = mem_bytes;
    pool.push_back({cluster, mem_bytes,
                    std::make_unique<uarch::ClusterModel>(
                        config, &threadArena())});
    return *pool.back().model;
}

} // namespace

OdroidXu3Platform::OdroidXu3Platform(std::uint64_t seed,
                                     double board_variation)
    : masterRng(seed),
      pmuSampler(6, 0.004),
      powerSensor(3.8, 0.015),
      thermalModel(24.0, 9.0, 85.0),
      bigPower(boardCoefficients(bigCoefficients(), seed,
                                 0xb16b00b5ULL, board_variation)),
      littlePower(boardCoefficients(littleCoefficients(), seed,
                                    0x11771e77ULL, board_variation))
{
}

const GroundTruthPower &
OdroidXu3Platform::groundTruthPower(CpuCluster cluster) const
{
    return cluster == CpuCluster::LittleA7 ? littlePower : bigPower;
}

void
OdroidXu3Platform::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    runCache.clear();
}

void
OdroidXu3Platform::injectFaults(const FaultConfig &config)
{
    std::lock_guard<std::mutex> lock(attemptMutex);
    faultInjector = FaultInjector(config);
    faultAttempts.clear();
}

void
OdroidXu3Platform::resetFaultAttempts()
{
    std::lock_guard<std::mutex> lock(attemptMutex);
    faultAttempts.clear();
}

std::shared_ptr<OdroidXu3Platform::BaseRunSlot>
OdroidXu3Platform::baseRun(const workload::Workload &work,
                           CpuCluster cluster)
{
    std::string key = clusterTag(cluster) + ":" + work.name;
    std::shared_ptr<BaseRunSlot> slot;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        std::shared_ptr<BaseRunSlot> &entry = runCache[key];
        if (!entry)
            entry = std::make_shared<BaseRunSlot>();
        slot = entry;
    }
    // The simulation runs outside the cache lock (it can take
    // seconds); the once-flag makes concurrent first callers agree
    // on a single run.
    std::call_once(slot->once, [&] {
        std::uint64_t mem_bytes =
            std::max<std::uint64_t>(work.memBytes, 64 * 1024);
        uarch::ClusterModel &model = pooledModel(cluster, mem_bytes);
        work.prepareMemory(model.memory());
        model.runInto(work.program, work.numThreads, 1.0, slot->run);
    });
    return slot;
}

HwMeasurement
OdroidXu3Platform::measure(const workload::Workload &work,
                           CpuCluster cluster, double freq_mhz,
                           unsigned repeats)
{
    return measureEvents(work, cluster, freq_mhz,
                         PmuEventTable::allIds(), repeats);
}

HwMeasurement
OdroidXu3Platform::measureAttempt(const workload::Workload &work,
                                  CpuCluster cluster, double freq_mhz,
                                  unsigned attempt, unsigned repeats)
{
    return measureImpl(work, cluster, freq_mhz,
                       PmuEventTable::allIds(), repeats, attempt);
}

HwMeasurement
OdroidXu3Platform::measureEvents(const workload::Workload &work,
                                 CpuCluster cluster, double freq_mhz,
                                 const std::vector<int> &event_ids,
                                 unsigned repeats)
{
    // Legacy attempt accounting: successive calls on the same point
    // are successive attempts, tracked in the shared per-point map.
    unsigned attempt = 0;
    if (faultInjector.active()) {
        std::string point_key = work.name + ":" +
            clusterTag(cluster) + ":" + formatDouble(freq_mhz, 3);
        std::lock_guard<std::mutex> lock(attemptMutex);
        attempt = faultAttempts[point_key]++;
    }
    return measureImpl(work, cluster, freq_mhz, event_ids, repeats,
                       attempt);
}

HwMeasurement
OdroidXu3Platform::measureImpl(const workload::Workload &work,
                               CpuCluster cluster, double freq_mhz,
                               const std::vector<int> &event_ids,
                               unsigned repeats, unsigned attempt)
{
    fatal_if(repeats == 0, "need at least one timing repeat");
    // Between-measurement poll: a cancel or expired deadline aborts
    // before this attempt spends a base run on dead work.
    coopCheckpoint();

    HwMeasurement m;
    m.workload = work.name;
    m.cluster = cluster;
    m.freqMhz = freq_mhz;
    m.voltage = voltageFor(cluster, freq_mhz);

    // Fault plan for this attempt. With the injector inactive the
    // plan is benign and every path below is bit-identical to the
    // fault-free build; a failed run dies before touching anything.
    FaultInjector::Plan plan;
    if (faultInjector.active()) {
        plan = faultInjector.plan(work.name, clusterTag(cluster),
                                  freq_mhz, attempt);
        if (plan.runFails) {
            throw RunError(
                plan.failureKind,
                detail::concatToString(
                    plan.failureKind, ": ", work.name, " on ",
                    clusterTag(cluster), " @ ", freq_mhz,
                    " MHz (attempt ", attempt, ")"));
        }
    }

    std::shared_ptr<BaseRunSlot> slot = baseRun(work, cluster);
    const uarch::RunResult &base = slot->run;
    uarch::RunResult run = uarch::retimeRun(base, freq_mhz / 1000.0);
    m.groundTruth = run.aggregate;

    // Deterministic per-measurement noise stream. Retry attempts mix
    // in the attempt tag (0 on the first attempt, so the clean
    // stream is unchanged) to observe fresh noise.
    Rng rng = masterRng.fork(
        hashString(work.name + clusterTag(cluster)) ^
        static_cast<std::uint64_t>(freq_mhz) ^
        (plan.noiseStreamTag * 0x9e3779b97f4a7c15ULL));

    // Thermal behaviour: power heats the die; at the top A15 OPP the
    // trip point is exceeded and the governor drops a step (this is
    // why the paper capped its experiments at 1.8 GHz).
    const GroundTruthPower &gtp = groundTruthPower(cluster);
    double temp = thermalModel.ambient();
    double power = 0.0;
    for (int iterate = 0; iterate < 4; ++iterate) {
        power = gtp.meanPower(run.aggregate, run.seconds, m.voltage,
                              run.frequencyGhz, temp);
        temp = thermalModel.steadyTemperature(power);
    }
    if (cluster == CpuCluster::BigA15 &&
        thermalModel.throttles(temp)) {
        m.throttled = true;
        // Re-time at the next OPP down.
        const auto &opps = oppTable(cluster);
        double fallback = opps.front().freqMhz;
        for (const OppPoint &opp : opps) {
            if (opp.freqMhz < freq_mhz)
                fallback = std::max(fallback, opp.freqMhz);
        }
        warn("thermal throttle at ", freq_mhz, " MHz; running at ",
             fallback, " MHz");
        run = uarch::retimeRun(base, fallback / 1000.0);
        m.groundTruth = run.aggregate;
        temp = thermalModel.tripPoint();
        power = gtp.meanPower(run.aggregate, run.seconds, m.voltage,
                              run.frequencyGhz, temp);
    }
    // Injected thermal episode: the governor bounces below the
    // requested OPP mid-run, inflating the wall time while the die
    // sits at the trip point. The event record is unchanged — the
    // work done is the same, it just takes longer.
    double fault_time_scale = 1.0;
    if (plan.thermalEpisode) {
        fault_time_scale =
            1.0 + faultInjector.config().thermalSlowdown;
        m.throttled = true;
        temp = std::max(temp, thermalModel.tripPoint());
        warnLimited("fault-thermal-episode", 3,
                    "injected thermal episode on ", work.name, " @ ",
                    freq_mhz, " MHz");
    }
    m.temperatureC = temp;

    // Timing repeats: the true time plus run-to-run jitter (OS noise,
    // DVFS transitions, cache warmth); the median is reported.
    for (unsigned r = 0; r < repeats; ++r) {
        double jitter = 1.0 + std::fabs(rng.gaussian(0.0, 0.006));
        m.repeatSeconds.push_back(run.seconds * fault_time_scale *
                                  jitter);
    }
    m.execSeconds = mlstat::median(m.repeatSeconds);

    // PMC capture across multiplexed instrumented runs (faults may
    // drop a multiplex group or wrap 32-bit counts).
    PmuSampler::CaptureFaults pmu_faults;
    pmu_faults.loseGroup = plan.pmcGroupLoss;
    pmu_faults.lostGroup = plan.lostGroup;
    pmu_faults.overflow = plan.pmcOverflow;
    m.pmc = pmuSampler.captureFaulty(event_ids, run.aggregate, rng,
                                     pmu_faults);
    if (plan.pmcGroupLoss)
        warnLimited("fault-pmc-loss", 3,
                    "lost a PMC multiplex group on ", work.name);

    // Power measurement: the workload is repeated so the cluster is
    // exercised for at least 30 s of sensor time. A stuck sensor
    // replays a stale idle-period sample; a dropout loses part of
    // the averaging window.
    double window = std::max(30.0, run.seconds);
    if (plan.sensorStuck) {
        m.powerWatts = powerSensor.stuckReading(
            power * plan.sensorStuckScale, rng);
        warnLimited("fault-sensor-stuck", 3,
                    "stuck power sensor on ", work.name);
    } else if (plan.sensorDropout) {
        m.powerWatts = powerSensor.measureDegraded(
            power, window, plan.sensorDropFraction, rng);
    } else {
        m.powerWatts = powerSensor.measure(power, window, rng);
    }

    return m;
}

} // namespace gemstone::hwsim
