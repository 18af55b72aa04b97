/**
 * @file
 * Shared definitions of the GemStone end-to-end benchmark's
 * workloads (gsbench.cc drives them and prints the result).
 */

#ifndef GEMSTONE_PERFBENCH_BENCH_HH
#define GEMSTONE_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {

/** RunnerConfig's and CampaignSpec's master noise seed; outputs for
 *  this seed are checked against the digests recorded below. */
constexpr std::uint64_t kDefaultSeed = 0x0d401dULL;

/** Set-ups per run; set-up time is their median. */
constexpr int kSetupReps = 3;

/** One run's settings. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Campaign worker threads: min(nproc, 4). */
    unsigned jobs = 1;
    /** Scratch directory of this run (created and removed by it). */
    std::string workdir;
};

/** One measured operation. */
struct OpSample
{
    double wall = 0.0;  //!< seconds
    bool ok = false;
    bool traced = false;
    /** Root span of a traced op in the run's Tracer. */
    int root = -1;
    /** Per-op layer figures (traced ops). */
    std::map<std::string, double> layer;
};

/** Recorded outputs of kDefaultSeed (see reference.cc). */
struct Golden
{
    Digests digests;
    /** exact() of the dataset's execution-time MAPE in percent. */
    std::string mapePct;
};

/** What a workload run hands back for reporting. */
struct WorkloadResult
{
    /** Outputs every op was checked against. */
    Golden reference;
    std::vector<double> setupSeconds;
    /** Set-up reproduced the reference outputs. */
    bool setupOk = true;
    std::string setupError;
    std::vector<OpSample> ops;
    /** Traced runs only: ops of the other workloads' kinds, run
     *  outside the window, that measure the layers this workload's
     *  own ops never call. */
    std::vector<OpSample> probes;
    OpTally tally;
    /** First op start to last op end. */
    double windowSeconds = 0.0;
    /** CPU seconds the measured ops used: the op children's for the
     *  report workloads, this process's over the window for serve. */
    double cpuSeconds = 0.0;
    /** Peak RSS: the largest op child's, or this process's. */
    double peakRssMb = 0.0;
    double mapePct = 0.0;
    unsigned clients = 1;
    /** Run-level layer figures (counters over the whole window). */
    std::map<std::string, double> layer;
};

/** Report workloads: report_cold (warm == false), report_warm. */
WorkloadResult runReportWorkload(const RunConfig &config, bool warm,
                                 Tracer &tracer);

/** The serve_stream workload. */
WorkloadResult runServeWorkload(const RunConfig &config,
                                Tracer &tracer);

/** Probes for the report layers: a traced cold report op when
 *  @p with_cold, then a store fill and a traced warm report op. */
void runReportProbes(const RunConfig &config, bool with_cold,
                     Tracer &tracer, WorkloadResult &result);

/** Probes for the serve layer: a daemon with a filled store, two
 *  traced requests, then the durable and campaign probes. */
void runServeProbes(const RunConfig &config, Tracer &tracer,
                    WorkloadResult &result);

/** Recorded outputs of kDefaultSeed; empty when none are recorded. */
const Golden &goldenReport();
const Golden &goldenServe();

} // namespace perfbench

#endif // GEMSTONE_PERFBENCH_BENCH_HH
