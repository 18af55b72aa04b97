/**
 * @file
 * The GemStone experiment runner: automates Experiments 1-4 of
 * Fig. 1 (hardware characterisation, g5 simulation, power/PMC
 * collection and collation).
 */

#ifndef GEMSTONE_GEMSTONE_RUNNER_HH
#define GEMSTONE_GEMSTONE_RUNNER_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "exec/resultstore.hh"
#include "exec/taskgraph.hh"
#include "gemstone/dataset.hh"
#include "powmon/model.hh"
#include "util/cancellation.hh"

namespace gemstone::core {

/** The two simulators whose base runs every DVFS point re-times. */
enum class BaseEngine { Hw, G5 };

/** Runner configuration. */
struct RunnerConfig
{
    /** g5 simulator release under evaluation (1 = paper, 2 = fix). */
    int g5Version = 1;
    /** Timing repeats per hardware measurement. */
    unsigned repeats = 5;
    /** Master seed for all stochastic observation noise. */
    std::uint64_t seed = 0x0d401dULL;
    /**
     * Board-to-board spread of the hidden power coefficients; keep 0
     * for the reference board, non-zero to emulate another physical
     * unit (Section V's published-coefficient scenario).
     */
    double boardVariation = 0.0;
    /**
     * Worker threads for the experiment graphs. 1 runs the graph
     * inline (TaskGraph::runSerial); any value gives bit-identical
     * results, because points are gathered by index and every
     * measurement is a pure function of its identity, retry attempt
     * included.
     */
    unsigned jobs = 1;
    /**
     * Crash-isolated worker *processes* prewarming the result store
     * before the experiment loops run (0 or 1 disables). Requires an
     * attached store (one is attached automatically if absent);
     * results are byte-identical at any worker count because the
     * loops below replay from the warm store. See exec/procpool.hh.
     */
    unsigned workers = 0;
    /**
     * Cooperative cancellation. When the token is cancelled the
     * experiment loops stop at the next measurement boundary (or
     * mid-simulation, at the model's poll points) and unwind with
     * CancelledError; completed work is unaffected.
     */
    CancellationToken cancel;
    /**
     * Wall-clock budget for one experiment run (runValidation,
     * runPowerCharacterisation or runExperiments, which spends one
     * budget on both experiments); 0 means unlimited. Expiry unwinds
     * with DeadlineError.
     */
    double runDeadlineSeconds = 0.0;
};

/** What Experiments 1-4 return for one cluster. */
struct ExperimentResults
{
    ValidationDataset validation;
    std::vector<powmon::PowerObservation> power;
};

/**
 * Orchestrates the platform and the simulator, producing collated
 * datasets for the analyses. One instance caches its simulation runs,
 * so iterating analyses is cheap.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const RunnerConfig &config = {});

    /** The paper's DVFS points for a cluster. */
    static const std::vector<double> &frequenciesFor(
        hwsim::CpuCluster cluster);

    /** The g5 model corresponding to a hardware cluster. */
    static g5::G5Model modelFor(hwsim::CpuCluster cluster);

    /**
     * Experiments 1 + 2 + collation: run the 45-workload validation
     * set on the hardware platform and the g5 model across the
     * cluster's DVFS points.
     */
    ValidationDataset runValidation(hwsim::CpuCluster cluster);

    /** Validation limited to chosen frequencies (faster). */
    ValidationDataset runValidation(
        hwsim::CpuCluster cluster,
        const std::vector<double> &freqs_mhz);

    /**
     * Experiments 3 + 4: power characterisation of all 65 workloads
     * across every DVFS point of a cluster.
     */
    std::vector<powmon::PowerObservation> runPowerCharacterisation(
        hwsim::CpuCluster cluster);

    /**
     * Experiments 1-4 as one graph: the validation set at every DVFS
     * point of the cluster plus power characterisation of all 65
     * workloads. Returns exactly what runValidation(cluster) and
     * runPowerCharacterisation(cluster) return, with one prewarm and
     * one base run per (engine, workload) for both; the power-only
     * workloads' base runs are scheduled first, so they overlap with
     * the validation work instead of trailing it.
     */
    ExperimentResults runExperiments(hwsim::CpuCluster cluster);

    /**
     * Attach a memoisation store: hardware measurements and g5 runs
     * are looked up under a content address derived from (seed,
     * board variation, fault signature, repeats, workload, cluster,
     * frequency, attempt) before being executed, and inserted after.
     * Pass nullptr to detach. The store may be shared between
     * runners and is consulted from every worker thread.
     */
    void attachResultStore(std::shared_ptr<exec::ResultStore> store);

    const std::shared_ptr<exec::ResultStore> &resultStore() const
    {
        return store;
    }

    /**
     * One hardware measurement of a point, retry attempt made
     * explicit, memoised through the attached store (failures —
     * hwsim::RunError — are never cached and replay deterministically
     * on a warm store). Safe to call concurrently; a pure function
     * of (arguments, runner configuration).
     */
    hwsim::HwMeasurement measureHw(const workload::Workload &work,
                                   hwsim::CpuCluster cluster,
                                   double freq_mhz, unsigned attempt);

    /** One g5 simulation, memoised like measureHw(). */
    g5::G5Stats runG5(const workload::Workload &work,
                      hwsim::CpuCluster cluster, double freq_mhz);

    /**
     * Compute the 1.0 GHz base run that every DVFS point of
     * (workload, cluster) on @p engine is re-timed from; a no-op when
     * it is already cached. The body of the experiment graphs' base
     * nodes (see BaseRunNodes). Safe to call concurrently.
     */
    void warmBaseRun(BaseEngine engine, const workload::Workload &work,
                     hwsim::CpuCluster cluster);

    /**
     * True when the point's attempt-0 hardware measurement (Hw) or
     * its g5 run (G5) would simulate: no store is attached, or the
     * store lacks its key. Leaves the store's statistics untouched.
     */
    bool needsSimulation(BaseEngine engine,
                         const workload::Workload &work,
                         hwsim::CpuCluster cluster,
                         double freq_mhz) const;

    hwsim::OdroidXu3Platform &platform() { return *board; }
    g5::G5Simulation &simulator() { return *sim; }
    const RunnerConfig &config() const { return runnerConfig; }

  private:
    /** One (workload, frequency) unit of the prewarm phase. */
    struct PrewarmSpec
    {
        const workload::Workload *work = nullptr;
        double freq = 0.0;
        bool withG5 = false;  //!< also prewarm the g5 twin
    };

    /**
     * Shard attempt-0 measurements (and optionally g5 runs) across
     * RunnerConfig::workers forked processes, merging the computed
     * store entries back into the attached store. Purely an
     * accelerator: any spec the pool fails to finish is recomputed by
     * the experiment loops. Bounded by @p deadline — the run's
     * wall-clock budget applies to the prewarm too, and the
     * experiment loops raise the structured DeadlineError. Must be
     * called before any ThreadPool exists (fork safety).
     */
    void prewarmStore(hwsim::CpuCluster cluster,
                      const std::vector<PrewarmSpec> &specs,
                      const Deadline &deadline);

    /**
     * The one experiment graph behind the entry points: validation
     * points at @p validation_freqs (none when empty) and, with
     * @p with_power, the power points at every DVFS point, sharing
     * one prewarm and one BaseRunNodes. Results are gathered by
     * point index.
     */
    ExperimentResults runGraph(hwsim::CpuCluster cluster,
                               const std::vector<double> &validation_freqs,
                               bool with_power);

    /** Store key of one hardware measurement attempt. */
    std::string hwKey(const workload::Workload &work,
                      hwsim::CpuCluster cluster, double freq_mhz,
                      unsigned attempt) const;

    /** Store key of one g5 run. */
    std::string g5Key(const workload::Workload &work,
                      hwsim::CpuCluster cluster,
                      double freq_mhz) const;

    RunnerConfig runnerConfig;
    std::unique_ptr<hwsim::OdroidXu3Platform> board;
    std::unique_ptr<g5::G5Simulation> sim;
    std::shared_ptr<exec::ResultStore> store;
};

/**
 * The base-run nodes of one experiment graph. Every DVFS point of a
 * workload is re-timed from one 1.0 GHz base run per engine, so the
 * graph gets a base:hw:<workload> / base:g5:<workload> node that
 * computes it, and each point node that would simulate depends on
 * it: no pool thread ever parks on another point's once-flag. A
 * point whose result is already in the runner's store gets no
 * dependency, and a workload with no such point gets no node, so a
 * warm run simulates nothing.
 */
class BaseRunNodes
{
  public:
    /**
     * Node bodies run under CoopScope(@p cancel, @p deadline,
     * @p what): pass the token and run deadline of the point nodes
     * they feed, so a cancel or deadline unwinds a base node exactly
     * like a point node.
     */
    BaseRunNodes(ExperimentRunner &runner, exec::TaskGraph &graph,
                 hwsim::CpuCluster cluster, CancellationToken cancel,
                 Deadline deadline, const char *what);

    /**
     * Dependencies of the @p engine node of point (@p work,
     * @p freq_mhz): the workload's base node, added on first need,
     * or none when the point would not simulate.
     */
    std::vector<exec::TaskGraph::NodeId> depsFor(
        BaseEngine engine, const workload::Workload &work,
        double freq_mhz);

  private:
    ExperimentRunner &runner;
    exec::TaskGraph &graph;
    hwsim::CpuCluster cluster;
    CancellationToken cancel;
    Deadline deadline;
    const char *what;
    std::map<std::pair<BaseEngine, const workload::Workload *>,
             exec::TaskGraph::NodeId>
        nodes;
};

} // namespace gemstone::core

#endif // GEMSTONE_GEMSTONE_RUNNER_HH
