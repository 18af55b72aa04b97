/**
 * @file
 * The reference hardware platform: an ODROID-XU3-class big.LITTLE
 * board model.
 *
 * This is the "HW" side of the paper's methodology. It executes
 * workloads on micro-architecture models configured with the *true*
 * Cortex-A7 / Cortex-A15 parameters, exposes a multiplexed ARMv7 PMU,
 * per-cluster power sensors with realistic noise, DVFS operating
 * points with a voltage table, run-to-run timing variation (the paper
 * takes the median of five runs), and thermal throttling at the top
 * A15 frequency.
 *
 * Workloads execute on the predecoded fast engine (DESIGN.md §12).
 * Every observable measured here — execution times, PMU readings
 * through the multiplex schedule, ground-truth event records — is
 * bit-identical to the reference interpreter (run with
 * GEMSTONE_REFERENCE_EXEC=1 to cross-check a whole campaign), which
 * tests/exec_fastpath_test.cc enforces kernel by kernel.
 */

#ifndef GEMSTONE_HWSIM_PLATFORM_HH
#define GEMSTONE_HWSIM_PLATFORM_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hwsim/faults.hh"
#include "hwsim/pmu.hh"
#include "hwsim/power.hh"
#include "uarch/system.hh"
#include "workload/workload.hh"

namespace gemstone::hwsim {

/** Which CPU cluster of the big.LITTLE SoC. */
enum class CpuCluster { LittleA7, BigA15 };

/** Short tag ("a7" / "a15"). */
std::string clusterTag(CpuCluster cluster);

/** One DVFS operating point. */
struct OppPoint
{
    double freqMhz;
    double voltage;
};

/** The true micro-architecture of the Cortex-A15 cluster. */
uarch::ClusterConfig trueBigConfig();

/** The true micro-architecture of the Cortex-A7 cluster. */
uarch::ClusterConfig trueLittleConfig();

/** One measured observation of a workload on the platform. */
struct HwMeasurement
{
    std::string workload;
    CpuCluster cluster = CpuCluster::BigA15;
    double freqMhz = 0.0;
    double voltage = 0.0;

    /** Median execution time of the repeats (seconds). */
    double execSeconds = 0.0;
    /** The individual timing observations. */
    std::vector<double> repeatSeconds;
    /** PMC counts captured across multiplexed runs, sorted by id. */
    PmcCounts pmc;
    /** Measured (noisy) mean power in watts. */
    double powerWatts = 0.0;
    /** Die temperature during the run (C). */
    double temperatureC = 0.0;
    /** True if the thermal limit forced a lower frequency. */
    bool throttled = false;

    /**
     * Ground-truth event record — available because the platform is
     * simulated; used only by tests, never by the GemStone analyses.
     */
    uarch::EventCounts groundTruth;

    /** PMC count by id; 0 when not captured. */
    double pmcValue(int id) const;

    /** PMC rate per second. */
    double pmcRate(int id) const;
};

/**
 * The board. One instance owns a deterministic noise stream and a
 * run cache (runs are frequency-retimed rather than re-simulated, as
 * all architectural event counts are DVFS-invariant).
 *
 * Thread safety: measureAttempt() is safe to call concurrently from
 * any number of threads on one platform, and its result depends only
 * on its arguments and the construction seed — never on call order
 * or thread interleaving. The run cache is populated under a
 * once-flag per (workload, cluster) so concurrent first measurements
 * simulate exactly once; the noise stream is forked per point (the
 * master Rng is never advanced after construction); the fault
 * injector and PMU/power/thermal models are const during
 * measurement. measure()/measureEvents() additionally bump a shared
 * per-point attempt counter and are therefore serial-only, as are
 * the mutators (injectFaults, resetFaultAttempts, clearCache).
 */
class OdroidXu3Platform
{
  public:
    /**
     * @param seed master seed for every stochastic observation
     * @param board_variation relative board-to-board spread of the
     *        hidden power coefficients (silicon, sensors, regulators
     *        and ambient conditions differ between physical boards —
     *        the reason the paper saw 5.6% with published
     *        coefficients but 2.8% after re-tuning). 0 = the
     *        reference board.
     */
    explicit OdroidXu3Platform(std::uint64_t seed = 0x0d401dULL,
                               double board_variation = 0.0);

    /** Operating points of a cluster (the paper's tested set). */
    static const std::vector<OppPoint> &oppTable(CpuCluster cluster);

    /** Voltage for a frequency; fatal() for an unknown OPP. */
    static double voltageFor(CpuCluster cluster, double freq_mhz);

    /**
     * Run a workload and measure it: @p repeats timing observations
     * (median reported), all PMU events via multiplexed capture, and
     * a power-sensor reading over an >= 30 s effective window.
     */
    HwMeasurement measure(const workload::Workload &work,
                          CpuCluster cluster, double freq_mhz,
                          unsigned repeats = 5);

    /**
     * Measure only the events requested (fewer instrumented runs).
     */
    HwMeasurement measureEvents(const workload::Workload &work,
                                CpuCluster cluster, double freq_mhz,
                                const std::vector<int> &event_ids,
                                unsigned repeats = 5);

    /**
     * measure() with the retry attempt made explicit instead of
     * drawn from the platform's shared per-point counter. Attempt 0
     * of a point is bit-identical to a first measure() of it. This
     * is the entry point for concurrent campaigns: a pure function
     * of (arguments, construction seed), safe from any thread.
     */
    HwMeasurement measureAttempt(const workload::Workload &work,
                                 CpuCluster cluster, double freq_mhz,
                                 unsigned attempt,
                                 unsigned repeats = 5);

    /** The sensor and thermal models (exposed for tests). */
    const PowerSensor &sensor() const { return powerSensor; }
    const ThermalModel &thermal() const { return thermalModel; }

    /**
     * Arm fault injection. Disabled by default; with an inactive
     * config every measurement stays bit-identical to a platform
     * that never heard of faults. Repeated measure() calls on the
     * same (workload, cluster, freq) point count as successive
     * attempts, and attempt n of a point sees the same faults no
     * matter when in the campaign it happens — the property that
     * makes checkpoint/resume replayable.
     */
    void injectFaults(const FaultConfig &config);

    /** The armed injector (inactive by default). */
    const FaultInjector &faults() const { return faultInjector; }

    /** Forget per-point attempt history (fresh campaign). */
    void resetFaultAttempts();

    /** Ground-truth power function (tests only). */
    const GroundTruthPower &groundTruthPower(CpuCluster cluster) const;

    /** Clear the run cache (frees workload memory). */
    void clearCache();

    /**
     * Compute the cached 1.0 GHz base run of (workload, cluster) that
     * every measurement of it is re-timed from; a no-op when already
     * cached. Experiment graphs call it from a dedicated node, so no
     * measurement ever waits on another's once-flag.
     */
    void warmBaseRun(const workload::Workload &work,
                     CpuCluster cluster)
    {
        baseRun(work, cluster);
    }

  private:
    /**
     * One run-cache slot: the once-flag guarantees a single
     * simulation per (workload, cluster) under concurrent first
     * measurements, and the shared_ptr keeps the result alive for
     * readers even across clearCache().
     */
    struct BaseRunSlot
    {
        std::once_flag once;
        uarch::RunResult run;
    };

    /** Cached base-frequency run for (workload, cluster). */
    std::shared_ptr<BaseRunSlot> baseRun(
        const workload::Workload &work, CpuCluster cluster);

    /** The measurement core; @p attempt selects the fault plan. */
    HwMeasurement measureImpl(const workload::Workload &work,
                              CpuCluster cluster, double freq_mhz,
                              const std::vector<int> &event_ids,
                              unsigned repeats, unsigned attempt);

    Rng masterRng;
    PmuSampler pmuSampler;
    PowerSensor powerSensor;
    ThermalModel thermalModel;
    GroundTruthPower bigPower;
    GroundTruthPower littlePower;
    std::mutex cacheMutex;   //!< guards runCache (not the slots)
    std::map<std::string, std::shared_ptr<BaseRunSlot>> runCache;
    FaultInjector faultInjector;
    std::mutex attemptMutex; //!< guards faultAttempts
    /** Attempts made per (workload, cluster, freq) point. */
    std::map<std::string, unsigned> faultAttempts;
};

} // namespace gemstone::hwsim

#endif // GEMSTONE_HWSIM_PLATFORM_HH
