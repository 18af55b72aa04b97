/**
 * @file
 * Cluster-level model: cores + shared L2 + DRAM + coherence.
 *
 * Threads are interleaved round-robin with a fixed instruction
 * quantum. Because the quantum is in *instructions* (not cycles), the
 * functional interleaving — and therefore every architectural event
 * count — is identical between the reference platform and the g5
 * model, exactly as the committed instruction counts matched between
 * hardware and gem5 in the paper (Fig. 6, event 0x08). Only the
 * timing differs.
 */

#ifndef GEMSTONE_UARCH_SYSTEM_HH
#define GEMSTONE_UARCH_SYSTEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "isa/memory.hh"
#include "isa/program.hh"
#include "uarch/core.hh"
#include "uarch/dram.hh"

namespace gemstone::uarch {

/** Configuration of a CPU cluster. */
struct ClusterConfig
{
    std::string name = "cluster";
    unsigned numCores = 4;
    CoreConfig core;
    CacheConfig l2;
    DramConfig dram;
    /** Round-robin scheduling quantum in instructions. */
    std::uint64_t quantum = 128;
    /** Memory pool size for workloads (bytes). */
    std::uint64_t memBytes = 256 * 1024 * 1024;
};

/** Outcome of running one workload on a cluster. */
struct RunResult
{
    EventCounts aggregate;              //!< summed events, max cycles
    std::vector<EventCounts> perCore;
    double cycles = 0.0;                //!< max over active cores
    double seconds = 0.0;
    double frequencyGhz = 0.0;
    std::uint64_t instructions = 0;     //!< committed, all cores
};

/**
 * A CPU cluster (e.g. the Cortex-A15 quad) plus its memory system.
 * Construct one instance per run for fully cold state, or call
 * reset() to reuse.
 */
class ClusterModel
{
  public:
    /**
     * @param config cluster geometry
     * @param arena arena for every cache/TLB/predictor table of the
     *        whole cluster; nullptr means the model owns one. All
     *        hot tables are carved from it contiguously and rewound
     *        in place by reset(), so model reuse performs zero heap
     *        allocations.
     */
    explicit ClusterModel(const ClusterConfig &config,
                          Arena *arena = nullptr);
    ~ClusterModel();

    ClusterModel(const ClusterModel &) = delete;
    ClusterModel &operator=(const ClusterModel &) = delete;

    /**
     * Run a program on @p num_threads cores at @p freq_ghz.
     * The caller must have initialised memory() beforehand.
     */
    RunResult run(const isa::Program &program, unsigned num_threads,
                  double freq_ghz);

    /**
     * run() into a caller-owned result record: @p out is fully
     * overwritten (perCore is cleared, keeping its capacity), so a
     * warm caller that reuses one RunResult across runs keeps the
     * steady-state loop free of heap allocations. run() above is a
     * thin wrapper over this.
     */
    void runInto(const isa::Program &program, unsigned num_threads,
                 double freq_ghz, RunResult &out);

    /**
     * Restore freshly-constructed model state in place: every core
     * (caches, TLBs, predictor tables, counters), the shared L2,
     * DRAM, the coherence state and the exclusive monitor. Workload
     * memory is NOT cleared — initialise it per run, exactly as for
     * a newly constructed model. A reset model produces bit-identical
     * runs to a fresh one, without re-allocating anything.
     */
    void reset();

    /** Workload data memory (initialise before run()). */
    isa::Memory &memory() { return dataMemory; }

    /** Shared L2 cache. */
    Cache &l2() { return sharedL2; }
    const Cache &l2() const { return sharedL2; }

    /** Exclusive monitor shared by all cores. */
    isa::ExclusiveMonitor &monitor() { return exclusiveMonitor; }

    /** Cores (for tests and stats). */
    const std::vector<std::unique_ptr<CoreModel>> &cores() const
    {
        return coreModels;
    }

    /**
     * Select the execution engine for every core. Takes effect at the
     * next run(); results are bit-identical either way.
     */
    void setExecEngine(ExecEngine e)
    {
        for (auto &core : coreModels)
            core->setExecEngine(e);
    }

    const ClusterConfig &config() const { return clusterConfig; }

    /**
     * Coherence hook: called by a core on every store. Probes the
     * other cores' L1Ds; a hit is invalidated and counted as a snoop.
     * @return extra latency charged to the storing core
     */
    double storeSnoop(std::uint64_t addr, unsigned storing_core);

    /** Total bus (L2-side) accesses observed. */
    std::uint64_t busAccesses() const;

    /** Core frequency of the in-progress run (GHz). */
    double frequencyGhz() const { return currentFreqGhz; }

  private:
    ClusterConfig clusterConfig;
    isa::Memory dataMemory;
    isa::ExclusiveMonitor exclusiveMonitor;
    /**
     * Declared before the components so it is constructed first:
     * dramModel/sharedL2/the cores all carve their tables from it.
     */
    std::optional<Arena> ownArena;  //!< used when arena == nullptr
    Arena *modelArena;
    Dram dramModel;
    Cache sharedL2;
    std::vector<std::unique_ptr<CoreModel>> coreModels;
    std::uint64_t snoopCount = 0;
    double snoopCostCycles = 25.0;
    double currentFreqGhz = 1.0;
};

/**
 * Re-time one core's cycle count at a different core frequency.
 *
 * All cache/TLB/pipeline latencies are core-clocked (cycles), while
 * DRAM time is wall-clock (ns), so
 * cycles(f2) = cycles(f1) + dramStallNs * (f2 - f1).
 */
double retimeCycles(const EventCounts &events, double f1_ghz,
                    double f2_ghz);

/**
 * Re-time a whole run at a new frequency: per-core cycles are
 * recomputed and the critical path (max) re-derived. Event counts are
 * frequency-independent in this model, matching the near-identical
 * PMC counts across DVFS points on real hardware.
 */
RunResult retimeRun(const RunResult &run, double f2_ghz);

} // namespace gemstone::uarch

#endif // GEMSTONE_UARCH_SYSTEM_HH
