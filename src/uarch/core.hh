/**
 * @file
 * Per-core timing model.
 *
 * A first-order structural timing model: instructions are executed
 * functionally by the shared ISA executor, and cycles are charged for
 * issue bandwidth, operation latency exposed through a one-deep
 * dependency check, front-end events (I-cache / ITLB, branch
 * mispredictions with wrong-path fetch side effects), data-side
 * events (DTLB / L1D / L2 / DRAM) and synchronisation costs.
 *
 * The same model class serves both platforms: the *reference* A7/A15
 * and the g5 `ex5_LITTLE`/`ex5_big` models are just different
 * CoreConfig instances. In-order vs out-of-order behaviour is
 * expressed with the overlap factors (an OoO core hides most operation
 * and miss latency; an in-order core exposes it).
 */

#ifndef GEMSTONE_UARCH_CORE_HH
#define GEMSTONE_UARCH_CORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "isa/executor.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/dram.hh"
#include "uarch/events.hh"
#include "uarch/tlb.hh"

namespace gemstone::isa {
class PredecodedProgram;
} // namespace gemstone::isa

namespace gemstone::uarch {

/** Which branch predictor a core uses. */
enum class BpKind { Tournament, Gshare };

/**
 * Which execution path drives a core's runQuantum().
 *
 * Fast is the predecoded basic-block engine; Reference steps the
 * original per-instruction interpreter (isa::step). The two are
 * bit-identical in every observable — cycles, EventCounts, PMC
 * readings, checkpoint bytes — which exec_fastpath_test enforces;
 * Reference is kept as the cross-validation oracle.
 */
enum class ExecEngine { Reference, Fast };

/**
 * Process-wide default engine: Fast, unless the programmatic override
 * is set (setExecEngineOverride) or the environment variable
 * GEMSTONE_REFERENCE_EXEC is set to anything but "0"/"" (the
 * cross-validation escape hatch for whole binaries). The override
 * wins over the environment.
 */
ExecEngine defaultExecEngine();

/**
 * Force the default engine for subsequently constructed cores
 * (thread-safe; used by cross-validation tests). Pass reset = true
 * to drop the override and fall back to the environment.
 */
void setExecEngineOverride(ExecEngine engine, bool reset = false);

/** Full configuration of one core's timing model. */
struct CoreConfig
{
    std::string name = "core";

    // Pipeline shape.
    double issueWidth = 2.0;       //!< sustained issue rate cap
    double frontendDepth = 8.0;    //!< mispredict penalty (cycles)

    /**
     * Fraction of exposed operation latency actually charged:
     * ~1.0 for an in-order core, small (e.g. 0.15) for an OoO core
     * that hides latency via scheduling.
     */
    double depStallFactor = 1.0;

    /**
     * Fraction of a memory-miss latency that stalls the core:
     * 1.0 in-order, lower for OoO (MLP + run-ahead).
     */
    double memStallFactor = 1.0;

    // Operation latencies (cycles, total; 1.0 = fully pipelined).
    double latIntAlu = 1.0;
    double latIntMul = 4.0;
    double latIntDiv = 12.0;
    double latFpAlu = 4.0;
    double latFpDiv = 18.0;
    double latSimd = 4.0;
    double latLoadToUse = 2.0;     //!< L1 hit load-to-use

    // Branch prediction.
    BpKind bpKind = BpKind::Tournament;
    TournamentBpConfig tournamentConfig;
    GshareBpConfig gshareConfig;

    /** Wrong-path fetch lines issued after a misprediction. */
    std::uint32_t wrongPathFetchLines = 2;
    /** Wrong-path data accesses issued after a misprediction. */
    std::uint32_t wrongPathLoads = 0;
    /**
     * Size of the code image (in 4 KiB pages) that wrong-path
     * fetches wander over. Stale BTB entries and garbage targets
     * send the front end anywhere in the text/library segment, which
     * is what puts pressure on the instruction TLB during mispredict
     * storms (Section IV-C's walker-cache correlation).
     */
    std::uint32_t wrongPathCodePages = 48;
    /**
     * Fraction of a wrong-path ITLB lookup's latency (L2 TLB access
     * or walk) that extends the misprediction penalty: the fetch
     * redirect cannot complete until the speculative translation is
     * resolved. This is the paper's "MPE could be exacerbated by
     * large L2 ITLB access penalties" interaction, and why fixing
     * the L1 ITLB size alone makes the error worse (Section IV-F).
     */
    double wrongPathTlbPenalty = 0.5;

    // Front end.
    CacheConfig l1i;
    /**
     * Instructions delivered per I-cache access. Hardware fetches a
     * group per cycle (4 on the A15); the g5 model looks the I-cache
     * up for every instruction (value 1) — one of the event
     * divergences in Fig. 6 (>2x L1I accesses).
     */
    std::uint32_t fetchGroupInsts = 4;

    // TLBs.
    TlbConfig itlb;
    TlbConfig dtlb;
    /** Shared unified L2 TLB (hardware shape) when true; otherwise
     *  split I/D L2 TLBs (g5 ex5 shape). */
    bool unifiedL2Tlb = true;
    TlbConfig l2TlbUnified;
    TlbConfig l2TlbInstr;
    TlbConfig l2TlbData;
    double pageWalkLatency = 30.0;

    // Data side.
    CacheConfig l1d;

    // Synchronisation costs (cycles).
    double barrierCost = 20.0;     //!< DMB drain
    double isbCost = 12.0;
    double exclusiveCost = 6.0;    //!< LDREX/STREX overhead
    double strexFailCost = 10.0;
    double snoopCost = 25.0;       //!< hit in a remote L1D

    /** Bytes per instruction in the fetch address space. */
    std::uint32_t instBytes = 4;

    /**
     * OS interference: on real hardware, timer ticks and context
     * switches trash the L1 ITLB every so often (the kernel and
     * interrupt handlers run from other pages). Functional simulators
     * do not model this, which is why the paper measured ~16x fewer
     * ITLB refills in gem5 than on silicon (Fig. 6, 0x02 = 0.06x).
     * Committed instructions between flushes; 0 disables.
     */
    std::uint64_t osItlbFlushPeriod = 0;
};

class ClusterModel;

/**
 * One core: architectural thread state + private micro-architecture.
 * Owned and driven by a ClusterModel.
 */
class CoreModel
{
  public:
    /**
     * @param config timing configuration
     * @param cluster owning cluster (shared L2, DRAM, monitor)
     * @param core_id index within the cluster
     * @param arena arena for all cache/TLB/predictor tables; nullptr
     *        means each component owns a private arena
     */
    CoreModel(const CoreConfig &config, ClusterModel &cluster,
              unsigned core_id, Arena *arena = nullptr);
    ~CoreModel();

    /** Prepare to run a program from its entry point. */
    void beginProgram(const isa::Program *program);

    /**
     * Restore freshly-constructed state in place — caches, TLBs,
     * predictor tables, cycle and event counters — without touching
     * the heap. A reset core produces bit-identical runs to a newly
     * constructed one. The engine selection survives (it is runtime
     * configuration, not run state).
     */
    void reset();

    /**
     * Execute up to @p max_insts instructions (a scheduling quantum).
     * @return number of instructions actually executed
     */
    std::uint64_t runQuantum(std::uint64_t max_insts);

    bool halted() const { return cpuState.halted; }

    /** Total cycles consumed by this core so far. */
    double cycles() const { return coreCycles; }

    /** Collect this core's event record (cycles filled in). */
    EventCounts collectEvents() const;

    /** Probe the private L1D for a line (snooping). */
    bool probeL1d(std::uint64_t addr) const { return l1d.probe(addr); }

    /** See Cache::everFilled() — lets snooping skip empty caches. */
    bool l1dEverFilled() const { return l1d.everFilled(); }

    /** Invalidate a line in the private L1D (snooping). */
    bool snoopInvalidate(std::uint64_t addr)
    {
        return l1d.invalidate(addr);
    }

    const CoreConfig &config() const { return coreConfig; }
    const BranchPredictor &branchPredictor() const { return *bp; }

    /**
     * Select the execution engine for subsequent runs. Takes effect
     * at the next beginProgram(); both engines produce bit-identical
     * results, so this only changes speed.
     */
    void setExecEngine(ExecEngine e) { engine = e; }
    ExecEngine execEngine() const { return engine; }

  private:
    void executeOne();
    /** Block-at-a-time quantum driver for ExecEngine::Fast. */
    std::uint64_t runQuantumFast(std::uint64_t max_insts);
    /** Commit-side branch handling shared by both engines. */
    void resolveBranch(std::uint32_t pc, const BranchInfo &binfo,
                       bool taken, std::uint32_t target,
                       const BranchPrediction &prediction);
    /**
     * The mispredict penalty and wrong-path side effects, split out
     * of resolveBranch so the (hot, small) correctly-predicted path
     * inlines into the execution loops while this cold path stays
     * out of line.
     */
    void mispredictPenalty(std::uint32_t pc,
                           const BranchPrediction &prediction);
    /**
     * Charge one fetch access.
     * @return for wrong-path fetches, the translation latency that
     *         extends the misprediction penalty; 0 otherwise
     */
    double chargeFetch(std::uint64_t fetch_addr, bool wrong_path);
    double dataAccess(std::uint64_t addr, bool write, bool unaligned);

    CoreConfig coreConfig;
    ClusterModel &cluster;
    unsigned coreId;

    const isa::Program *program = nullptr;
    isa::CpuState cpuState;
    ExecEngine engine = ExecEngine::Fast;
    /**
     * Flattened program for the fast engine, shared through the
     * content-addressed predecode cache (isa::predecodeCached):
     * repeated runs of the same workload reuse one flattening.
     */
    std::shared_ptr<const isa::PredecodedProgram> predecoded;

    // Per-config constants hoisted out of the per-instruction path.
    std::uint32_t fetchLineShift = 6;  //!< log2(l1i.lineBytes)
    std::uint32_t instsPerLine = 16;   //!< l1i line / instBytes
    std::uint32_t wrongPathInstsPerMiss = 4;
    double issueCost = 0.5;            //!< 1 / issueWidth
    /** Exposed latency beyond one issue slot, per op class. */
    double extraByClass[isa::numOpClasses] = {};
    /** extraByClass scaled by depStallFactor (the charged stall). */
    double stallByClass[isa::numOpClasses] = {};

    /**
     * In-place predictor storage (exactly one is engaged, per
     * bpKind) with an abstract view for stats consumers. The hot
     * paths call predict/update through the concrete-type views so
     * the compiler can devirtualise and inline (both classes are
     * final with inline hot methods); same objects, same results.
     */
    std::optional<TournamentBp> ownTournamentBp;
    std::optional<GshareBp> ownGshareBp;
    BranchPredictor *bp = nullptr;
    TournamentBp *tournamentBp = nullptr;
    GshareBp *gshareBp = nullptr;
    Cache l1i;
    Cache l1d;
    std::optional<Tlb> ownL2Tlb;       //!< unified (hardware shape)
    std::optional<Tlb> ownL2TlbInstr;  //!< split (g5 shape)
    std::optional<Tlb> ownL2TlbData;
    std::optional<TlbHierarchy> itlb;
    std::optional<TlbHierarchy> dtlb;

    double coreCycles = 0.0;
    std::uint64_t lastFetchLine = ~0ULL;
    std::uint64_t lastDataAddr = 0;
    std::uint32_t fetchSlotsLeft = 0;

    // Event counters not covered by sub-component stats.
    EventCounts ev;
};

} // namespace gemstone::uarch

#endif // GEMSTONE_UARCH_CORE_HH
