/**
 * @file
 * gem5-style statistic mapping.
 */

#include "g5/statmap.hh"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "util/logging.hh"

namespace gemstone::g5 {

namespace {

using uarch::EventCounts;

double
d(std::uint64_t v)
{
    return static_cast<double>(v);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** How one statistic derives from a run. */
using StatFormula = double (*)(const EventCounts &e, double seconds,
                               bool big);

/** One statistic: its gem5 name and its formula. */
struct StatDef
{
    std::string_view name;
    StatFormula formula;
};

/*
 * A formula sees the run's event record `e`, its simulated `seconds`
 * and whether the model is ex5_big (`big`).
 */
#define GS_STAT(name, ...)                                               \
    StatDef{name, [](const EventCounts &e, double seconds,               \
                     bool big) -> double {                               \
                (void)e, (void)seconds, (void)big;                       \
                return __VA_ARGS__;                                      \
            }}
#define GS_CPU "system.cpu."
#define GS_BP GS_CPU "branchPred."
#define GS_IC GS_CPU "icache."
#define GS_DC GS_CPU "dcache."
#define GS_ITB GS_CPU "itb."
#define GS_ITBWC GS_CPU "itb_walker_cache."
#define GS_DTB GS_CPU "dtb."
#define GS_DTBWC GS_CPU "dtb_walker_cache."
#define GS_L2 "system.l2."
#define GS_MEM "system.mem_ctrls."

/**
 * Every statistic of the dump, in source (subsystem) order: the one
 * list the schema is built from.
 */
constexpr StatDef kStatDefs[] = {
    // --- Top level ---
    GS_STAT("sim_seconds", seconds),
    GS_STAT("sim_ticks", seconds * 1e12),
    GS_STAT("sim_insts", d(e.instructions)),
    GS_STAT("sim_ops", d(e.instSpec)),
    GS_STAT("system.clk_domain.clock", 1.0),

    // --- CPU core ---
    GS_STAT(GS_CPU "numCycles", e.cycles),
    GS_STAT(GS_CPU "committedInsts", d(e.instructions)),
    GS_STAT(GS_CPU "committedOps", d(e.instructions)),
    GS_STAT(GS_CPU "ipc", e.ipc()),
    GS_STAT(GS_CPU "cpi", ratio(e.cycles, d(e.instructions))),
    GS_STAT(GS_CPU "idleCycles",
            e.stallCyclesMem + e.stallCyclesFrontend + e.stallCyclesSync),

    // --- Fetch ---
    GS_STAT(GS_CPU "fetch.Branches", d(e.branches)),
    GS_STAT(GS_CPU "fetch.predictedBranches", d(e.predictedTaken)),
    GS_STAT(GS_CPU "fetch.Cycles", e.cycles - e.stallCyclesFrontend),
    GS_STAT(GS_CPU "fetch.IcacheStallCycles", e.stallCyclesFrontend),
    GS_STAT(GS_CPU "fetch.TlbCycles",
            d(e.l2ItlbAccesses) * (big ? 4.0 : 2.0)),
    GS_STAT(GS_CPU "fetch.fetchedInsts",
            d(e.instructions + e.wrongPathInsts)),
    GS_STAT(GS_CPU "fetch.SquashCycles", d(e.branchMispredicts) * 2.0),
    GS_STAT(GS_CPU "fetch.PendingTrapStallCycles", d(e.itlbWalks) * 1.5),
    GS_STAT(GS_CPU "fetch.rateDist::mean",
            ratio(d(e.instructions + e.wrongPathInsts), e.cycles)),

    // --- Decode / rename (coarse) ---
    GS_STAT(GS_CPU "decode.DecodedInsts",
            d(e.instructions + e.wrongPathInsts)),
    GS_STAT(GS_CPU "rename.RenamedInsts",
            d(e.instructions + e.wrongPathInsts)),
    GS_STAT(GS_CPU "rename.squashedInsts", d(e.wrongPathInsts)),

    // --- IEW (issue/execute/writeback) ---
    GS_STAT(GS_CPU "iew.iewExecutedInsts", d(e.instSpec)),
    GS_STAT(GS_CPU "iew.exec_branches",
            d(e.branches + e.branchMispredicts)),
    GS_STAT(GS_CPU "iew.exec_nop", d(e.nopOps)),
    GS_STAT(GS_CPU "iew.exec_refs",
            d(e.loadOps + e.storeOps + e.wrongPathLoads)),
    GS_STAT(GS_CPU "iew.exec_loads", d(e.loadOps + e.wrongPathLoads)),
    GS_STAT(GS_CPU "iew.exec_stores", d(e.storeOps)),
    GS_STAT(GS_CPU "iew.branchMispredicts", d(e.branchMispredicts)),
    GS_STAT(GS_CPU "iew.predictedTakenIncorrect",
            d(e.predictedTakenIncorrect)),
    GS_STAT(GS_CPU "iew.predictedNotTakenIncorrect",
            d(e.condIncorrect > e.predictedTakenIncorrect
                  ? e.condIncorrect - e.predictedTakenIncorrect
                  : 0)),
    GS_STAT(GS_CPU "iew.memOrderViolationEvents", d(e.strexFails) * 0.5),
    GS_STAT(GS_CPU "iew.lsq.forwLoads", d(e.loadOps) * 0.08),

    // --- Commit ---
    GS_STAT(GS_CPU "commit.committedInsts", d(e.instructions)),
    GS_STAT(GS_CPU "commit.branchMispredicts", d(e.branchMispredicts)),
    GS_STAT(GS_CPU "commit.branches", d(e.branches)),
    GS_STAT(GS_CPU "commit.loads", d(e.loadOps)),
    GS_STAT(GS_CPU "commit.refs", d(e.loadOps + e.storeOps)),
    GS_STAT(GS_CPU "commit.membars", d(e.barriers + e.isbs)),
    GS_STAT(GS_CPU "commit.int_insts",
            d(e.intAluOps + e.intMulOps + e.intDivOps)),
    // Counting quirk: scalar VFP is misclassified as SIMD, so the FP
    // commit class is empty and SIMD carries both (Section V).
    GS_STAT(GS_CPU "commit.fp_insts", 0.0),
    GS_STAT(GS_CPU "commit.simd_insts", d(e.fpOps + e.simdOps)),
    GS_STAT(GS_CPU "commit.commitNonSpecStalls",
            d(e.ldrexOps + e.strexOps + e.barriers)),
    GS_STAT(GS_CPU "commit.commitSquashedInsts", d(e.wrongPathInsts)),

    // --- Functional units (same quirk) ---
    GS_STAT(GS_CPU "iq.FU_type_0::IntAlu", d(e.intAluOps)),
    GS_STAT(GS_CPU "iq.FU_type_0::IntMult", d(e.intMulOps)),
    GS_STAT(GS_CPU "iq.FU_type_0::IntDiv", d(e.intDivOps)),
    GS_STAT(GS_CPU "iq.FU_type_0::FloatAdd", 0.0),
    GS_STAT(GS_CPU "iq.FU_type_0::FloatDiv", 0.0),
    GS_STAT(GS_CPU "iq.FU_type_0::SimdFloatAdd", d(e.fpOps + e.simdOps)),
    GS_STAT(GS_CPU "iq.FU_type_0::MemRead",
            d(e.loadOps + e.wrongPathLoads)),
    GS_STAT(GS_CPU "iq.FU_type_0::MemWrite", d(e.storeOps)),
    GS_STAT(GS_CPU "iq.fullRegistersEvents", e.stallCyclesExec * 0.1),

    // --- Branch predictor ---
    GS_STAT(GS_BP "lookups", d(e.branches)),
    GS_STAT(GS_BP "condPredicted", d(e.condBranches)),
    GS_STAT(GS_BP "condIncorrect", d(e.condIncorrect)),
    GS_STAT(GS_BP "BTBLookups", d(e.branches)),
    GS_STAT(GS_BP "BTBHits", d(e.btbHits)),
    GS_STAT(GS_BP "BTBHitPct", ratio(d(e.btbHits), d(e.branches)) * 100.0),
    GS_STAT(GS_BP "usedRAS", d(e.usedRas)),
    GS_STAT(GS_BP "RASInCorrect", d(e.rasIncorrect)),
    GS_STAT(GS_BP "indirectLookups",
            d(e.indirectBranches + e.returnBranches)),
    GS_STAT(GS_BP "indirectMisses", d(e.indirectMispredicts)),
    GS_STAT(GS_BP "indirectHits",
            d(e.indirectBranches + e.returnBranches >=
                      e.indirectMispredicts
                  ? e.indirectBranches + e.returnBranches -
                      e.indirectMispredicts
                  : 0)),

    // --- L1 instruction cache ---
    GS_STAT(GS_IC "overall_accesses::total", d(e.l1iAccesses)),
    GS_STAT(GS_IC "overall_hits::total", d(e.l1iAccesses - e.l1iMisses)),
    GS_STAT(GS_IC "overall_misses::total", d(e.l1iMisses)),
    GS_STAT(GS_IC "overall_miss_rate::total",
            ratio(d(e.l1iMisses), d(e.l1iAccesses))),
    GS_STAT(GS_IC "ReadReq_accesses::total", d(e.l1iAccesses)),
    GS_STAT(GS_IC "ReadReq_misses::total", d(e.l1iMisses)),
    GS_STAT(GS_IC "demand_misses::total", d(e.l1iMisses)),
    GS_STAT(GS_IC "overall_mshr_misses::total", d(e.l1iMisses)),
    GS_STAT(GS_IC "replacements",
            d(e.l1iMisses > 512 ? e.l1iMisses - 512 : 0)),

    // --- L1 data cache ---
    GS_STAT(GS_DC "overall_accesses::total", d(e.l1dAccesses)),
    GS_STAT(GS_DC "overall_hits::total", d(e.l1dAccesses - e.l1dMisses)),
    GS_STAT(GS_DC "overall_misses::total", d(e.l1dMisses)),
    GS_STAT(GS_DC "overall_miss_rate::total",
            ratio(d(e.l1dMisses), d(e.l1dAccesses))),
    GS_STAT(GS_DC "ReadReq_accesses::total", d(e.l1dReadAccesses)),
    GS_STAT(GS_DC "ReadReq_misses::total", d(e.l1dReadMisses)),
    GS_STAT(GS_DC "WriteReq_accesses::total", d(e.l1dWriteAccesses)),
    GS_STAT(GS_DC "WriteReq_misses::total", d(e.l1dWriteMisses)),
    GS_STAT(GS_DC "writebacks::total", d(e.l1dWritebacks)),
    GS_STAT(GS_DC "overall_mshr_misses::total", d(e.l1dMisses)),
    GS_STAT(GS_DC "overall_mshr_uncacheable_latency::total",
            e.stallCyclesMem * 0.05),
    GS_STAT(GS_DC "demand_miss_latency::total", e.stallCyclesMem),
    GS_STAT(GS_DC "replacements",
            d(e.l1dMisses > 512 ? e.l1dMisses - 512 : 0)),

    // --- Instruction TLB + walker cache (the split L2 ITLB) ---
    GS_STAT(GS_ITB "accesses", d(e.itlbAccesses)),
    GS_STAT(GS_ITB "misses", d(e.itlbMisses)),
    GS_STAT(GS_ITB "hits", d(e.itlbAccesses - e.itlbMisses)),
    GS_STAT(GS_ITB "walks", d(e.itlbWalks)),
    GS_STAT(GS_ITBWC "overall_accesses::total", d(e.l2ItlbAccesses)),
    GS_STAT(GS_ITBWC "overall_hits::total",
            d(e.l2ItlbAccesses - e.l2ItlbMisses)),
    GS_STAT(GS_ITBWC "overall_misses::total", d(e.l2ItlbMisses)),
    GS_STAT(GS_ITBWC "overall_miss_rate::total",
            ratio(d(e.l2ItlbMisses), d(e.l2ItlbAccesses))),
    GS_STAT(GS_ITBWC "ReadReq_accesses::total", d(e.l2ItlbAccesses)),
    GS_STAT(GS_ITBWC "tags.data_accesses", d(e.l2ItlbAccesses) * 8.0),

    // --- Data TLB + walker cache ---
    GS_STAT(GS_DTB "accesses", d(e.dtlbAccesses)),
    GS_STAT(GS_DTB "misses", d(e.dtlbMisses)),
    GS_STAT(GS_DTB "hits", d(e.dtlbAccesses - e.dtlbMisses)),
    GS_STAT(GS_DTB "walks", d(e.dtlbWalks)),
    GS_STAT(GS_DTB "prefetch_faults", d(e.wrongPathLoads) * 0.12),
    GS_STAT(GS_DTBWC "overall_accesses::total", d(e.l2DtlbAccesses)),
    GS_STAT(GS_DTBWC "overall_hits::total",
            d(e.l2DtlbAccesses - e.l2DtlbMisses)),
    GS_STAT(GS_DTBWC "overall_misses::total", d(e.l2DtlbMisses)),
    GS_STAT(GS_DTBWC "ReadReq_accesses::total", d(e.l2DtlbAccesses)),

    // --- Shared L2 ---
    GS_STAT(GS_L2 "overall_accesses::total", d(e.l2Accesses)),
    GS_STAT(GS_L2 "overall_hits::total", d(e.l2Accesses - e.l2Misses)),
    GS_STAT(GS_L2 "overall_misses::total", d(e.l2Misses)),
    GS_STAT(GS_L2 "overall_miss_rate::total",
            ratio(d(e.l2Misses), d(e.l2Accesses))),
    GS_STAT(GS_L2 "writebacks::total", d(e.l2Writebacks)),
    GS_STAT(GS_L2 "prefetcher.num_hwpf_issued", d(e.l2Prefetches)),
    GS_STAT(GS_L2 "prefetcher.pfSpanPage", d(e.l2Prefetches) * 0.05),
    GS_STAT(GS_L2 "overall_prefetch_hits", d(e.l2PrefetchHits)),
    GS_STAT(GS_L2 "ReadExReq_accesses::total", d(e.l1dWriteMisses)),
    GS_STAT(GS_L2 "ReadExReq_hits::total", d(e.l1dWriteMisses) * 0.8),
    GS_STAT(GS_L2 "ReadExReq_misses::total", d(e.l1dWriteMisses) * 0.2),
    GS_STAT(GS_L2 "ReadReq_accesses::total",
            d(e.l2Accesses > e.l1dWriteMisses
                  ? e.l2Accesses - e.l1dWriteMisses
                  : 0)),
    GS_STAT(GS_L2 "demand_miss_latency::total", e.dramStallNs * 1e3),
    GS_STAT(GS_L2 "snoops", d(e.snoops)),

    // --- Memory controller ---
    GS_STAT(GS_MEM "num_reads::total", d(e.dramReads)),
    GS_STAT(GS_MEM "num_writes::total", d(e.dramWrites)),
    GS_STAT(GS_MEM "bytes_read::total", d(e.dramReads) * 64.0),
    GS_STAT(GS_MEM "bytes_written::total", d(e.dramWrites) * 64.0),
    GS_STAT(GS_MEM "bw_total::total",
            ratio(d(e.dramReads + e.dramWrites) * 64.0, seconds)),
    GS_STAT(GS_MEM "avgRdQLen", ratio(d(e.dramReads), e.cycles) * 40.0),

    // --- Misc op classes (spec-executed) ---
    GS_STAT(GS_CPU "op_class_0::IntAlu", d(e.intAluOps)),
    GS_STAT(GS_CPU "op_class_0::IntMult", d(e.intMulOps)),
    GS_STAT(GS_CPU "op_class_0::IntDiv", d(e.intDivOps)),
    GS_STAT(GS_CPU "op_class_0::SimdFloatArith", d(e.fpOps + e.simdOps)),
    GS_STAT(GS_CPU "op_class_0::MemRead", d(e.loadOps)),
    GS_STAT(GS_CPU "op_class_0::MemWrite", d(e.storeOps)),
    GS_STAT(GS_CPU "num_mem_refs", d(e.loadOps + e.storeOps)),
    GS_STAT(GS_CPU "num_load_insts", d(e.loadOps)),
    GS_STAT(GS_CPU "num_store_insts", d(e.storeOps)),
    GS_STAT(GS_CPU "num_ldrex", d(e.ldrexOps)),
    GS_STAT(GS_CPU "num_strex", d(e.strexOps)),
    GS_STAT(GS_CPU "num_strex_fail", d(e.strexFails)),
    GS_STAT(GS_CPU "num_membar", d(e.barriers)),
    GS_STAT(GS_CPU "num_isb", d(e.isbs)),
    GS_STAT(GS_CPU "num_unaligned", d(e.unalignedAccesses)),
};

#undef GS_STAT
#undef GS_CPU
#undef GS_BP
#undef GS_IC
#undef GS_DC
#undef GS_ITB
#undef GS_ITBWC
#undef GS_DTB
#undef GS_DTBWC
#undef GS_L2
#undef GS_MEM

/** kStatDefs sorted by name: the schema and its formulas. */
struct Schema
{
    std::vector<std::string_view> names;
    std::vector<StatFormula> formulas;
};

const Schema &
schema()
{
    // Built on first use, which may be on any pool thread; the static
    // initialisation is thread-safe and the table immutable after.
    static const Schema table = [] {
        std::vector<StatDef> defs(std::begin(kStatDefs),
                                  std::end(kStatDefs));
        std::sort(defs.begin(), defs.end(),
                  [](const StatDef &a, const StatDef &b) {
                      return a.name < b.name;
                  });
        Schema sorted;
        for (const StatDef &def : defs) {
            panic_if(!sorted.names.empty() &&
                         sorted.names.back() == def.name,
                     "duplicate g5 statistic ", def.name);
            sorted.names.push_back(def.name);
            sorted.formulas.push_back(def.formula);
        }
        return sorted;
    }();
    return table;
}

} // namespace

std::span<const std::string_view>
StatDump::names()
{
    return schema().names;
}

std::size_t
StatDump::indexOf(std::string_view name)
{
    const std::vector<std::string_view> &sorted = schema().names;
    auto it = std::lower_bound(sorted.begin(), sorted.end(), name);
    if (it == sorted.end() || *it != name)
        return npos;
    return static_cast<std::size_t>(it - sorted.begin());
}

double
StatDump::value(std::string_view name) const
{
    if (empty())
        return 0.0;
    const std::size_t index = indexOf(name);
    return index == npos ? 0.0 : values[index];
}

void
StatDump::setAt(std::size_t index, double value)
{
    if (empty())
        values.assign(names().size(), 0.0);
    values[index] = value;
}

StatDump
buildStatDump(const EventCounts &e, double seconds, G5Model model)
{
    const bool big = model == G5Model::Ex5Big;
    const std::vector<StatFormula> &formulas = schema().formulas;
    StatDump dump;
    dump.values.reserve(formulas.size());
    for (StatFormula formula : formulas)
        dump.values.push_back(formula(e, seconds, big));
    return dump;
}

std::string
renderStatsText(const StatDump &stats)
{
    std::ostringstream os;
    os << "---------- Begin Simulation Statistics ----------\n";
    for (const auto &[name, value] : stats) {
        os << std::left << std::setw(52) << name << " "
           << std::setprecision(12) << value << "\n";
    }
    os << "---------- End Simulation Statistics   ----------\n";
    return os.str();
}

} // namespace gemstone::g5
