/**
 * @file
 * Core timing model implementation.
 */

#include "uarch/core.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "isa/dispatch.hh"
#include "isa/predecode.hh"
#include "uarch/system.hh"
#include "util/logging.hh"

namespace gemstone::uarch {

namespace {

/** Instruction-side address space offset (keeps I and D apart). */
constexpr std::uint64_t codeBase = 1ULL << 30;

/** -1 = no override, otherwise an ExecEngine value. */
std::atomic<int> execEngineOverride{-1};

} // namespace

ExecEngine
defaultExecEngine()
{
    int forced = execEngineOverride.load(std::memory_order_relaxed);
    if (forced >= 0)
        return static_cast<ExecEngine>(forced);
    const char *env = std::getenv("GEMSTONE_REFERENCE_EXEC");
    if (env && env[0] != '\0' && std::strcmp(env, "0") != 0)
        return ExecEngine::Reference;
    return ExecEngine::Fast;
}

void
setExecEngineOverride(ExecEngine engine, bool reset)
{
    execEngineOverride.store(reset ? -1 : static_cast<int>(engine),
                             std::memory_order_relaxed);
}

CoreModel::CoreModel(const CoreConfig &config, ClusterModel &cluster,
                     unsigned core_id, Arena *arena)
    : coreConfig(config), cluster(cluster), coreId(core_id),
      engine(defaultExecEngine()),
      l1i(config.l1i, &cluster.l2(), arena),
      l1d(config.l1d, &cluster.l2(), arena)
{
    if (config.bpKind == BpKind::Tournament) {
        tournamentBp =
            &ownTournamentBp.emplace(config.tournamentConfig, arena);
        bp = tournamentBp;
    } else {
        gshareBp = &ownGshareBp.emplace(config.gshareConfig, arena);
        bp = gshareBp;
    }

    // Hoist the per-instruction constants the hot loops would
    // otherwise re-derive on every call (the old chargeFetch divided
    // by lineBytes and instBytes per fetch). Identical values, so the
    // charged cycles are bit-identical.
    fatal_if(config.instBytes == 0, "instBytes must be non-zero");
    fetchLineShift = static_cast<std::uint32_t>(
        std::countr_zero(config.l1i.lineBytes));
    instsPerLine = config.l1i.lineBytes / config.instBytes;
    wrongPathInstsPerMiss = std::max(1u, instsPerLine / 4);
    issueCost = 1.0 / config.issueWidth;

    auto extra = [this](isa::OpClass cls, double lat) {
        extraByClass[static_cast<unsigned>(cls)] = lat - 1.0;
        stallByClass[static_cast<unsigned>(cls)] =
            (lat - 1.0) * coreConfig.depStallFactor;
    };
    extra(isa::OpClass::IntAlu, config.latIntAlu);
    extra(isa::OpClass::IntMul, config.latIntMul);
    extra(isa::OpClass::IntDiv, config.latIntDiv);
    extra(isa::OpClass::FpAlu, config.latFpAlu);
    extra(isa::OpClass::FpDiv, config.latFpDiv);
    extra(isa::OpClass::SimdAlu, config.latSimd);
    extra(isa::OpClass::Load, config.latLoadToUse);

    if (config.unifiedL2Tlb) {
        ownL2Tlb.emplace(config.l2TlbUnified, arena);
        itlb.emplace(config.itlb, &*ownL2Tlb,
                     config.pageWalkLatency, arena);
        dtlb.emplace(config.dtlb, &*ownL2Tlb,
                     config.pageWalkLatency, arena);
    } else {
        ownL2TlbInstr.emplace(config.l2TlbInstr, arena);
        ownL2TlbData.emplace(config.l2TlbData, arena);
        itlb.emplace(config.itlb, &*ownL2TlbInstr,
                     config.pageWalkLatency, arena);
        dtlb.emplace(config.dtlb, &*ownL2TlbData,
                     config.pageWalkLatency, arena);
    }
}

CoreModel::~CoreModel() = default;

void
CoreModel::beginProgram(const isa::Program *prog)
{
    panic_if(!prog, "beginProgram with null program");
    program = prog;
    cpuState.reset(coreId);
    coreCycles = 0.0;
    lastFetchLine = ~0ULL;
    lastDataAddr = 0;
    fetchSlotsLeft = 0;
    ev = EventCounts();
    // The shared cache verifies content on every lookup, so a
    // different Program landing at a reused address can never serve
    // a stale flattening; a repeated workload costs a hash + compare
    // instead of a rebuild.
    if (engine == ExecEngine::Fast)
        predecoded = isa::predecodeCached(*prog);
    else
        predecoded.reset();
}

void
CoreModel::reset()
{
    program = nullptr;
    cpuState.reset(coreId);
    predecoded.reset();
    bp->reset();
    l1i.reset();
    l1d.reset();
    if (ownL2Tlb)
        ownL2Tlb->reset();
    if (ownL2TlbInstr)
        ownL2TlbInstr->reset();
    if (ownL2TlbData)
        ownL2TlbData->reset();
    itlb->reset();
    dtlb->reset();
    coreCycles = 0.0;
    lastFetchLine = ~0ULL;
    lastDataAddr = 0;
    fetchSlotsLeft = 0;
    ev = EventCounts();
}

double
CoreModel::chargeFetch(std::uint64_t fetch_addr, bool wrong_path)
{
    std::uint64_t line = fetch_addr >> fetchLineShift;

    // A new I-cache/ITLB access happens when the fetch group is
    // exhausted or the stream moves to a new line (including branch
    // redirects, which reset the group).
    bool new_line = line != lastFetchLine;
    bool access_icache =
        wrong_path || new_line || fetchSlotsLeft == 0;
    if (!wrong_path) {
        lastFetchLine = line;
        if (access_icache)
            fetchSlotsLeft = coreConfig.fetchGroupInsts;
        if (fetchSlotsLeft > 0)
            --fetchSlotsLeft;
    }
    if (!access_icache)
        return 0.0;

    double lat = 0.0;
    ++ev.itlbAccesses;
    // tryTranslate/translate and tryHit/access below are bit-identical
    // pairs: the inline try* methods handle only the hot hit case and
    // leave all state untouched when they decline.
    bool itlb_hit = itlb->tryTranslate(fetch_addr) ||
        itlb->translate(fetch_addr, lat);
    if (!itlb_hit) {
        ++ev.itlbMisses;
        ++ev.l2ItlbAccesses;
    }

    if (wrong_path) {
        // Wrong-path fetch pollutes the I-side structures; the fill
        // is issued like a prefetch (the demand counters of the
        // lower levels never see it because the redirect aborts it),
        // but an in-flight speculative translation delays the
        // redirect.
        l1i.access(fetch_addr, false, true);
        ev.wrongPathInsts += wrongPathInstsPerMiss;
        return lat * coreConfig.wrongPathTlbPenalty;
    }

    double dram_ns = 0.0;
    if (!l1i.tryHit(fetch_addr, false)) {
        CacheAccessResult icache = l1i.access(fetch_addr, false, false);
        if (!icache.hit) {
            lat += icache.latency;
            dram_ns = icache.dramNs;
        }
    }

    ev.dramStallNs += dram_ns;
    double dram_cycles = dram_ns * cluster.frequencyGhz();
    ev.stallCyclesFrontend += lat + dram_cycles;
    coreCycles += lat + dram_cycles;
    return 0.0;
}

double
CoreModel::dataAccess(std::uint64_t addr, bool write, bool unaligned)
{
    double lat = 0.0;
    ++ev.dtlbAccesses;
    bool dtlb_hit = dtlb->tryTranslate(addr) ||
        dtlb->translate(addr, lat);
    if (!dtlb_hit) {
        ++ev.dtlbMisses;
        ++ev.l2DtlbAccesses;
    }

    // A hit costs nothing beyond the pipelined L1D latency already
    // folded into latLoadToUse, so only the miss path charges.
    if (!l1d.tryHit(addr, write)) {
        CacheAccessResult result = l1d.access(addr, write, false);
        if (!result.hit) {
            lat += (result.latency - coreConfig.l1d.hitLatency) *
                coreConfig.memStallFactor;
            double charged_ns =
                result.dramNs * coreConfig.memStallFactor;
            ev.dramStallNs += charged_ns;
            lat += charged_ns * cluster.frequencyGhz();
        }
    }

    if (unaligned &&
        (addr % coreConfig.l1d.lineBytes) + 8 >
            coreConfig.l1d.lineBytes) {
        // The access straddles a line: a second beat is needed.
        CacheAccessResult cross = l1d.access(addr + 8, write, false);
        if (!cross.hit) {
            lat += (cross.latency - coreConfig.l1d.hitLatency) *
                coreConfig.memStallFactor;
            double charged_ns = cross.dramNs * coreConfig.memStallFactor;
            ev.dramStallNs += charged_ns;
            lat += charged_ns * cluster.frequencyGhz();
        }
    }

    if (write)
        lat += cluster.storeSnoop(addr, coreId);

    lastDataAddr = addr;
    return lat;
}

std::uint64_t
CoreModel::runQuantum(std::uint64_t max_insts)
{
    panic_if(!program, "runQuantum without a program");
    if (engine == ExecEngine::Fast) {
        if (!predecoded)
            predecoded = isa::predecodeCached(*program);
        return runQuantumFast(max_insts);
    }
    std::uint64_t executed = 0;
    while (executed < max_insts && !cpuState.halted) {
        executeOne();
        ++executed;
    }
    return executed;
}

std::uint64_t
CoreModel::runQuantumFast(std::uint64_t max_insts)
{
    // The fast engine: dispatch through the predecoded micro-ops one
    // straight-line stretch (basic block) at a time, batching the
    // per-class integer event counters and flushing them into ev once
    // per quantum. Everything whose *order* is observable — every
    // double accumulation into coreCycles and the stall counters,
    // every cache/TLB/predictor access — happens in exactly the
    // per-instruction order of the reference interpreter, which is
    // what makes the two engines bit-identical (IEEE addition is not
    // associative, LRU stamps are order-sensitive). Only associative
    // integer counts are batched.
    const isa::PredecodedProgram &pre = *predecoded;
    isa::ExecEnv env{&cluster.memory(), &cluster.monitor(),
                     program->size(), coreId};
    const std::uint64_t flush_period = coreConfig.osItlbFlushPeriod;
    const std::uint64_t inst_bytes = coreConfig.instBytes;

    // Register cache of the hot per-instruction state. The handler
    // call d.fn() writes cpuState (a member), so without this the
    // compiler must assume every CoreModel field is clobbered and
    // reload/rewrite them all on every instruction. Locals whose
    // address never escapes have no such aliasing problem. The
    // cached *running* values (cycles, the stall accumulators) see
    // exactly the same sequence of IEEE additions as the member
    // fields would, so the results are bit-identical; the members
    // are synced before and after any call that reads or writes
    // them (chargeFetch, resolveBranch — see sync_out/sync_in).
    const isa::DecodedOp *const uops = pre.uopData();
    const std::uint32_t *const stretch_ends = pre.blockEndData();
    const std::uint32_t pre_size = pre.size();
    const std::uint64_t code_base = codeBase;
    const std::uint32_t fetch_line_shift = fetchLineShift;
    const double issue_cost = issueCost;
    TournamentBp *const tbp = tournamentBp;
    GshareBp *const gbp = gshareBp;
    double extra_local[isa::numOpClasses];
    double stall_local[isa::numOpClasses];
    for (unsigned i = 0; i < isa::numOpClasses; ++i) {
        extra_local[i] = extraByClass[i];
        stall_local[i] = stallByClass[i];
    }

    double cycles = coreCycles;
    double stall_exec = ev.stallCyclesExec;
    double stall_mem = ev.stallCyclesMem;
    std::uint64_t last_line = lastFetchLine;
    std::uint32_t slots = fetchSlotsLeft;

    // chargeFetch reads and writes lastFetchLine/fetchSlotsLeft/
    // coreCycles; resolveBranch writes fetchSlotsLeft and (through
    // the mispredict penalty) coreCycles. dataAccess touches none of
    // the cached fields (its ev counters are not cached), so memory
    // operations need no sync.
    auto sync_out = [&] {
        coreCycles = cycles;
        lastFetchLine = last_line;
        fetchSlotsLeft = slots;
    };
    auto sync_in = [&] {
        cycles = coreCycles;
        last_line = lastFetchLine;
        slots = fetchSlotsLeft;
    };

    std::uint64_t class_counts[isa::numOpClasses] = {};
    std::uint64_t executed = 0;
    // The reference engine tests `instructions % flush_period == 0`
    // on every commit; a per-instruction 64-bit modulo is one of the
    // hottest scalar ops in the whole loop. Count down to the next
    // multiple instead — the flush lands on exactly the same commit
    // numbers. With the period disabled the counter starts high
    // enough that no quantum (capped far below 2^64) reaches it.
    std::uint64_t until_flush = flush_period > 0
        ? flush_period - ev.instructions % flush_period
        : ~0ULL;
    std::uint32_t pc = cpuState.pc;

    while (executed < max_insts && !cpuState.halted) {
        panic_if(pc >= pre_size, "pc ", pc, " out of range in ",
                 program->name);
        const std::uint32_t stretch_end = stretch_ends[pc];
        std::uint64_t budget = std::min<std::uint64_t>(
            stretch_end - pc, max_insts - executed);

        for (; budget > 0; --budget) {
            const isa::DecodedOp &d = uops[pc];

            // Fetch-line fast path: a sequential fetch within the
            // current line with group slots left charges nothing and
            // touches no I-side structure (same as the reference's
            // early-out inside chargeFetch, minus the call).
            std::uint64_t fetch_addr =
                code_base + std::uint64_t(pc) * inst_bytes;
            if ((fetch_addr >> fetch_line_shift) == last_line &&
                slots != 0) {
                --slots;
            } else if (itlb->peekTranslate(fetch_addr) &&
                       l1i.peekHit(fetch_addr)) {
                // Inline I-access hit path. The peeks are pure, so
                // committing to it performs exactly chargeFetch's
                // bookkeeping for an ITLB-hit + I-cache-hit access:
                // the same counters via the same tryTranslate/tryHit
                // calls (guaranteed to hit after the peeks), and the
                // lat == dram_ns == 0 additions it would make to
                // coreCycles and the frontend stall counter are
                // skipped — adding 0.0 to a non-negative accumulator
                // is a bit-exact no-op. Hot for every taken branch in
                // a resident loop: the redirect empties the fetch
                // group, so each iteration re-accesses the I-side.
                ++ev.itlbAccesses;
                (void)itlb->tryTranslate(fetch_addr);
                (void)l1i.tryHit(fetch_addr, false);
                last_line = fetch_addr >> fetch_line_shift;
                std::uint32_t group = coreConfig.fetchGroupInsts;
                slots = group > 0 ? group - 1 : 0;
            } else {
                sync_out();
                chargeFetch(fetch_addr, false);
                sync_in();
            }

            const std::uint16_t flags = d.flags;

            // Branch prediction happens at fetch.
            BranchInfo binfo;
            BranchPrediction prediction;
            if (flags & isa::UopBranch) {
                binfo.isCond = (flags & isa::UopCond) != 0;
                binfo.isCall = (flags & isa::UopCall) != 0;
                binfo.isReturn = (flags & isa::UopReturn) != 0;
                binfo.isIndirect = (flags & isa::UopIndirect) != 0;
                prediction = tbp ? tbp->predict(pc, binfo)
                                 : gbp->predict(pc, binfo);
            }

            // Functional execution through the dispatch switch
            // (isa/dispatch.hh).
            isa::OpOutcome out;
            out.nextPc = pc + 1;
            isa::dispatchUop(d, cpuState, env, out);

            ++executed;
            ++class_counts[static_cast<unsigned>(d.cls)];

            // OS interference: periodic timer ticks evict the ITLB.
            if (--until_flush == 0) {
                itlb->l1().flush();
                until_flush = flush_period;
            }

            // Issue slot + exposed operation latency.
            cycles += issue_cost;
            const unsigned ci = static_cast<unsigned>(d.cls);
            if (extra_local[ci] > 0.0) {
                double stall = stall_local[ci];
                cycles += stall;
                stall_exec += stall;
            }

            // Data side.
            if (flags & isa::UopMem) {
                if (out.unaligned)
                    ++ev.unalignedAccesses;
                bool is_store =
                    (flags & isa::UopStore) != 0 || out.storeOk;
                double mem_stall =
                    dataAccess(out.memAddr, is_store, out.unaligned);
                cycles += mem_stall;
                stall_mem += mem_stall;
            }

            // Synchronisation.
            if (flags & (isa::UopExclusive | isa::UopBarrier)) {
                double sync;
                if (flags & isa::UopExclusive) {
                    sync = coreConfig.exclusiveCost;
                    if (d.op == isa::Opcode::Ldrex) {
                        ++ev.ldrexOps;
                    } else {
                        ++ev.strexOps;
                        if (!out.storeOk) {
                            ++ev.strexFails;
                            sync += coreConfig.strexFailCost;
                        }
                    }
                } else {
                    sync = d.op == isa::Opcode::Dmb
                        ? coreConfig.barrierCost
                        : coreConfig.isbCost;
                    if (d.op == isa::Opcode::Dmb)
                        ++ev.barriers;
                    else
                        ++ev.isbs;
                }
                cycles += sync;
                ev.stallCyclesSync += sync;
            }

            // Control flow resolution.
            if (flags & isa::UopBranch) {
                sync_out();
                resolveBranch(pc, binfo, out.taken, out.nextPc,
                              prediction);
                sync_in();
            }

            if (cpuState.halted)
                break;  // pc stays at the Halt instruction
            pc = out.nextPc;
        }
    }

    cpuState.pc = pc;
    sync_out();
    ev.stallCyclesExec = stall_exec;
    ev.stallCyclesMem = stall_mem;

    // Flush the batched (associative, order-insensitive) counters.
    ev.instructions += executed;
    ev.instSpec += executed;
    ev.intAluOps +=
        class_counts[static_cast<unsigned>(isa::OpClass::IntAlu)];
    ev.intMulOps +=
        class_counts[static_cast<unsigned>(isa::OpClass::IntMul)];
    ev.intDivOps +=
        class_counts[static_cast<unsigned>(isa::OpClass::IntDiv)];
    ev.fpOps +=
        class_counts[static_cast<unsigned>(isa::OpClass::FpAlu)] +
        class_counts[static_cast<unsigned>(isa::OpClass::FpDiv)];
    ev.simdOps +=
        class_counts[static_cast<unsigned>(isa::OpClass::SimdAlu)];
    ev.loadOps +=
        class_counts[static_cast<unsigned>(isa::OpClass::Load)];
    ev.storeOps +=
        class_counts[static_cast<unsigned>(isa::OpClass::Store)];
    ev.nopOps +=
        class_counts[static_cast<unsigned>(isa::OpClass::Nop)];
    return executed;
}

void
CoreModel::executeOne()
{

    std::uint32_t pc = cpuState.pc;
    chargeFetch(codeBase +
                    static_cast<std::uint64_t>(pc) *
                        coreConfig.instBytes,
                false);

    const isa::Inst &inst = program->fetch(pc);
    isa::OpClass cls = isa::opClassOf(inst.op);

    // Branch prediction happens at fetch.
    BranchInfo binfo;
    BranchPrediction prediction;
    bool is_branch = isa::isBranchOp(inst.op);
    if (is_branch) {
        binfo.isCond = isa::isCondBranch(inst.op);
        binfo.isCall = inst.op == isa::Opcode::Bl;
        binfo.isReturn = inst.op == isa::Opcode::Ret;
        binfo.isIndirect = isa::isIndirectBranch(inst.op);
        prediction = bp->predict(pc, binfo);
    }

    // Functional execution.
    isa::ExecContext context{&cluster.memory(), &cluster.monitor(),
                             coreId};
    isa::StepResult sr = isa::step(cpuState, *program, context);

    // Commit accounting.
    ++ev.instructions;
    ++ev.instSpec;

    // OS interference: periodic timer ticks evict the ITLB contents
    // (kernel and interrupt-handler pages push user pages out).
    if (coreConfig.osItlbFlushPeriod > 0 &&
        ev.instructions % coreConfig.osItlbFlushPeriod == 0) {
        itlb->l1().flush();
    }

    double extra_latency = 0.0;  // beyond one issue slot
    bool reads_rn = false;
    bool reads_rm = false;

    switch (cls) {
      case isa::OpClass::IntAlu:
        ++ev.intAluOps;
        extra_latency = coreConfig.latIntAlu - 1.0;
        reads_rn = inst.op != isa::Opcode::Movi;
        reads_rm = true;
        break;
      case isa::OpClass::IntMul:
        ++ev.intMulOps;
        extra_latency = coreConfig.latIntMul - 1.0;
        reads_rn = reads_rm = true;
        break;
      case isa::OpClass::IntDiv:
        ++ev.intDivOps;
        extra_latency = coreConfig.latIntDiv - 1.0;
        reads_rn = reads_rm = true;
        break;
      case isa::OpClass::FpAlu:
        ++ev.fpOps;
        extra_latency = coreConfig.latFpAlu - 1.0;
        break;
      case isa::OpClass::FpDiv:
        ++ev.fpOps;
        extra_latency = coreConfig.latFpDiv - 1.0;
        break;
      case isa::OpClass::SimdAlu:
        ++ev.simdOps;
        extra_latency = coreConfig.latSimd - 1.0;
        break;
      case isa::OpClass::Load:
        ++ev.loadOps;
        extra_latency = coreConfig.latLoadToUse - 1.0;
        break;
      case isa::OpClass::Store:
        ++ev.storeOps;
        break;
      case isa::OpClass::Branch:
        break;
      case isa::OpClass::Sync:
        break;
      case isa::OpClass::Nop:
        ++ev.nopOps;
        break;
      case isa::OpClass::Halt:
        break;
    }
    (void)reads_rn;
    (void)reads_rm;

    // Issue slot.
    coreCycles += 1.0 / coreConfig.issueWidth;

    // Exposed operation latency via the dependency-stall factor.
    if (extra_latency > 0.0) {
        double stall = extra_latency * coreConfig.depStallFactor;
        coreCycles += stall;
        ev.stallCyclesExec += stall;
    }

    // Data side.
    if (sr.isMem) {
        if (sr.unaligned)
            ++ev.unalignedAccesses;
        double mem_stall =
            dataAccess(sr.memAddr, sr.isStore, sr.unaligned);
        coreCycles += mem_stall;
        ev.stallCyclesMem += mem_stall;
    }

    // Synchronisation.
    if (sr.isExclusive) {
        double sync = coreConfig.exclusiveCost;
        if (inst.op == isa::Opcode::Ldrex) {
            ++ev.ldrexOps;
        } else {
            ++ev.strexOps;
            if (sr.exclusiveFailed) {
                ++ev.strexFails;
                sync += coreConfig.strexFailCost;
            }
        }
        coreCycles += sync;
        ev.stallCyclesSync += sync;
    } else if (sr.isBarrier) {
        double sync = inst.op == isa::Opcode::Dmb
            ? coreConfig.barrierCost
            : coreConfig.isbCost;
        if (inst.op == isa::Opcode::Dmb)
            ++ev.barriers;
        else
            ++ev.isbs;
        coreCycles += sync;
        ev.stallCyclesSync += sync;
    }

    // Control flow resolution.
    if (is_branch)
        resolveBranch(pc, binfo, sr.taken, sr.branchTarget, prediction);
}

void
CoreModel::resolveBranch(std::uint32_t pc, const BranchInfo &binfo,
                         bool taken, std::uint32_t target,
                         const BranchPrediction &prediction)
{
    ++ev.branches;
    if (binfo.isCond)
        ++ev.condBranches;
    else if (binfo.isCall)
        ++ev.callBranches;
    else if (binfo.isReturn)
        ++ev.returnBranches;
    else if (binfo.isIndirect)
        ++ev.indirectBranches;
    else
        ++ev.immedBranches;

    // Devirtualised: both predictor classes are final with inline
    // update/recordOutcome, so these calls flatten into this frame.
    if (tournamentBp) {
        tournamentBp->update(pc, binfo, taken, target, prediction);
        tournamentBp->recordOutcome(binfo, taken, target, prediction);
    } else {
        gshareBp->update(pc, binfo, taken, target, prediction);
        gshareBp->recordOutcome(binfo, taken, target, prediction);
    }

    // A taken branch redirects fetch: the next instruction starts
    // a new fetch group.
    if (taken)
        fetchSlotsLeft = 0;

    bool direction_wrong = binfo.isCond && prediction.taken != taken;
    bool target_wrong = taken &&
        (!prediction.taken || prediction.target != target);
    if (direction_wrong || target_wrong)
        mispredictPenalty(pc, prediction);
}

void
CoreModel::mispredictPenalty(std::uint32_t pc,
                             const BranchPrediction &prediction)
{
    ++ev.branchMispredicts;
    coreCycles += coreConfig.frontendDepth;
    ev.stallCyclesBranch += coreConfig.frontendDepth;

    // Wrong-path side effects: the front end runs ahead on
    // the wrong path until the branch resolves, polluting the
    // I-side; an OoO core may also issue wrong-path loads.
    // Stale BTB entries point anywhere in the code image, so
    // the wrong-path stream starts at a pseudo-random page of
    // the text segment.
    std::uint64_t image_bytes =
        std::uint64_t(coreConfig.wrongPathCodePages) * 4096;
    std::uint64_t wrong_base = codeBase +
        ((std::uint64_t(pc) * 2654435761u +
          std::uint64_t(prediction.target) * 40503u +
          ev.branchMispredicts * 2246822519u) %
         image_bytes);
    double redirect_delay = 0.0;
    for (std::uint32_t i = 0;
         i < coreConfig.wrongPathFetchLines; ++i) {
        std::uint64_t wp = wrong_base +
            std::uint64_t(i) * coreConfig.l1i.lineBytes;
        redirect_delay += chargeFetch(wp, true);
    }
    coreCycles += redirect_delay;
    ev.stallCyclesBranch += redirect_delay;
    for (std::uint32_t i = 0; i < coreConfig.wrongPathLoads;
         ++i) {
        // Wrong-path loads walk ahead of the last data
        // access, translating through the DTLB (polluting it)
        // before probing the L1D.
        std::uint64_t wp_addr = lastDataAddr +
            (i + 1) * (4096 + coreConfig.l1d.lineBytes);
        double ignored = 0.0;
        ++ev.dtlbAccesses;
        if (!dtlb->translate(wp_addr, ignored)) {
            ++ev.dtlbMisses;
            ++ev.l2DtlbAccesses;
        }
        l1d.access(wp_addr, false, false);
        ++ev.wrongPathLoads;
    }
}

EventCounts
CoreModel::collectEvents() const
{
    EventCounts out = ev;
    out.cycles = coreCycles;

    // L1I.
    const CacheStats &icache = l1i.stats();
    out.l1iAccesses = icache.accesses;
    out.l1iMisses = icache.misses;

    // L1D.
    const CacheStats &dcache = l1d.stats();
    out.l1dAccesses = dcache.accesses;
    out.l1dReadAccesses = dcache.readAccesses;
    out.l1dWriteAccesses = dcache.writeAccesses;
    out.l1dMisses = dcache.misses;
    out.l1dReadMisses = dcache.readMisses;
    out.l1dWriteMisses = dcache.writeMisses;
    out.l1dWritebacks = dcache.writebacks;
    out.l1dStreamingStores = dcache.streamingStores;

    // TLB hierarchies. L1 accesses/misses were counted inline so that
    // wrong-path pollution is included (matching both real PMUs and
    // gem5). The L2 TLB component stats come from the shared objects.
    if (ownL2Tlb) {
        out.l2ItlbMisses = 0;  // unified: split not observable
        out.l2DtlbMisses = 0;
        out.itlbWalks = itlb->walks();
        out.dtlbWalks = dtlb->walks();
        // For the unified L2 TLB, misses are walks.
        out.l2ItlbMisses = itlb->walks();
        out.l2DtlbMisses = dtlb->walks();
    } else {
        out.l2ItlbMisses = ownL2TlbInstr->stats().misses;
        out.l2DtlbMisses = ownL2TlbData->stats().misses;
        out.itlbWalks = itlb->walks();
        out.dtlbWalks = dtlb->walks();
    }

    // Speculative instruction stream estimate.
    out.instSpec = out.instructions + out.wrongPathInsts;

    return out;
}

} // namespace gemstone::uarch
