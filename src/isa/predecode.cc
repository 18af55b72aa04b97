/**
 * @file
 * Opcode handlers, the dispatch table and the predecode pass.
 *
 * Handler semantics are the single source of truth for the ISA: the
 * reference interpreter and the fast block engine both dispatch
 * through this table. Every handler mirrors the behaviour the old
 * `switch (inst.op)` interpreter had, bit for bit — including the
 * defined-wrap integer arithmetic, the divide-by-zero and FP edge
 * rules, and the indirect-branch target wrap.
 *
 * The register-only and plain memory handlers live in isa/handlers.hh
 * (inline) so the fast engine can expand them inside its loop; the
 * table below takes their addresses, so both dispatch mechanisms share
 * one definition. Only the exclusive and halt handlers are defined
 * here.
 */

#include "isa/predecode.hh"

#include "isa/handlers.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "isa/program.hh"
#include "util/logging.hh"

namespace gemstone::isa {

using namespace handlers;

namespace {

// ---------------------------------------------------------------------
// Synchronisation.
// ---------------------------------------------------------------------

void
execLdrex(const DecodedOp &d, CpuState &s, const ExecEnv &env,
          OpOutcome &out)
{
    std::uint64_t addr =
        env.mem->mask(static_cast<std::uint64_t>(s.intRegs[d.rn]));
    s.intRegs[d.rd] = static_cast<std::int64_t>(env.mem->read(addr, 8));
    env.monitor->setReservation(env.threadId, addr);
    out.memAddr = addr;
}

void
execStrex(const DecodedOp &d, CpuState &s, const ExecEnv &env,
          OpOutcome &out)
{
    std::uint64_t addr =
        env.mem->mask(static_cast<std::uint64_t>(s.intRegs[d.rn]));
    bool ok = env.monitor->tryStore(env.threadId, addr);
    if (ok)
        env.mem->write(addr,
                       static_cast<std::uint64_t>(s.intRegs[d.rm]), 8);
    s.intRegs[d.rd] = ok ? 0 : 1;
    out.memAddr = addr;
    out.storeOk = ok;
}

void
execHalt(const DecodedOp &, CpuState &s, const ExecEnv &, OpOutcome &out)
{
    s.halted = true;
    out.halted = true;
}

// ---------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------

constexpr std::uint16_t branchFlags = UopBranch | UopEndsBlock;

/**
 * The dispatch table plus which opcodes set() filled. Presence is
 * recorded as a bool rather than tested as fn != nullptr, because a
 * handler address is not a constant expression in every build (GCC
 * sanitizer builds reject the comparison).
 */
struct OpInfoTableBuild
{
    OpInfoTable table{};
    std::array<bool, numOpcodes> present{};
};

constexpr OpInfoTableBuild kOpInfoBuild = [] {
    OpInfoTableBuild b;
    auto set = [&b](Opcode op, ExecHandler fn, OpClass cls,
                    std::uint16_t flags, std::uint8_t mem_size) {
        b.table[static_cast<unsigned>(op)] =
            OpInfo{fn, cls, flags, mem_size};
        b.present[static_cast<unsigned>(op)] = true;
    };

    set(Opcode::Add, execAdd, OpClass::IntAlu, 0, 0);
    set(Opcode::Sub, execSub, OpClass::IntAlu, 0, 0);
    set(Opcode::And, execAnd, OpClass::IntAlu, 0, 0);
    set(Opcode::Orr, execOrr, OpClass::IntAlu, 0, 0);
    set(Opcode::Eor, execEor, OpClass::IntAlu, 0, 0);
    set(Opcode::Lsl, execLsl, OpClass::IntAlu, 0, 0);
    set(Opcode::Lsr, execLsr, OpClass::IntAlu, 0, 0);
    set(Opcode::Asr, execAsr, OpClass::IntAlu, 0, 0);
    set(Opcode::Mov, execMov, OpClass::IntAlu, 0, 0);
    set(Opcode::Movi, execMovi, OpClass::IntAlu, 0, 0);
    set(Opcode::Addi, execAddi, OpClass::IntAlu, 0, 0);
    set(Opcode::Subi, execSubi, OpClass::IntAlu, 0, 0);
    set(Opcode::Cmplt, execCmplt, OpClass::IntAlu, 0, 0);
    set(Opcode::Cmpeq, execCmpeq, OpClass::IntAlu, 0, 0);

    set(Opcode::Mul, execMul, OpClass::IntMul, 0, 0);
    set(Opcode::Div, execDiv, OpClass::IntDiv, 0, 0);

    set(Opcode::Fadd, execFadd, OpClass::FpAlu, 0, 0);
    set(Opcode::Fsub, execFsub, OpClass::FpAlu, 0, 0);
    set(Opcode::Fmul, execFmul, OpClass::FpAlu, 0, 0);
    set(Opcode::Fdiv, execFdiv, OpClass::FpDiv, 0, 0);
    set(Opcode::Fsqrt, execFsqrt, OpClass::FpDiv, 0, 0);
    set(Opcode::Fmov, execFmov, OpClass::FpAlu, 0, 0);
    set(Opcode::Fmovi, execFmovi, OpClass::FpAlu, 0, 0);
    set(Opcode::Fcvt, execFcvt, OpClass::FpAlu, 0, 0);
    set(Opcode::Ficvt, execFicvt, OpClass::FpAlu, 0, 0);

    set(Opcode::Vadd, execVadd, OpClass::SimdAlu, 0, 0);
    set(Opcode::Vmul, execVmul, OpClass::SimdAlu, 0, 0);

    set(Opcode::Ldr, execLdr, OpClass::Load, UopMem, 8);
    set(Opcode::Str, execStr, OpClass::Store, UopMem | UopStore, 8);
    set(Opcode::Ldrb, execLdrb, OpClass::Load, UopMem, 1);
    set(Opcode::Strb, execStrb, OpClass::Store, UopMem | UopStore, 1);
    set(Opcode::Fldr, execFldr, OpClass::Load, UopMem, 8);
    set(Opcode::Fstr, execFstr, OpClass::Store, UopMem | UopStore, 8);

    set(Opcode::B, execB, OpClass::Branch, branchFlags, 0);
    set(Opcode::Beq, execBeq, OpClass::Branch, branchFlags | UopCond, 0);
    set(Opcode::Bne, execBne, OpClass::Branch, branchFlags | UopCond, 0);
    set(Opcode::Blt, execBlt, OpClass::Branch, branchFlags | UopCond, 0);
    set(Opcode::Bge, execBge, OpClass::Branch, branchFlags | UopCond, 0);
    set(Opcode::Bl, execBl, OpClass::Branch, branchFlags | UopCall, 0);
    set(Opcode::Ret, execRetBidx, OpClass::Branch,
        branchFlags | UopReturn | UopIndirect, 0);
    set(Opcode::Bidx, execRetBidx, OpClass::Branch,
        branchFlags | UopIndirect, 0);

    set(Opcode::Ldrex, execLdrex, OpClass::Sync,
        UopMem | UopExclusive, 8);
    set(Opcode::Strex, execStrex, OpClass::Sync,
        UopMem | UopExclusive, 8);
    set(Opcode::Dmb, execNothing, OpClass::Sync, UopBarrier, 0);
    set(Opcode::Isb, execNothing, OpClass::Sync, UopBarrier, 0);

    set(Opcode::Nop, execNothing, OpClass::Nop, 0, 0);
    set(Opcode::Halt, execHalt, OpClass::Halt, UopEndsBlock, 0);
    return b;
}();

static_assert(std::ranges::all_of(kOpInfoBuild.present, std::identity{}),
              "every opcode needs a dispatch-table entry");

} // namespace

const OpInfoTable &
opInfoTable()
{
    return kOpInfoBuild.table;
}

PredecodedProgram::PredecodedProgram(const Program &program)
{
    const std::uint32_t n =
        static_cast<std::uint32_t>(program.code.size());
    uops.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        uops.push_back(decodeInst(program.code[i]));

    // Straight-line stretch ends: the nearest block terminator at or
    // after each pc (one past it). Computed backwards in O(n) so the
    // engine's lookup is a single load for any entry pc, including
    // mid-block indirect-branch landings.
    stretchEnd.assign(n, n);
    for (std::uint32_t i = n; i-- > 0;) {
        if (uops[i].flags & UopEndsBlock)
            stretchEnd[i] = i + 1;
        else if (i + 1 < n)
            stretchEnd[i] = stretchEnd[i + 1];
    }

    // Classic basic blocks for reporting: leaders are the entry point,
    // direct branch targets and terminator fall-throughs.
    std::vector<bool> leader(n, false);
    if (n > 0)
        leader[0] = true;
    for (std::uint32_t i = 0; i < n; ++i) {
        const DecodedOp &d = uops[i];
        if (!(d.flags & UopEndsBlock))
            continue;
        if (i + 1 < n)
            leader[i + 1] = true;
        if ((d.flags & UopBranch) && !(d.flags & UopIndirect) &&
            d.target < n) {
            leader[d.target] = true;
        }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!leader[i])
            continue;
        std::uint32_t end = i + 1;
        while (end < n && !leader[end] &&
               !(uops[end - 1].flags & UopEndsBlock)) {
            ++end;
        }
        blockList.push_back({i, end - i});
    }
}

namespace {

/**
 * FNV-1a over the semantic fields of every instruction. Hashing the
 * fields (not the struct bytes) keeps padding out of the key.
 */
std::uint64_t
hashProgramCode(const Program &program)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(program.code.size());
    for (const Inst &inst : program.code) {
        mix(static_cast<std::uint64_t>(inst.op));
        mix(inst.rd);
        mix(inst.rn);
        mix(inst.rm);
        mix(static_cast<std::uint64_t>(inst.imm));
        mix(inst.target);
    }
    return h;
}

/**
 * Exact verification that @p pre is the predecode of @p program:
 * every cached micro-op must equal a fresh decode of the matching
 * instruction. DecodedOp preserves the full Inst content plus
 * opcode-table constants, so field equality here implies the block
 * structure (derived purely from the uops) matches too.
 */
bool
matchesProgram(const PredecodedProgram &pre, const Program &program)
{
    if (pre.size() != program.code.size())
        return false;
    const DecodedOp *cached = pre.uopData();
    for (std::uint32_t i = 0; i < pre.size(); ++i) {
        DecodedOp d = decodeInst(program.code[i]);
        const DecodedOp &c = cached[i];
        if (d.fn != c.fn || d.imm != c.imm || d.target != c.target ||
            d.flags != c.flags || d.op != c.op || d.cls != c.cls ||
            d.rd != c.rd || d.rn != c.rn || d.rm != c.rm ||
            d.memSize != c.memSize) {
            return false;
        }
    }
    return true;
}

struct PredecodeCache
{
    std::mutex mutex;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const PredecodedProgram>>
        byHash;
    std::deque<std::uint64_t> insertionOrder;  //!< for eviction
};

/**
 * Leaked singleton: serving daemons predecode from many threads up
 * to process exit, so the cache must outlive every static-destructor
 * ordering.
 */
PredecodeCache &
predecodeCache()
{
    static PredecodeCache *cache = new PredecodeCache();
    return *cache;
}

/** Distinct workloads alive per process stay far below this. */
constexpr std::size_t predecodeCacheCap = 256;

/** Monotonic lifetime counters; relaxed — they are observability,
 *  never synchronisation. */
std::atomic<std::uint64_t> statHits{0};
std::atomic<std::uint64_t> statMisses{0};
std::atomic<std::uint64_t> statInserts{0};

} // namespace

std::shared_ptr<const PredecodedProgram>
predecodeCached(const Program &program)
{
    std::uint64_t key = hashProgramCode(program);
    PredecodeCache &cache = predecodeCache();

    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        auto it = cache.byHash.find(key);
        if (it != cache.byHash.end() &&
            matchesProgram(*it->second, program)) {
            statHits.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    statMisses.fetch_add(1, std::memory_order_relaxed);

    // Build outside the lock: predecode is linear but not free, and
    // concurrent misses on *different* programs shouldn't serialise.
    auto built =
        std::make_shared<const PredecodedProgram>(program);

    std::lock_guard<std::mutex> lock(cache.mutex);
    auto [it, inserted] = cache.byHash.try_emplace(key, built);
    if (!inserted) {
        // Either a concurrent build won the race (same content —
        // either copy is fine) or the rare hash collision: replace,
        // so the latest program wins and verification stays correct.
        if (matchesProgram(*it->second, program))
            return it->second;
        it->second = built;
        statInserts.fetch_add(1, std::memory_order_relaxed);
        return built;
    }
    statInserts.fetch_add(1, std::memory_order_relaxed);
    cache.insertionOrder.push_back(key);
    if (cache.insertionOrder.size() > predecodeCacheCap) {
        cache.byHash.erase(cache.insertionOrder.front());
        cache.insertionOrder.pop_front();
    }
    return built;
}

PredecodeCacheStats
predecodeCacheStats()
{
    PredecodeCacheStats out;
    out.hits = statHits.load(std::memory_order_relaxed);
    out.misses = statMisses.load(std::memory_order_relaxed);
    out.inserts = statInserts.load(std::memory_order_relaxed);
    return out;
}

} // namespace gemstone::isa
