/**
 * @file
 * PMU event table and multiplexed sampler.
 */

#include "hwsim/pmu.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace gemstone::hwsim {

std::string
pmcIdString(int id)
{
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "0x%02X", id);
    return buffer;
}

namespace {

using uarch::EventCounts;

/** First entry of @p counts whose id is not below @p id. */
template <typename Counts>
auto
lowerBound(Counts &counts, int id)
{
    return std::lower_bound(
        counts.begin(), counts.end(), id,
        [](const std::pair<int, double> &entry, int key) {
            return entry.first < key;
        });
}

std::vector<PmcEvent>
buildTable()
{
    std::vector<PmcEvent> t;
    auto ev = [&t](int id, const char *name, const char *desc,
                   std::function<double(const EventCounts &)> fn) {
        t.push_back({id, name, desc, std::move(fn)});
    };

    // Architectural events (0x00 - 0x1D).
    ev(0x01, "L1I_CACHE_REFILL", "L1 instruction cache refill",
       [](const EventCounts &e) { return double(e.l1iMisses); });
    ev(0x02, "L1I_TLB_REFILL", "L1 instruction TLB refill",
       [](const EventCounts &e) { return double(e.itlbMisses); });
    ev(0x03, "L1D_CACHE_REFILL", "L1 data cache refill",
       [](const EventCounts &e) { return double(e.l1dMisses); });
    ev(0x04, "L1D_CACHE", "L1 data cache access",
       [](const EventCounts &e) { return double(e.l1dAccesses); });
    ev(0x05, "L1D_TLB_REFILL", "L1 data TLB refill",
       [](const EventCounts &e) { return double(e.dtlbMisses); });
    ev(0x06, "LD_RETIRED", "architecturally executed load",
       [](const EventCounts &e) { return double(e.loadOps); });
    ev(0x07, "ST_RETIRED", "architecturally executed store",
       [](const EventCounts &e) { return double(e.storeOps); });
    ev(0x08, "INST_RETIRED", "architecturally executed instruction",
       [](const EventCounts &e) { return double(e.instructions); });
    ev(0x0C, "PC_WRITE_RETIRED", "software change of the PC",
       [](const EventCounts &e) { return double(e.branches); });
    ev(0x0D, "BR_IMMED_RETIRED", "immediate branch",
       [](const EventCounts &e) {
           return double(e.immedBranches + e.condBranches +
                         e.callBranches);
       });
    ev(0x0E, "BR_RETURN_RETIRED", "procedure return",
       [](const EventCounts &e) { return double(e.returnBranches); });
    ev(0x0F, "UNALIGNED_LDST_RETIRED", "unaligned load or store",
       [](const EventCounts &e) {
           return double(e.unalignedAccesses);
       });
    ev(0x10, "BR_MIS_PRED", "mispredicted branch",
       [](const EventCounts &e) {
           return double(e.branchMispredicts);
       });
    ev(0x11, "CPU_CYCLES", "active CPU cycles",
       [](const EventCounts &e) { return e.cycles; });
    ev(0x12, "BR_PRED", "predictable branch",
       [](const EventCounts &e) { return double(e.branches); });
    ev(0x13, "MEM_ACCESS", "data memory access",
       [](const EventCounts &e) { return double(e.l1dAccesses); });
    ev(0x14, "L1I_CACHE", "L1 instruction cache access",
       [](const EventCounts &e) { return double(e.l1iAccesses); });
    ev(0x15, "L1D_CACHE_WB", "L1 data cache write-back",
       [](const EventCounts &e) { return double(e.l1dWritebacks); });
    ev(0x16, "L2D_CACHE", "L2 data cache access",
       [](const EventCounts &e) { return double(e.l2Accesses); });
    ev(0x17, "L2D_CACHE_REFILL", "L2 data cache refill",
       [](const EventCounts &e) { return double(e.l2Misses); });
    ev(0x18, "L2D_CACHE_WB", "L2 data cache write-back",
       [](const EventCounts &e) { return double(e.l2Writebacks); });
    ev(0x19, "BUS_ACCESS", "external bus access",
       [](const EventCounts &e) { return double(e.busAccesses); });
    ev(0x1B, "INST_SPEC", "speculatively executed instruction",
       [](const EventCounts &e) { return double(e.instSpec); });
    ev(0x1D, "BUS_CYCLES", "bus cycles",
       [](const EventCounts &e) { return e.cycles * 0.5; });

    // Implementation-defined events (0x40 - 0x7E).
    ev(0x40, "L1D_CACHE_LD", "L1D read access",
       [](const EventCounts &e) {
           return double(e.l1dReadAccesses);
       });
    ev(0x41, "L1D_CACHE_ST", "L1D write access",
       [](const EventCounts &e) {
           return double(e.l1dWriteAccesses);
       });
    ev(0x42, "L1D_CACHE_REFILL_LD", "L1D refill caused by a read",
       [](const EventCounts &e) { return double(e.l1dReadMisses); });
    ev(0x43, "L1D_CACHE_REFILL_WR", "L1D refill caused by a write",
       [](const EventCounts &e) { return double(e.l1dWriteMisses); });
    ev(0x46, "L1D_CACHE_WB_VICTIM", "L1D write-back victim",
       [](const EventCounts &e) { return double(e.l1dWritebacks); });
    ev(0x48, "L1D_CACHE_INVAL", "L1D invalidation (coherence)",
       [](const EventCounts &e) { return double(e.snoops); });
    ev(0x4C, "L1D_TLB_REFILL_LD", "L1 DTLB refill on a read",
       [](const EventCounts &e) {
           double total = double(e.loadOps + e.storeOps);
           double share = total > 0 ? e.loadOps / total : 0.5;
           return double(e.dtlbMisses) * share;
       });
    ev(0x4D, "L1D_TLB_REFILL_ST", "L1 DTLB refill on a write",
       [](const EventCounts &e) {
           double total = double(e.loadOps + e.storeOps);
           double share = total > 0 ? e.storeOps / total : 0.5;
           return double(e.dtlbMisses) * share;
       });
    ev(0x50, "L2D_CACHE_LD", "L2 read access",
       [](const EventCounts &e) {
           return double(e.l2Accesses > e.l2Writebacks
                             ? e.l2Accesses - e.l2Writebacks
                             : 0);
       });
    ev(0x51, "L2D_CACHE_ST", "L2 write access",
       [](const EventCounts &e) { return double(e.l2Writebacks); });
    ev(0x52, "L2D_CACHE_REFILL_LD", "L2 refill on a read",
       [](const EventCounts &e) { return double(e.l2Misses); });
    ev(0x56, "L2D_CACHE_WB_VICTIM", "L2 write-back victim",
       [](const EventCounts &e) { return double(e.l2Writebacks); });
    ev(0x60, "BUS_ACCESS_LD", "bus read access",
       [](const EventCounts &e) { return double(e.dramReads); });
    ev(0x61, "BUS_ACCESS_ST", "bus write access",
       [](const EventCounts &e) { return double(e.dramWrites); });
    ev(0x66, "MEM_ACCESS_LD", "issued data read",
       [](const EventCounts &e) { return double(e.loadOps); });
    ev(0x67, "MEM_ACCESS_ST", "issued data write",
       [](const EventCounts &e) { return double(e.storeOps); });
    ev(0x68, "UNALIGNED_LD_SPEC", "speculative unaligned read",
       [](const EventCounts &e) {
           return double(e.unalignedAccesses) * 0.5;
       });
    ev(0x69, "UNALIGNED_ST_SPEC", "speculative unaligned write",
       [](const EventCounts &e) {
           return double(e.unalignedAccesses) * 0.5;
       });
    ev(0x6A, "UNALIGNED_LDST_SPEC", "speculative unaligned access",
       [](const EventCounts &e) {
           return double(e.unalignedAccesses);
       });
    ev(0x6C, "LDREX_SPEC", "speculative LDREX",
       [](const EventCounts &e) { return double(e.ldrexOps); });
    ev(0x6D, "STREX_PASS_SPEC", "STREX that passed",
       [](const EventCounts &e) {
           return double(e.strexOps - e.strexFails);
       });
    ev(0x6E, "STREX_FAIL_SPEC", "STREX that failed",
       [](const EventCounts &e) { return double(e.strexFails); });
    ev(0x70, "LD_SPEC", "speculative load",
       [](const EventCounts &e) { return double(e.loadOps); });
    ev(0x71, "ST_SPEC", "speculative store",
       [](const EventCounts &e) { return double(e.storeOps); });
    ev(0x72, "LDST_SPEC", "speculative load or store",
       [](const EventCounts &e) {
           return double(e.loadOps + e.storeOps);
       });
    ev(0x73, "DP_SPEC", "speculative integer data processing",
       [](const EventCounts &e) {
           return double(e.intAluOps + e.intMulOps + e.intDivOps);
       });
    ev(0x74, "ASE_SPEC", "speculative advanced SIMD",
       [](const EventCounts &e) { return double(e.simdOps); });
    ev(0x75, "VFP_SPEC", "speculative scalar VFP",
       [](const EventCounts &e) { return double(e.fpOps); });
    ev(0x76, "PC_WRITE_SPEC", "speculative software PC change",
       [](const EventCounts &e) {
           return double(e.branches + e.branchMispredicts);
       });
    ev(0x78, "BR_IMMED_SPEC", "speculative immediate branch",
       [](const EventCounts &e) {
           return double(e.immedBranches + e.condBranches +
                         e.callBranches);
       });
    ev(0x79, "BR_RETURN_SPEC", "speculative procedure return",
       [](const EventCounts &e) { return double(e.returnBranches); });
    ev(0x7A, "BR_INDIRECT_SPEC", "speculative indirect branch",
       [](const EventCounts &e) {
           return double(e.indirectBranches + e.returnBranches);
       });
    ev(0x7C, "ISB_SPEC", "ISB barrier",
       [](const EventCounts &e) { return double(e.isbs); });
    ev(0x7D, "DSB_SPEC", "DSB barrier",
       [](const EventCounts &e) { return double(e.barriers); });
    ev(0x7E, "DMB_SPEC", "DMB barrier",
       [](const EventCounts &e) { return double(e.barriers); });

    // Chip-specific extras (0xC0+), as found on the Exynos PMU.
    ev(0xC0, "SNOOPS", "coherent snoop hits",
       [](const EventCounts &e) { return double(e.snoops); });
    ev(0xC1, "L2_PREFETCH", "L2 prefetch issued",
       [](const EventCounts &e) { return double(e.l2Prefetches); });
    ev(0xC2, "L2_PREFETCH_HIT", "demand hit on a prefetched line",
       [](const EventCounts &e) {
           return double(e.l2PrefetchHits);
       });
    ev(0xC3, "DTLB_WALK", "data-side page-table walk",
       [](const EventCounts &e) { return double(e.dtlbWalks); });
    ev(0xC4, "ITLB_WALK", "instruction-side page-table walk",
       [](const EventCounts &e) { return double(e.itlbWalks); });
    ev(0xC5, "L2_TLB_ACCESS", "unified L2 TLB access",
       [](const EventCounts &e) {
           return double(e.l2ItlbAccesses + e.l2DtlbAccesses);
       });
    ev(0xC6, "STALL_FRONTEND", "cycles stalled in the front end",
       [](const EventCounts &e) {
           return e.stallCyclesFrontend + e.stallCyclesBranch;
       });
    ev(0xC7, "STALL_BACKEND", "cycles stalled in the back end",
       [](const EventCounts &e) {
           return e.stallCyclesMem + e.stallCyclesExec;
       });
    ev(0xC8, "STALL_SYNC", "cycles stalled on synchronisation",
       [](const EventCounts &e) { return e.stallCyclesSync; });
    ev(0xC9, "INT_MUL_SPEC", "speculative integer multiply",
       [](const EventCounts &e) { return double(e.intMulOps); });
    ev(0xCA, "INT_DIV_SPEC", "speculative integer divide",
       [](const EventCounts &e) { return double(e.intDivOps); });
    ev(0xCB, "RAS_USED", "return-address stack predictions",
       [](const EventCounts &e) { return double(e.usedRas); });
    ev(0xCC, "RAS_INCORRECT", "incorrect RAS predictions",
       [](const EventCounts &e) { return double(e.rasIncorrect); });
    ev(0xCD, "IND_BR_MIS_PRED", "mispredicted indirect branch",
       [](const EventCounts &e) {
           return double(e.indirectMispredicts);
       });

    return t;
}

} // namespace

double
pmcCount(const PmcCounts &counts, int id)
{
    auto it = lowerBound(counts, id);
    return it != counts.end() && it->first == id ? it->second : 0.0;
}

void
setPmcCount(PmcCounts &counts, int id, double count)
{
    if (counts.empty() || counts.back().first < id) {
        counts.emplace_back(id, count);
        return;
    }
    auto it = lowerBound(counts, id);
    if (it->first == id)
        it->second = count;
    else
        counts.emplace(it, id, count);
}

bool
parsePmcId(std::string_view digits, int &id)
{
    const char *end = digits.data() + digits.size();
    auto [ptr, ec] = std::from_chars(digits.data(), end, id);
    return ec == std::errc() && ptr == end;
}

const std::vector<PmcEvent> &
PmuEventTable::events()
{
    static const std::vector<PmcEvent> table = buildTable();
    return table;
}

const PmcEvent *
PmuEventTable::find(int id)
{
    // buildTable() lists the events in strictly ascending id order.
    const std::vector<PmcEvent> &table = events();
    auto it = std::lower_bound(
        table.begin(), table.end(), id,
        [](const PmcEvent &event, int key) { return event.id < key; });
    return it != table.end() && it->id == id ? &*it : nullptr;
}

const PmcEvent *
PmuEventTable::findByName(const std::string &name)
{
    for (const PmcEvent &event : events()) {
        if (event.name == name)
            return &event;
    }
    return nullptr;
}

std::vector<int>
PmuEventTable::allIds()
{
    std::vector<int> ids;
    ids.reserve(events().size());
    for (const PmcEvent &event : events())
        ids.push_back(event.id);
    return ids;
}

PmuSampler::PmuSampler(unsigned counter_slots, double noise_sigma)
    : counterSlots(counter_slots), noiseSigma(noise_sigma)
{
    fatal_if(counter_slots == 0, "PMU needs at least one counter");
}

unsigned
PmuSampler::runsNeeded(std::size_t event_count) const
{
    return static_cast<unsigned>(
        (event_count + counterSlots - 1) / counterSlots);
}

PmcCounts
PmuSampler::capture(const std::vector<int> &event_ids,
                    const uarch::EventCounts &truth, Rng &rng) const
{
    PmcCounts out;
    out.reserve(event_ids.size());
    // Each group of counterSlots events shares one emulated run, and
    // therefore one run-to-run perturbation draw.
    double run_scale = 1.0;
    for (std::size_t i = 0; i < event_ids.size(); ++i) {
        if (i % counterSlots == 0)
            run_scale = 1.0 + rng.gaussian(0.0, noiseSigma);
        const PmcEvent *event = PmuEventTable::find(event_ids[i]);
        panic_if(!event, "unknown PMC event ", event_ids[i]);
        double true_count = event->extract(truth);
        double measured = true_count * run_scale;
        // Counts are integers on real hardware; keep sub-one values
        // exact so rates of rare events stay meaningful.
        setPmcCount(out, event_ids[i], measured < 0 ? 0.0 : measured);
    }
    return out;
}

PmcCounts
PmuSampler::captureFaulty(const std::vector<int> &event_ids,
                          const uarch::EventCounts &truth, Rng &rng,
                          const CaptureFaults &faults) const
{
    PmcCounts out = capture(event_ids, truth, rng);
    if (faults.loseGroup && !event_ids.empty()) {
        unsigned groups = runsNeeded(event_ids.size());
        unsigned lost = faults.lostGroup % groups;
        std::size_t first = std::size_t{lost} * counterSlots;
        std::size_t last = std::min(first + counterSlots,
                                    event_ids.size());
        for (std::size_t i = first; i < last; ++i) {
            auto it = lowerBound(out, event_ids[i]);
            if (it != out.end() && it->first == event_ids[i])
                out.erase(it);
        }
    }
    if (faults.overflow) {
        constexpr double kCounterWrap = 4294967296.0;  // 2^32
        for (auto &[id, count] : out) {
            if (count >= kCounterWrap)
                count = std::fmod(count, kCounterWrap);
        }
    }
    return out;
}

} // namespace gemstone::hwsim
