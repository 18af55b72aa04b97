/**
 * @file
 * EventCounts implementation.
 */

#include "uarch/events.hh"

#include <algorithm>
#include <type_traits>
#include <vector>

namespace gemstone::uarch {

void
EventCounts::merge(const EventCounts &other)
{
    cycles = std::max(cycles, other.cycles);
    seconds = std::max(seconds, other.seconds);

    instructions += other.instructions;
    instSpec += other.instSpec;
    intAluOps += other.intAluOps;
    intMulOps += other.intMulOps;
    intDivOps += other.intDivOps;
    fpOps += other.fpOps;
    simdOps += other.simdOps;
    loadOps += other.loadOps;
    storeOps += other.storeOps;
    nopOps += other.nopOps;
    unalignedAccesses += other.unalignedAccesses;

    branches += other.branches;
    condBranches += other.condBranches;
    immedBranches += other.immedBranches;
    returnBranches += other.returnBranches;
    indirectBranches += other.indirectBranches;
    callBranches += other.callBranches;
    branchMispredicts += other.branchMispredicts;
    condIncorrect += other.condIncorrect;
    predictedTaken += other.predictedTaken;
    predictedTakenIncorrect += other.predictedTakenIncorrect;
    btbHits += other.btbHits;
    usedRas += other.usedRas;
    rasIncorrect += other.rasIncorrect;
    indirectMispredicts += other.indirectMispredicts;
    wrongPathInsts += other.wrongPathInsts;
    wrongPathLoads += other.wrongPathLoads;

    ldrexOps += other.ldrexOps;
    strexOps += other.strexOps;
    strexFails += other.strexFails;
    barriers += other.barriers;
    isbs += other.isbs;

    l1iAccesses += other.l1iAccesses;
    l1iMisses += other.l1iMisses;
    itlbAccesses += other.itlbAccesses;
    itlbMisses += other.itlbMisses;
    l2ItlbAccesses += other.l2ItlbAccesses;
    l2ItlbMisses += other.l2ItlbMisses;
    itlbWalks += other.itlbWalks;

    l1dAccesses += other.l1dAccesses;
    l1dReadAccesses += other.l1dReadAccesses;
    l1dWriteAccesses += other.l1dWriteAccesses;
    l1dMisses += other.l1dMisses;
    l1dReadMisses += other.l1dReadMisses;
    l1dWriteMisses += other.l1dWriteMisses;
    l1dWritebacks += other.l1dWritebacks;
    l1dStreamingStores += other.l1dStreamingStores;
    dtlbAccesses += other.dtlbAccesses;
    dtlbMisses += other.dtlbMisses;
    l2DtlbAccesses += other.l2DtlbAccesses;
    l2DtlbMisses += other.l2DtlbMisses;
    dtlbWalks += other.dtlbWalks;

    l2Accesses += other.l2Accesses;
    l2Misses += other.l2Misses;
    l2Writebacks += other.l2Writebacks;
    l2Prefetches += other.l2Prefetches;
    l2PrefetchHits += other.l2PrefetchHits;

    busAccesses += other.busAccesses;
    dramReads += other.dramReads;
    dramWrites += other.dramWrites;
    snoops += other.snoops;

    dramStallNs += other.dramStallNs;
    stallCyclesFrontend += other.stallCyclesFrontend;
    stallCyclesBranch += other.stallCyclesBranch;
    stallCyclesMem += other.stallCyclesMem;
    stallCyclesSync += other.stallCyclesSync;
    stallCyclesExec += other.stallCyclesExec;
}

/**
 * Every scalar field of EventCounts, in the canonical (toMap) order.
 * toMap() and setField() are generated from this single list so the
 * two can never drift apart.
 */
#define GS_EVENT_COUNT_FIELDS(X) \
    X(cycles) \
    X(seconds) \
    X(instructions) \
    X(instSpec) \
    X(intAluOps) \
    X(intMulOps) \
    X(intDivOps) \
    X(fpOps) \
    X(simdOps) \
    X(loadOps) \
    X(storeOps) \
    X(nopOps) \
    X(unalignedAccesses) \
    X(branches) \
    X(condBranches) \
    X(immedBranches) \
    X(returnBranches) \
    X(indirectBranches) \
    X(callBranches) \
    X(branchMispredicts) \
    X(condIncorrect) \
    X(predictedTaken) \
    X(predictedTakenIncorrect) \
    X(btbHits) \
    X(usedRas) \
    X(rasIncorrect) \
    X(indirectMispredicts) \
    X(wrongPathInsts) \
    X(wrongPathLoads) \
    X(ldrexOps) \
    X(strexOps) \
    X(strexFails) \
    X(barriers) \
    X(isbs) \
    X(l1iAccesses) \
    X(l1iMisses) \
    X(itlbAccesses) \
    X(itlbMisses) \
    X(l2ItlbAccesses) \
    X(l2ItlbMisses) \
    X(itlbWalks) \
    X(l1dAccesses) \
    X(l1dReadAccesses) \
    X(l1dWriteAccesses) \
    X(l1dMisses) \
    X(l1dReadMisses) \
    X(l1dWriteMisses) \
    X(l1dWritebacks) \
    X(l1dStreamingStores) \
    X(dtlbAccesses) \
    X(dtlbMisses) \
    X(l2DtlbAccesses) \
    X(l2DtlbMisses) \
    X(dtlbWalks) \
    X(l2Accesses) \
    X(l2Misses) \
    X(l2Writebacks) \
    X(l2Prefetches) \
    X(l2PrefetchHits) \
    X(busAccesses) \
    X(dramReads) \
    X(dramWrites) \
    X(snoops) \
    X(dramStallNs) \
    X(stallCyclesFrontend) \
    X(stallCyclesBranch) \
    X(stallCyclesMem) \
    X(stallCyclesSync) \
    X(stallCyclesExec)

std::map<std::string, double>
EventCounts::toMap() const
{
    std::map<std::string, double> m;
#define X(field) m[#field] = static_cast<double>(field);
    GS_EVENT_COUNT_FIELDS(X)
#undef X
    return m;
}

namespace {

/** Assign @p value to @p field unless the field's type cannot hold it
 *  (casting a negative or too-large double to a count is undefined). */
template <typename T>
bool
assignField(T &field, double value)
{
    if constexpr (std::is_integral_v<T>) {
        static_assert(std::is_same_v<T, std::uint64_t>);
        if (!(value >= 0.0 && value < 18446744073709551616.0))  // 2^64
            return false;
    }
    field = static_cast<T>(value);
    return true;
}

/** Assigns one EventCounts field from its toMap() double. */
using FieldSetter = bool (*)(EventCounts &, double);

/** Every field's name and setter, sorted by name. */
struct FieldTable
{
    std::vector<std::string_view> names;
    std::vector<FieldSetter> setters;
};

const FieldTable &
fieldTable()
{
    static const FieldTable table = [] {
        std::vector<std::pair<std::string_view, FieldSetter>> fields = {
#define X(field)                                                          \
    {#field, [](EventCounts &e, double v) {                               \
         return assignField(e.field, v);                                  \
     }},
            GS_EVENT_COUNT_FIELDS(X)
#undef X
        };
        std::sort(fields.begin(), fields.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        FieldTable sorted;
        for (const auto &[name, setter] : fields) {
            sorted.names.push_back(name);
            sorted.setters.push_back(setter);
        }
        return sorted;
    }();
    return table;
}

} // namespace

std::span<const std::string_view>
EventCounts::fieldNames()
{
    return fieldTable().names;
}

bool
EventCounts::setFieldAt(std::size_t index, double value)
{
    return fieldTable().setters[index](*this, value);
}

bool
EventCounts::setField(std::string_view name, double value)
{
    const std::vector<std::string_view> &names = fieldTable().names;
    auto it = std::lower_bound(names.begin(), names.end(), name);
    return it != names.end() && *it == name &&
        setFieldAt(static_cast<std::size_t>(it - names.begin()), value);
}

#undef GS_EVENT_COUNT_FIELDS

} // namespace gemstone::uarch
