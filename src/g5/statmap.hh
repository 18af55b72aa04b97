/**
 * @file
 * gem5-style statistic dump for the g5 simulator.
 *
 * Builds the hierarchical statistics tree (system.cpu.fetch.*,
 * system.cpu.branchPred.*, system.cpu.itb_walker_cache.*, system.l2.*
 * and so on) from a run's event record, reproducing both the naming
 * scheme of a real gem5 stats.txt and the g5 model's *counting
 * quirks* — most notably the misclassification of scalar VFP
 * operations as SIMD, which the paper calls out in Section V.
 *
 * Like gem5, which registers its statistics once and dumps only
 * values per run, the names form one static schema: a name-sorted
 * table built once from the single list of statistic definitions in
 * statmap.cc. A StatDump is that schema's values, in table order.
 */

#ifndef GEMSTONE_G5_STATMAP_HH
#define GEMSTONE_G5_STATMAP_HH

#include <cstddef>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "g5/config.hh"
#include "uarch/events.hh"

namespace gemstone::g5 {

/**
 * One run's statistics: a value for every name of the schema, held
 * flat in name order. It iterates as (name, value) pairs in that
 * order, which is the order a name-keyed map would give.
 *
 * A default-constructed dump is empty: it iterates nothing and every
 * value() reads 0. The first setAt() sizes it to the whole schema,
 * every other statistic 0.
 */
class StatDump
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** The schema: every statistic name, sorted, each once. */
    static std::span<const std::string_view> names();

    /** Index of @p name in names(), or npos (binary search). */
    static std::size_t indexOf(std::string_view name);

    bool empty() const { return values.empty(); }
    std::size_t size() const { return values.size(); }

    /** Statistic by name; 0 when absent. */
    double value(std::string_view name) const;

    /** Set the statistic names()[@p index]. */
    void setAt(std::size_t index, double value);

    /** Iterates (name, value) pairs in schema order. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = std::pair<std::string_view, double>;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = value_type;

        const_iterator() = default;
        const_iterator(const StatDump *dump, std::size_t index)
            : dump(dump), index(index)
        {
        }

        value_type operator*() const
        {
            return {names()[index], dump->values[index]};
        }
        const_iterator &operator++()
        {
            ++index;
            return *this;
        }
        const_iterator operator++(int)
        {
            const_iterator before = *this;
            ++index;
            return before;
        }
        bool operator==(const const_iterator &other) const
        {
            return index == other.index;
        }

      private:
        const StatDump *dump = nullptr;
        std::size_t index = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, values.size()}; }

  private:
    friend StatDump buildStatDump(const uarch::EventCounts &events,
                                  double seconds, G5Model model);

    std::vector<double> values;
};

/**
 * Produce the full statistics dump for one run.
 *
 * @param events aggregate event record of the run
 * @param seconds simulated seconds
 * @param model which CPU model produced the run
 */
StatDump buildStatDump(const uarch::EventCounts &events, double seconds,
                       G5Model model);

/**
 * Write a gem5-style stats.txt rendering of a dump.
 */
std::string renderStatsText(const StatDump &stats);

} // namespace gemstone::g5

#endif // GEMSTONE_G5_STATMAP_HH
