/**
 * @file
 * ARMv7-style Performance Monitoring Unit model.
 *
 * The PMU exposes the event-number space of the Cortex-A7/A15 PMUs
 * (architectural events 0x00-0x1D, implementation-defined events
 * 0x40-0x7E plus a few chip-specific extras). Like the real hardware,
 * only a handful of counters can be programmed at once (6 on the
 * A15, plus the fixed cycle counter), so capturing the full event set
 * requires multiple instrumented runs — GemStone's Experiment 1
 * repeats workloads across counter groups exactly as the paper did
 * to capture 68 events.
 */

#ifndef GEMSTONE_HWSIM_PMU_HH
#define GEMSTONE_HWSIM_PMU_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "uarch/events.hh"
#include "util/random.hh"

namespace gemstone::hwsim {

/** One PMU event definition. */
struct PmcEvent
{
    int id;                 //!< ARM event number (e.g. 0x11)
    std::string name;       //!< mnemonic (e.g. "CPU_CYCLES")
    std::string desc;       //!< human-readable description
    /** Derive the true count from a run's event record. */
    std::function<double(const uarch::EventCounts &)> extract;
};

/** Hex-formatted id, e.g. "0x11". */
std::string pmcIdString(int id);

/**
 * The PMC counts of one measurement: (event id, count) pairs sorted
 * by id, each id once.
 */
using PmcCounts = std::vector<std::pair<int, double>>;

/** Count of event @p id (binary search); 0 when not captured. */
double pmcCount(const PmcCounts &counts, int id);

/**
 * Set the count of event @p id, keeping @p counts sorted and unique:
 * an id already present takes the new count, so a repeated id keeps
 * its last one. Ascending ids append in O(1).
 */
void setPmcCount(PmcCounts &counts, int id, double count);

/**
 * The PMU event table.
 */
class PmuEventTable
{
  public:
    /** The full event list (order is stable). */
    static const std::vector<PmcEvent> &events();

    /** Find by event number; nullptr when not implemented. */
    static const PmcEvent *find(int id);

    /** Find by mnemonic; nullptr when unknown. */
    static const PmcEvent *findByName(const std::string &name);

    /** All event ids. */
    static std::vector<int> allIds();
};

/**
 * Counter-multiplexed PMU sampling.
 *
 * Emulates programming the PMU in groups of `counterSlots` events per
 * instrumented run. Each run perturbs its counts with small
 * multiplicative run-to-run noise, as consecutive runs of the same
 * binary on real silicon never produce bit-identical PMC values.
 */
class PmuSampler
{
  public:
    /**
     * @param counter_slots programmable counters per run (6 on A15)
     * @param noise_sigma relative run-to-run noise (e.g. 0.004)
     */
    PmuSampler(unsigned counter_slots, double noise_sigma);

    /**
     * Capture the given events from a run record.
     * @param events ids to capture
     * @param truth the run's true event record
     * @param rng noise stream (advanced per emulated run)
     * @return measured counts; an id listed twice keeps its last
     */
    PmcCounts capture(const std::vector<int> &events,
                      const uarch::EventCounts &truth, Rng &rng) const;

    /** PMC corruption selected by the fault injector. */
    struct CaptureFaults
    {
        /** Drop one whole multiplex group of events. */
        bool loseGroup = false;
        /** Which group (clamped to the groups actually used). */
        unsigned lostGroup = 0;
        /** Wrap counts at the 32-bit counter width. */
        bool overflow = false;
    };

    /**
     * capture() through an injected fault: a lost multiplex group
     * never reaches the output (the harness sees those events as
     * simply missing), and an overflow episode wraps every count at
     * 2^32 exactly as the real 32-bit PMCs do when a multiplexing
     * window runs long. With a default-constructed @p faults this is
     * capture() bit for bit.
     */
    PmcCounts captureFaulty(const std::vector<int> &events,
                            const uarch::EventCounts &truth, Rng &rng,
                            const CaptureFaults &faults) const;

    /** Number of instrumented runs needed for n events. */
    unsigned runsNeeded(std::size_t event_count) const;

  private:
    unsigned counterSlots;
    double noiseSigma;
};

} // namespace gemstone::hwsim

#endif // GEMSTONE_HWSIM_PMU_HH
