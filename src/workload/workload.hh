/**
 * @file
 * Workload definition and suite registry.
 *
 * The paper evaluates 65 workloads drawn from MiBench, ParMiBench,
 * LMBench, Roy Longbottom's collection, PARSEC (single- and
 * four-threaded), Dhrystone and Whetstone. This module provides a
 * synthetic suite of the same size and behavioural breadth over the
 * project ISA: embedded integer kernels, memory micro-patterns,
 * floating-point kernels, and multithreaded kernels with locks,
 * barriers and producer/consumer communication.
 */

#ifndef GEMSTONE_WORKLOAD_WORKLOAD_HH
#define GEMSTONE_WORKLOAD_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "isa/memory.hh"
#include "isa/program.hh"
#include "util/random.hh"

namespace gemstone::workload {

/** One runnable workload. */
struct Workload
{
    std::string name;     //!< e.g. "mi-crc32"
    std::string suite;    //!< "mibench", "parmibench", "parsec", ...
    isa::Program program;
    unsigned numThreads = 1;
    std::uint64_t memBytes = 1 << 20;
    /** Deterministic data initialisation (seeded by workload name). */
    std::function<void(isa::Memory &)> init;

    /** Zero a memory instance and initialise it for this workload. */
    void prepareMemory(isa::Memory &memory) const
    {
        memory.clear();
        initMemory(memory);
    }

    /**
     * Initialise a memory that is already zero: freshly constructed
     * or resized. Base runs size their model's memory and then call
     * this, so the memory is allocated and zeroed once per run.
     */
    void initMemory(isa::Memory &memory) const
    {
        if (init)
            init(memory);
    }
};

/**
 * The registry of all workloads.
 */
class Suite
{
  public:
    /** All 65 power-modelling workloads (Experiments 3 and 4). */
    static const std::vector<Workload> &all();

    /**
     * The 45-workload validation set used for gem5-model evaluation
     * (Experiment 1): MiBench, ParMiBench, PARSEC 1t/4t, Dhrystone
     * and Whetstone — no pure micro-benchmarks.
     */
    static std::vector<const Workload *> validationSet();

    /** Workloads of one suite. */
    static std::vector<const Workload *> bySuite(
        const std::string &suite);

    /** Find by name; fatal() if unknown. */
    static const Workload &byName(const std::string &name);

    /** All distinct suite tags. */
    static std::vector<std::string> suiteNames();
};

} // namespace gemstone::workload

#endif // GEMSTONE_WORKLOAD_WORKLOAD_HH
