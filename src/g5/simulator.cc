/**
 * @file
 * g5 simulator facade implementation.
 */

#include "g5/simulator.hh"

#include "util/cancellation.hh"
#include "util/logging.hh"

namespace gemstone::g5 {

double
G5Stats::rate(std::string_view name) const
{
    return simSeconds > 0.0 ? value(name) / simSeconds : 0.0;
}

G5Simulation::G5Simulation(int version) : simVersion(version)
{
    fatal_if(version != 1 && version != 2,
             "g5 version must be 1 or 2, got ", version);
}

void
G5Simulation::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    runCache.clear();
}

std::shared_ptr<G5Simulation::BaseRunSlot>
G5Simulation::baseRun(const workload::Workload &work, G5Model model)
{
    std::string key = modelTag(model) + ":" + work.name;
    std::shared_ptr<BaseRunSlot> slot;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        std::shared_ptr<BaseRunSlot> &entry = runCache[key];
        if (!entry)
            entry = std::make_shared<BaseRunSlot>();
        slot = entry;
    }
    std::call_once(slot->once, [&] {
        uarch::ClusterConfig config = ex5Config(model, simVersion);
        config.memBytes =
            std::max<std::uint64_t>(work.memBytes, 64 * 1024);

        // A new model's memory is zeroed already.
        uarch::ClusterModel cluster(config);
        work.initMemory(cluster.memory());
        slot->run = cluster.run(work.program, work.numThreads, 1.0);
    });
    return slot;
}

G5Stats
G5Simulation::run(const workload::Workload &work, G5Model model,
                  double freq_mhz)
{
    fatal_if(freq_mhz <= 0.0, "frequency must be positive");
    // Poll before committing to a (possibly cached) base run.
    coopCheckpoint();

    std::shared_ptr<BaseRunSlot> slot = baseRun(work, model);
    uarch::RunResult retimed =
        uarch::retimeRun(slot->run, freq_mhz / 1000.0);

    G5Stats out;
    out.workload = work.name;
    out.model = model;
    out.version = simVersion;
    out.freqMhz = freq_mhz;
    out.simSeconds = retimed.seconds;
    out.raw = retimed.aggregate;
    out.stats =
        buildStatDump(retimed.aggregate, retimed.seconds, model);
    return out;
}

} // namespace gemstone::g5
