/**
 * @file
 * E8 — Section V: power-model construction and quality.
 *
 * Paper values (Cortex-A15): published coefficients applied to a
 * different board give MAPE 5.6%; re-tuning the same event selection
 * gives 2.8%; a fresh unrestricted selection gives 4.0% with a
 * better fit metric; the final gem5-compatible selection achieves
 * MAPE 3.28%, SER 0.049 W, adjusted R2 0.996, mean VIF 6, with a
 * worst observation of 14% (parsec-canneal-4 @1400 MHz) out of 621
 * observations. The Cortex-A7 model reaches adjusted R2 0.992, MAPE
 * 6.64%, SER 0.014 W.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "exec/threadpool.hh"
#include "gemstone/runner.hh"
#include "powmon/builder.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;
using powmon::PowerModel;
using powmon::PowerModelBuilder;
using powmon::PowerModelQuality;
using powmon::SelectionConfig;
using powmon::SelectionResult;

namespace {

void
printQuality(const std::string &label, const PowerModelQuality &q,
             TextTable &t)
{
    t.addRow({label, formatPercent(q.mape, 2),
              formatDouble(q.ser, 3) + " W",
              formatDouble(q.adjustedR2, 4),
              formatDouble(q.meanVif, 1),
              formatPercent(q.maxAbsError, 1) + " (" +
                  q.worstObservation + ")"});
}

} // namespace

int
main(int argc, char **argv)
{
    // Campaign --jobs convention: 0 means one worker per core. The
    // per-frequency fits and validation are identical at any jobs
    // count.
    unsigned jobs = exec::ThreadPool::defaultThreadCount();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            int value = std::stoi(argv[++i]);
            if (value < 0)
                fatal("--jobs must be >= 0");
            jobs = value == 0
                ? exec::ThreadPool::defaultThreadCount()
                : static_cast<unsigned>(value);
        } else {
            fatal("usage: ", argv[0], " [--jobs N]");
        }
    }

    std::cout << "E8 (Section V): empirical power models\n";

    core::RunnerConfig runner_config;
    runner_config.jobs = jobs;
    core::ExperimentRunner runner(runner_config);

    // --- Cortex-A15 ---
    std::vector<powmon::PowerObservation> big_obs =
        runner.runPowerCharacterisation(hwsim::CpuCluster::BigA15);
    PowerModelBuilder big_builder(big_obs, "cortex-a15");
    std::cout << "\nCortex-A15 observations: " << big_obs.size()
              << " (65 workloads x 4 DVFS points; paper: 621 "
                 "observations)\n";

    TextTable t({"model", "MAPE", "SER", "adj R2", "mean VIF",
                 "worst observation"});

    // 1. "Published coefficients": a model built on a *different*
    // board instance (different sensors, temperature, silicon), then
    // applied to ours — the paper's 5.6% scenario.
    core::RunnerConfig other_config;
    other_config.seed = 0xB0A2DULL;      // a different physical board
    other_config.boardVariation = 0.06;  // silicon/sensor spread
    core::ExperimentRunner other_runner(other_config);
    std::vector<powmon::PowerObservation> other_obs =
        other_runner.runPowerCharacterisation(
            hwsim::CpuCluster::BigA15);
    PowerModelBuilder other_builder(other_obs, "cortex-a15-other");

    SelectionConfig published_sel;
    published_sel.maxEvents = 7;
    SelectionResult published_events =
        other_builder.selectEvents(published_sel);
    PowerModel published =
        other_builder.build(published_events.events, jobs);
    printQuality("published coefficients (paper 5.6%)",
                 PowerModelBuilder::validate(published, big_obs, jobs),
                 t);

    // 2. Same event selection, coefficients re-tuned on this board
    // (paper: 2.8%).
    PowerModel retuned =
        big_builder.build(published_events.events, jobs);
    printQuality("re-tuned coefficients (paper 2.8%)",
                 PowerModelBuilder::validate(retuned, big_obs, jobs),
                 t);

    // 3. Fresh unrestricted selection on this board (paper: 4.0%).
    SelectionConfig unrestricted;
    unrestricted.maxEvents = 7;
    SelectionResult fresh = big_builder.selectEvents(unrestricted);
    PowerModel fresh_model = big_builder.build(fresh.events, jobs);
    printQuality("unrestricted selection (paper 4.0%)",
                 PowerModelBuilder::validate(fresh_model, big_obs,
                                             jobs),
                 t);

    // 4. The final gem5-compatible selection: restricted to events
    // with reliable g5 equivalents, plus the 0x1B-0x73 composite
    // (paper: 3.28%, SER 0.049 W, adj R2 0.996, mean VIF 6).
    SelectionConfig compatible;
    compatible.maxEvents = 7;
    compatible.requireG5Equivalent = true;
    for (int id : powmon::EventSpecTable::knownBadForG5())
        compatible.excluded.insert(id);
    compatible.composites.push_back(
        powmon::EventSpecTable::difference(0x1B, 0x73));
    SelectionResult final_sel = big_builder.selectEvents(compatible);
    PowerModel final_model = big_builder.build(final_sel.events, jobs);
    printQuality("gem5-compatible selection (paper 3.28%)",
                 PowerModelBuilder::validate(final_model, big_obs,
                                             jobs),
                 t);

    t.print(std::cout);

    std::cout << "\ngem5-compatible events selected:";
    for (const powmon::EventSpec &spec : final_model.events)
        std::cout << " " << spec.key;
    std::cout << "\n";

    // --- Cortex-A7 (paper: MAPE 6.64%, SER 0.014 W, adj R2 0.992) ---
    std::vector<powmon::PowerObservation> little_obs =
        runner.runPowerCharacterisation(hwsim::CpuCluster::LittleA7);
    PowerModelBuilder little_builder(little_obs, "cortex-a7");
    SelectionResult little_sel =
        little_builder.selectEvents(compatible);
    PowerModel little_model =
        little_builder.build(little_sel.events, jobs);

    TextTable a7({"model", "MAPE", "SER", "adj R2", "mean VIF",
                  "worst observation"});
    printQuality("Cortex-A7 gem5-compatible (paper 6.64%)",
                 PowerModelBuilder::validate(little_model,
                                             little_obs, jobs),
                 a7);
    printBanner(std::cout, "Cortex-A7 model");
    a7.print(std::cout);

    printBanner(std::cout, "Run-time power equations (emitted for "
                           "in-simulator evaluation)");
    std::cout << final_model.runtimeEquations();
    return 0;
}
