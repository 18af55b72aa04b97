/**
 * @file
 * Outputs recorded for kDefaultSeed on the tree the benchmark was
 * written against. Every op on the default seed is checked against
 * these; other seeds are checked against their own set-up. Re-record
 * only for a change that is meant to alter the outputs: empty the
 * tables, run each workload with --seed 868381 and copy the printed
 * "reference" lines.
 */

#include "bench.hh"

namespace perfbench {

const Golden &
goldenReport()
{
    // gemstone_tool --jobs 4 --out DIR (stdout.txt is what it prints;
    // the same bytes as out/report.txt).
    static const Golden golden{
        {
            {"stdout.txt", "13ccd9586be74c55"},
            {"out/report.txt", "13ccd9586be74c55"},
            {"out/validation.csv", "06e6f83777704855"},
            {"out/clusters.csv", "4b0ca952eba13eb2"},
            {"out/pmc_correlation.csv", "c504d8ed9b2b64ff"},
            {"out/event_comparison.csv", "99c486956bb48219"},
            {"out/hw_pmcs.csv", "4e9feb6fd0a10132"},
            {"out/power_model.txt", "7e5b8b35b9306c2b"},
        },
        "56.195575307199711"};
    return golden;
}

const Golden &
goldenServe()
{
    // gemstone_tool campaign (the default A15 campaign's dataset CSV).
    static const Golden golden{{{"dataset.csv", "9360628de0e48baf"}},
                               "56.195573888888894"};
    return golden;
}

} // namespace perfbench
