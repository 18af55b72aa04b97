/**
 * @file
 * P6 — result-store persistence (ResultStore::saveCsv / loadCsv) and
 * store hits (ExperimentRunner::measureHw / runG5 on a warm store).
 *
 * Builds a deterministic store shaped like the warm store of a
 * default `gemstone_tool --cache` run: 260 hardware entries of 152
 * fields and 180 g5 entries of 211 fields (77,500 rows), long
 * pipe-joined keys, three quarters of the values integral counts and
 * the rest 17-digit fractions. A handful of edge values (a subnormal,
 * -0, DBL_MAX) and a key that needs quoting ride along.
 *
 * Correctness first: save -> load -> save must reproduce the file
 * byte for byte, and every loaded entry must match the original bit
 * for bit. Then it times both directions (best of --repeats; save
 * includes the tmp + fsync + rename) and counts heap allocations per
 * row with MallocTally. A "clean_save" row saves each freshly loaded
 * store back to the file it came from, which must write nothing: the
 * bench fails if that file's inode or mtime changes. The "save" row
 * writes to another file, a real rewrite.
 *
 * A second case times store hits, the decode cost of a point in a
 * warm daemon campaign: it fills a store with one default campaign
 * (serve::runCampaign with a default CampaignSpec), then replays
 * every point through a fresh runner, measureHw for each attempt the
 * campaign's quorum measured and runG5 once, all of them hits. It
 * reports hits/s and heap allocations per hw hit and per g5 hit.
 * A third case ("warm_campaign") runs that whole default campaign
 * again on the filled store, the unit of a warm daemon request, and
 * reports its time and heap allocations per point.
 *
 * Emits BENCH_store_io.json in the shared benchjson.hh shape. With
 * --check <baseline.json> the bench fails when any store op's
 * allocs_per_row, either hit kind's allocs_per_hit, or the warm
 * campaign's allocs_per_point exceeds the baseline's. Allocation
 * counts are deterministic and host-speed
 * independent; the MB/s and hits/s figures are informational only,
 * since a shared runner's disk and CPU make a timing gate flaky. Both
 * allocation ratios are rounded to 4 decimals, so a few constant-cost
 * allocations of a different standard library do not trip the gate
 * while one allocation more per entry or per hit does.
 *
 * Usage:
 *   perf_store_io [--out FILE] [--repeats N] [--check BASELINE]
 */

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "benchjson.hh"
#include "exec/resultstore.hh"
#include "gemstone/runner.hh"
#include "serve/service.hh"
#include "util/arena.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"
#include "util/table.hh"
#include "workload/workload.hh"

using namespace gemstone;

namespace {

struct EntrySpec
{
    std::string key;
    exec::ResultStore::Fields fields;
};

/** A count (three in four) or a 17-digit fraction. */
double
storeValue(Rng &rng)
{
    if (rng.chance(0.75))
        return static_cast<double>(rng.uniformInt(2000000));
    return rng.uniform() * std::pow(10.0, static_cast<double>(
                                              rng.uniformInt(12)) - 4.0);
}

std::vector<EntrySpec>
makeEntries()
{
    Rng rng(0x5707E10ULL);
    std::vector<std::string> hw_fields = {"voltage", "exec_seconds",
                                          "power_watts",
                                          "temperature_c", "throttled"};
    for (int r = 0; r < 5; ++r)
        hw_fields.push_back("repeat_" + std::to_string(r));
    for (int p = 0; hw_fields.size() < 94; ++p)
        hw_fields.push_back("pmc_" + std::to_string(p * 3 + 1));
    for (int g = 0; hw_fields.size() < 152; ++g)
        hw_fields.push_back("gt_counter" + std::to_string(g) + "Events");

    std::vector<std::string> g5_fields = {"sim_seconds"};
    const char *units[] = {"branchPred", "dcache", "icache", "iew",
                           "fetch", "commit", "dtb", "itb"};
    for (int s = 0; g5_fields.size() < 211; ++s) {
        g5_fields.push_back(std::string("stat:system.cpu.") +
                            units[s % 8] + ".stat" +
                            std::to_string(s) + "::total");
    }

    std::vector<EntrySpec> entries;
    for (int w = 0; w < 65; ++w) {
        for (int f = 0; f < 4; ++f) {
            EntrySpec entry;
            entry.key = "hw|seed=868381|var=0.000000000|faults=off|"
                        "repeats=5|workload" + std::to_string(w) +
                        "|a15|" + std::to_string(600 + 400 * f) +
                        ".000|a0";
            for (const std::string &name : hw_fields)
                entry.fields.emplace_back(name, storeValue(rng));
            entries.push_back(std::move(entry));
        }
    }
    for (int w = 0; w < 45; ++w) {
        for (int f = 0; f < 4; ++f) {
            EntrySpec entry;
            entry.key = "g5|v1|ex5_big|workload" + std::to_string(w) +
                        "|" + std::to_string(600 + 400 * f) + ".000";
            for (const std::string &name : g5_fields)
                entry.fields.emplace_back(name, storeValue(rng));
            entries.push_back(std::move(entry));
        }
    }
    // Edge values and a key that must be quoted.
    exec::ResultStore::Fields &edge = entries.front().fields;
    edge[0].second = 4.9406564584124654e-324;
    edge[1].second = DBL_MIN / 2.0;
    edge[2].second = -0.0;
    edge[3].second = DBL_MAX;
    entries.back().key = "g5|v1|\"quoted,key\"|1000.000";
    return entries;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot read ", path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct OpResult
{
    std::string op;
    double bestSeconds = 1e300;
    std::uint64_t allocs = 0;

    double allocsPerRow(std::size_t rows) const
    {
        return static_cast<double>(allocs) /
            static_cast<double>(rows);
    }
};

/**
 * Store hits of one kind, or the points of a warm campaign: best
 * time and allocations per unit.
 */
struct HitResult
{
    std::string op;
    /** What is counted: "hit" or "point". */
    std::string unit;
    std::size_t count = 0;
    double bestSeconds = 1e300;
    std::uint64_t allocs = 0;

    double allocsPerUnit() const
    {
        return static_cast<double>(allocs) /
            static_cast<double>(count);
    }
};

/**
 * Fill a store with one default campaign, then time and count the
 * store hits of replaying it: every point's quorum of measureHw
 * attempts ("hw_hit") and its runG5 ("g5_hit"), and the whole
 * campaign run again on the filled store ("warm_campaign", counted
 * per point).
 */
std::vector<HitResult>
timeStoreHits(unsigned repeats)
{
    const serve::CampaignSpec spec;
    auto store = std::make_shared<exec::ResultStore>();
    const serve::CampaignOutcome filled =
        serve::runCampaign(spec, store, nullptr, CancellationToken());
    fatal_if(filled.outcome != serve::RequestOutcome::Ok,
             "filling campaign failed: ", filled.error);

    core::ExperimentRunner runner(serve::runnerConfigFor(spec));
    runner.attachResultStore(store);
    const std::vector<double> &freqs =
        core::ExperimentRunner::frequenciesFor(spec.cluster);
    const std::vector<const workload::Workload *> works =
        workload::Suite::validationSet();

    HitResult hw{"hw_hit", "hit",
                 works.size() * freqs.size() * spec.quorum};
    HitResult g5{"g5_hit", "hit", works.size() * freqs.size()};
    const exec::ResultStore::Stats filled_stats = store->stats();
    for (unsigned rep = 0; rep < repeats; ++rep) {
        MallocTallySnapshot before = mallocTally();
        auto start = std::chrono::steady_clock::now();
        for (const workload::Workload *work : works) {
            for (double freq : freqs) {
                for (unsigned attempt = 0; attempt < spec.quorum;
                     ++attempt) {
                    runner.measureHw(*work, spec.cluster, freq, attempt);
                }
            }
        }
        hw.bestSeconds = std::min(hw.bestSeconds, secondsSince(start));
        hw.allocs = mallocTally().allocs - before.allocs;

        before = mallocTally();
        start = std::chrono::steady_clock::now();
        for (const workload::Workload *work : works) {
            for (double freq : freqs)
                runner.runG5(*work, spec.cluster, freq);
        }
        g5.bestSeconds = std::min(g5.bestSeconds, secondsSince(start));
        g5.allocs = mallocTally().allocs - before.allocs;
    }

    HitResult campaign{"warm_campaign", "point",
                       works.size() * freqs.size()};
    for (unsigned rep = 0; rep < repeats; ++rep) {
        const MallocTallySnapshot before = mallocTally();
        const auto start = std::chrono::steady_clock::now();
        const serve::CampaignOutcome warm = serve::runCampaign(
            spec, store, nullptr, CancellationToken());
        campaign.bestSeconds =
            std::min(campaign.bestSeconds, secondsSince(start));
        campaign.allocs = mallocTally().allocs - before.allocs;
        fatal_if(warm.outcome != serve::RequestOutcome::Ok ||
                     warm.datasetCsv != filled.datasetCsv,
                 "warm campaign differs from the filling one");
    }
    // A miss or an undecodable hit would simulate and insert.
    fatal_if(store->stats().misses != filled_stats.misses ||
                 store->stats().insertions != filled_stats.insertions,
             "a replayed point was not a store hit");
    return {hw, g5, campaign};
}

/** The inode and mtime of @p path, which any rewrite changes. */
std::pair<ino_t, std::int64_t>
fileVersion(const std::string &path)
{
    struct stat st{};
    fatal_if(::stat(path.c_str(), &st) != 0, "cannot stat ", path);
    return {st.st_ino,
            static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                st.st_mtim.tv_nsec};
}

/** Round to the 4 decimals the JSON carries, so checks compare like
 *  with like. */
double
fourDecimals(double value)
{
    return std::round(value * 1e4) / 1e4;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_store_io.json";
    std::string baseline_path;
    unsigned repeats = 5;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            fatal_if(i + 1 >= argc, arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--out")
            out_path = next();
        else if (arg == "--check")
            baseline_path = next();
        else if (arg == "--repeats")
            repeats = static_cast<unsigned>(std::stoul(next()));
        else
            fatal("unknown argument ", arg);
    }
    fatal_if(repeats == 0, "--repeats must be at least 1");

    const std::vector<EntrySpec> entries = makeEntries();
    std::size_t rows = 0;
    exec::ResultStore original(entries.size());
    for (const EntrySpec &entry : entries) {
        original.insert(entry.key, entry.fields);
        rows += entry.fields.size();
    }

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("gs_perf_store_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string first_path = (dir / "first.csv").string();
    const std::string second_path = (dir / "second.csv").string();

    // ---- correctness: save -> load -> save is byte-identical ------
    fatal_if(!original.saveCsv(first_path).ok(), "save failed");
    const std::string first = readFile(first_path);
    {
        exec::ResultStore reloaded(entries.size());
        fatal_if(reloaded.loadCsv(first_path) != entries.size(),
                 "reload did not restore every entry");
        for (const EntrySpec &entry : entries) {
            exec::ResultStore::Payload payload;
            fatal_if(!reloaded.lookup(entry.key, payload), "entry ",
                     entry.key, " missing after reload");
            const exec::ResultStore::Fields &out = *payload;
            fatal_if(out.size() != entry.fields.size(), "entry ",
                     entry.key, " lost fields");
            for (std::size_t f = 0; f < out.size(); ++f) {
                fatal_if(out[f].first != entry.fields[f].first ||
                             !bitEqual(out[f].second,
                                       entry.fields[f].second),
                         "entry ", entry.key, " field ",
                         entry.fields[f].first, " not bit-exact");
            }
        }
        fatal_if(!reloaded.saveCsv(second_path).ok(), "resave failed");
    }
    fatal_if(readFile(second_path) != first,
             "save -> load -> save is not byte-identical");

    // ---- timing and allocation counts ------------------------------
    const bool tally_active = mallocTallyActive();
    OpResult load{"load"};
    OpResult clean_save{"clean_save"};
    OpResult save{"save"};
    for (unsigned rep = 0; rep < repeats; ++rep) {
        exec::ResultStore store(entries.size());
        const MallocTallySnapshot before_load = mallocTally();
        const auto load_start = std::chrono::steady_clock::now();
        const std::size_t loaded = store.loadCsv(first_path);
        load.bestSeconds =
            std::min(load.bestSeconds, secondsSince(load_start));
        load.allocs = mallocTally().allocs - before_load.allocs;
        fatal_if(loaded != entries.size(), "timed load lost entries");

        const auto version = fileVersion(first_path);
        const MallocTallySnapshot before_clean = mallocTally();
        const auto clean_start = std::chrono::steady_clock::now();
        fatal_if(!store.saveCsv(first_path).ok(), "clean save failed");
        clean_save.bestSeconds =
            std::min(clean_save.bestSeconds, secondsSince(clean_start));
        clean_save.allocs = mallocTally().allocs - before_clean.allocs;
        fatal_if(fileVersion(first_path) != version,
                 "saving an unchanged store rewrote its file");

        const MallocTallySnapshot before_save = mallocTally();
        const auto save_start = std::chrono::steady_clock::now();
        fatal_if(!store.saveCsv(second_path).ok(), "timed save failed");
        save.bestSeconds =
            std::min(save.bestSeconds, secondsSince(save_start));
        save.allocs = mallocTally().allocs - before_save.allocs;
    }
    std::filesystem::remove_all(dir);
    const std::vector<HitResult> hits = timeStoreHits(repeats);

    const double megabytes = static_cast<double>(first.size()) / 1e6;
    std::cout << "P6: result-store persistence, " << entries.size()
              << " entries, " << rows << " rows, "
              << formatDouble(megabytes, 2) << " MB (best of "
              << repeats << ")\n";
    TextTable table({"op", "ms", "MB/s", "allocs", "allocs/row"});
    benchjson::BenchJson json(
        "store_io", "MB/s, hits/s, points/s and heap allocations per "
                    "row, hit and point");
    json.setScalar("rows", std::to_string(rows));
    json.setScalar("bytes", std::to_string(first.size()));
    json.setScalar("round_trip_identical", true);
    for (const OpResult *r : {&load, &clean_save, &save}) {
        const double mb_per_s = megabytes / r->bestSeconds;
        table.addRow({r->op, formatDouble(r->bestSeconds * 1e3, 2),
                      formatDouble(mb_per_s, 1),
                      tally_active ? std::to_string(r->allocs) : "n/a",
                      tally_active
                          ? formatDouble(r->allocsPerRow(rows), 4)
                          : "n/a"});
        json.addResult()
            .str("op", r->op)
            .num("ms", r->bestSeconds * 1e3, 3)
            .num("mb_per_s", mb_per_s, 1)
            .integer("allocs", r->allocs)
            .num("allocs_per_row", r->allocsPerRow(rows), 4);
    }
    table.print(std::cout);

    std::cout << "\nwarm store hits of one default campaign, and the "
                 "campaign itself per point (best of "
              << repeats << ")\n";
    TextTable hit_table(
        {"op", "count", "ms", "per s", "allocs", "allocs/unit"});
    for (const HitResult &r : hits) {
        const double per_s =
            static_cast<double>(r.count) / r.bestSeconds;
        hit_table.addRow({r.op, std::to_string(r.count) + " " + r.unit +
                                    "s",
                          formatDouble(r.bestSeconds * 1e3, 2),
                          formatDouble(per_s, 0),
                          tally_active ? std::to_string(r.allocs) : "n/a",
                          tally_active
                              ? formatDouble(r.allocsPerUnit(), 1)
                              : "n/a"});
        json.addResult()
            .str("op", r.op)
            .integer(r.unit + "s", r.count)
            .num("ms", r.bestSeconds * 1e3, 3)
            .num(r.unit + "s_per_s", per_s, 1)
            .integer("allocs", r.allocs)
            .num("allocs_per_" + r.unit, r.allocsPerUnit(), 4);
    }
    hit_table.print(std::cout);
    json.write(out_path);
    std::cout << "wrote " << out_path << "\n";

    if (!baseline_path.empty()) {
        if (!tally_active) {
            std::cout << "allocation gate skipped: MallocTally is "
                         "compiled out of sanitizer builds\n";
            return 0;
        }
        const std::map<std::string, double> per_row =
            benchjson::loadBaseline(baseline_path, {"op"},
                                    "allocs_per_row");
        const std::map<std::string, double> per_hit =
            benchjson::loadBaseline(baseline_path, {"op"},
                                    "allocs_per_hit");
        const std::map<std::string, double> per_point =
            benchjson::loadBaseline(baseline_path, {"op"},
                                    "allocs_per_point");
        fatal_if(per_row.empty() && per_hit.empty() && per_point.empty(),
                 "no results found in ", baseline_path);
        bool regressed = false;
        auto gate = [&](const std::map<std::string, double> &baseline,
                        const std::string &op, const std::string &unit,
                        double now) {
            auto it = baseline.find(op);
            if (it == baseline.end() || fourDecimals(now) <= it->second)
                return;
            std::cerr << "REGRESSION: " << op << " " << unit << " "
                      << formatDouble(fourDecimals(now), 4)
                      << " above baseline "
                      << formatDouble(it->second, 4) << "\n";
            regressed = true;
        };
        for (const OpResult *r : {&load, &clean_save, &save})
            gate(per_row, r->op, "allocs/row", r->allocsPerRow(rows));
        for (const HitResult &r : hits) {
            gate(r.unit == "hit" ? per_hit : per_point, r.op,
                 "allocs/" + r.unit, r.allocsPerUnit());
        }
        if (regressed)
            return 1;
        std::cout << "allocation gate passed against "
                  << baseline_path << "\n";
    }
    return 0;
}
