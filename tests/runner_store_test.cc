/**
 * @file
 * The runner's result-store codec: how ExperimentRunner::measureHw
 * and runG5 encode a result into a store entry and decode a hit back.
 *
 * A hit must reproduce the cold result bit for bit, and the decoder's
 * accept set is pinned here: a duplicate name is last-wins, an
 * unknown "gt_"/"raw:" name is ignored, and an unknown top-level name
 * or a malformed "pmc_" id makes the entry undecodable, which the
 * runner answers by simulating again.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/resultstore.hh"
#include "gemstone/runner.hh"
#include "util/csv.hh"
#include "util/strutil.hh"

using namespace gemstone;
using namespace gemstone::core;
using exec::ResultStore;

namespace {

constexpr hwsim::CpuCluster kCluster = hwsim::CpuCluster::BigA15;
constexpr double kFreq = 1000.0;

const workload::Workload &
testWorkload()
{
    return *workload::Suite::validationSet().front();
}

/** Every field of a measurement, doubles rendered exactly. */
std::string
render(const hwsim::HwMeasurement &m)
{
    std::ostringstream out;
    out << m.workload << ' ' << hwsim::clusterTag(m.cluster) << ' '
        << formatExactDouble(m.freqMhz) << ' '
        << formatExactDouble(m.voltage) << ' '
        << formatExactDouble(m.execSeconds) << ' '
        << formatExactDouble(m.powerWatts) << ' '
        << formatExactDouble(m.temperatureC) << ' ' << m.throttled;
    for (double seconds : m.repeatSeconds)
        out << " r" << formatExactDouble(seconds);
    for (const auto &[id, count] : m.pmc)
        out << " p" << id << '=' << formatExactDouble(count);
    for (const auto &[name, value] : m.groundTruth.toMap())
        out << ' ' << name << '=' << formatExactDouble(value);
    return out.str();
}

std::string
render(const g5::G5Stats &s)
{
    std::ostringstream out;
    out << s.workload << ' ' << g5::modelTag(s.model) << ' '
        << s.version << ' ' << formatExactDouble(s.freqMhz) << ' '
        << formatExactDouble(s.simSeconds);
    for (const auto &[name, value] : s.stats)
        out << ' ' << name << '=' << formatExactDouble(value);
    for (const auto &[name, value] : s.raw.toMap())
        out << ' ' << name << '=' << formatExactDouble(value);
    return out.str();
}

/** The one entry of @p store: its key (read back from a save) and
 *  its payload. */
void
onlyEntry(ResultStore &store, std::string &key,
          ResultStore::Fields &fields)
{
    ASSERT_EQ(store.size(), 1u);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("gs_runner_store_" + std::to_string(::getpid()) + ".csv"))
            .string();
    ASSERT_TRUE(store.saveCsv(path).ok());
    CsvReader reader = CsvReader::parseFile(path);
    std::filesystem::remove(path);
    ASSERT_GT(reader.rowCount(), 0u);
    key = std::string(reader.cell(0, reader.columnIndex("key")));
    ResultStore::Payload payload;
    ASSERT_TRUE(store.lookup(key, payload));
    fields = *payload;
}

/** A cold result and the store entry it encodes to. */
template <typename Result>
struct Cold
{
    Result result;
    std::string key;
    ResultStore::Fields fields;
};

Cold<hwsim::HwMeasurement>
coldHw()
{
    Cold<hwsim::HwMeasurement> cold;
    auto store = std::make_shared<ResultStore>();
    ExperimentRunner runner{RunnerConfig{}};
    runner.attachResultStore(store);
    cold.result = runner.measureHw(testWorkload(), kCluster, kFreq, 0);
    onlyEntry(*store, cold.key, cold.fields);
    return cold;
}

Cold<g5::G5Stats>
coldG5()
{
    Cold<g5::G5Stats> cold;
    auto store = std::make_shared<ResultStore>();
    ExperimentRunner runner{RunnerConfig{}};
    runner.attachResultStore(store);
    cold.result = runner.runG5(testWorkload(), kCluster, kFreq);
    onlyEntry(*store, cold.key, cold.fields);
    return cold;
}

/** measureHw in a fresh runner whose store holds only @p fields. */
hwsim::HwMeasurement
warmHw(const std::string &key, ResultStore::Fields fields)
{
    auto store = std::make_shared<ResultStore>();
    store->insert(key, std::move(fields));
    ExperimentRunner runner{RunnerConfig{}};
    runner.attachResultStore(store);
    return runner.measureHw(testWorkload(), kCluster, kFreq, 0);
}

g5::G5Stats
warmG5(const std::string &key, ResultStore::Fields fields)
{
    auto store = std::make_shared<ResultStore>();
    store->insert(key, std::move(fields));
    ExperimentRunner runner{RunnerConfig{}};
    runner.attachResultStore(store);
    return runner.runG5(testWorkload(), kCluster, kFreq);
}

/** Index of field @p name in @p fields (fails the test if absent). */
std::size_t
fieldIndex(const ResultStore::Fields &fields, const std::string &name)
{
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (fields[i].first == name)
            return i;
    }
    ADD_FAILURE() << "no field " << name;
    return 0;
}

} // namespace

TEST(RunnerStore, HwHitDecodesToTheColdMeasurement)
{
    const Cold<hwsim::HwMeasurement> cold = coldHw();
    EXPECT_FALSE(cold.result.pmc.empty());
    EXPECT_FALSE(cold.result.repeatSeconds.empty());
    EXPECT_EQ(render(warmHw(cold.key, cold.fields)), render(cold.result));
}

TEST(RunnerStore, G5HitDecodesToTheColdStats)
{
    const Cold<g5::G5Stats> cold = coldG5();
    EXPECT_FALSE(cold.result.stats.empty());
    EXPECT_EQ(render(warmG5(cold.key, cold.fields)), render(cold.result));
}

TEST(RunnerStore, MalformedPmcNameIsUndecodableAndReMeasured)
{
    // A bit-rotted id must neither throw out of measureHw nor alias
    // another counter: the entry is undecodable and re-measured. The
    // value is poisoned too, so an entry that loaded would show.
    const Cold<hwsim::HwMeasurement> cold = coldHw();
    const std::size_t pmc17 = fieldIndex(cold.fields, "pmc_17");
    for (const char *bad :
         {"pmc_x17", "pmc_17x", "pmc_", "pmc_+17", "pmc_ 17", "pmc_17 ",
          "pmc_1.7", "pmc_0x11", "pmc_99999999999"}) {
        SCOPED_TRACE(bad);
        ResultStore::Fields fields = cold.fields;
        fields[pmc17] = {bad, -1.0};
        hwsim::HwMeasurement warm;
        ASSERT_NO_THROW(warm = warmHw(cold.key, fields));
        EXPECT_EQ(render(warm), render(cold.result));
    }
}

TEST(RunnerStore, MalformedPmcNameInASavedStoreIsReMeasured)
{
    // The same through the file: rename the row in a saved store and
    // poison its value.
    const Cold<hwsim::HwMeasurement> cold = coldHw();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("gs_runner_store_pmc_" + std::to_string(::getpid()) + ".csv"))
            .string();
    {
        ResultStore store;
        store.insert(cold.key, cold.fields);
        ASSERT_TRUE(store.saveCsv(path).ok());
    }
    std::ifstream in(path, std::ios::binary);
    const std::string document((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    const std::size_t at = document.find(",pmc_17,");
    ASSERT_NE(at, std::string::npos);
    const std::size_t row_end = document.find('\n', at);
    ASSERT_NE(row_end, std::string::npos);
    for (const char *bad : {",pmc_x17,-1", ",pmc_17x,-1"}) {
        SCOPED_TRACE(bad);
        std::string edited = document;
        edited.replace(at, row_end - at, bad);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << edited;
        auto store = std::make_shared<ResultStore>();
        ASSERT_EQ(store->loadCsv(path), 1u);
        ExperimentRunner runner{RunnerConfig{}};
        runner.attachResultStore(store);
        hwsim::HwMeasurement warm;
        ASSERT_NO_THROW(warm = runner.measureHw(testWorkload(), kCluster,
                                                kFreq, 0));
        EXPECT_EQ(render(warm), render(cold.result));
    }
    std::filesystem::remove(path);
}

TEST(RunnerStore, HwAcceptSetIsPinned)
{
    const Cold<hwsim::HwMeasurement> cold = coldHw();
    using Edit = std::function<void(ResultStore::Fields &)>;
    using Expect = std::function<void(hwsim::HwMeasurement &)>;
    struct Row
    {
        const char *what;
        Edit edit;
        /** Applied to the cold result; null means "rejected". */
        Expect expect;
    };
    const std::vector<Row> rows = {
        {"duplicate scalar is last-wins",
         [](ResultStore::Fields &f) { f.emplace_back("voltage", 7.5); },
         [](hwsim::HwMeasurement &m) { m.voltage = 7.5; }},
        {"duplicate pmc is last-wins",
         [](ResultStore::Fields &f) { f.emplace_back("pmc_17", 3.0); },
         [](hwsim::HwMeasurement &m) { m.pmc[17] = 3.0; }},
        {"duplicate gt_ is last-wins",
         [](ResultStore::Fields &f) { f.emplace_back("gt_cycles", 9.0); },
         [](hwsim::HwMeasurement &m) { m.groundTruth.cycles = 9.0; }},
        {"unknown gt_ is ignored",
         [](ResultStore::Fields &f) {
             f.emplace_back("gt_noSuchEvent", 1.0);
             f.emplace_back("gt_", 1.0);
         },
         [](hwsim::HwMeasurement &) {}},
        {"gt_ count the field cannot hold is ignored",
         [](ResultStore::Fields &f) {
             f.emplace_back("gt_instructions", -1.0);
         },
         [](hwsim::HwMeasurement &) {}},
        {"unknown top-level name is rejected",
         [](ResultStore::Fields &f) {
             f.emplace_back("voltage", 7.5);
             f.emplace_back("no_such_field", 1.0);
         },
         nullptr},
        {"raw: is not a hardware prefix",
         [](ResultStore::Fields &f) {
             f.emplace_back("voltage", 7.5);
             f.emplace_back("raw:cycles", 1.0);
         },
         nullptr},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        ResultStore::Fields fields = cold.fields;
        row.edit(fields);
        hwsim::HwMeasurement expected = cold.result;
        if (row.expect)
            row.expect(expected);
        EXPECT_EQ(render(warmHw(cold.key, fields)), render(expected));
    }
}

TEST(RunnerStore, G5AcceptSetIsPinned)
{
    const Cold<g5::G5Stats> cold = coldG5();
    ASSERT_FALSE(cold.result.stats.empty());
    const std::string stat = cold.result.stats.begin()->first;
    using Edit = std::function<void(ResultStore::Fields &)>;
    using Expect = std::function<void(g5::G5Stats &)>;
    struct Row
    {
        const char *what;
        Edit edit;
        Expect expect;
    };
    const std::vector<Row> rows = {
        {"duplicate scalar is last-wins",
         [](ResultStore::Fields &f) {
             f.emplace_back("sim_seconds", 0.25);
         },
         [](g5::G5Stats &s) { s.simSeconds = 0.25; }},
        {"duplicate stat: is last-wins",
         [&](ResultStore::Fields &f) {
             f.emplace_back("stat:" + stat, 4.0);
         },
         [&](g5::G5Stats &s) { s.stats[stat] = 4.0; }},
        {"duplicate raw: is last-wins",
         [](ResultStore::Fields &f) {
             f.emplace_back("raw:instructions", 11.0);
         },
         [](g5::G5Stats &s) { s.raw.instructions = 11; }},
        {"unknown raw: is ignored",
         [](ResultStore::Fields &f) {
             f.emplace_back("raw:noSuchEvent", 1.0);
         },
         [](g5::G5Stats &) {}},
        {"unknown top-level name is rejected",
         [](ResultStore::Fields &f) {
             f.emplace_back("sim_seconds", 0.25);
             f.emplace_back("no_such_field", 1.0);
         },
         nullptr},
        {"gt_ is not a g5 prefix",
         [](ResultStore::Fields &f) {
             f.emplace_back("sim_seconds", 0.25);
             f.emplace_back("gt_cycles", 1.0);
         },
         nullptr},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        ResultStore::Fields fields = cold.fields;
        row.edit(fields);
        g5::G5Stats expected = cold.result;
        if (row.expect)
            row.expect(expected);
        EXPECT_EQ(render(warmG5(cold.key, fields)), render(expected));
    }
}
