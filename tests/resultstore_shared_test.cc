/**
 * @file
 * The shared persistent result-store tier: publish/absorb exchange
 * between attached stores, journal semantics, loadCsv compatibility,
 * the one row decoder shared by loadCsv and the tier, the
 * only-the-attacher-publishes fork rule, and — the point of the
 * flock discipline — multiple processes hammering one tier file
 * without ever producing a torn, interleaved or duplicated row.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "exec/resultstore.hh"
#include "exec/sharedtier.hh"

using namespace gemstone;
using exec::ResultStore;

namespace {

/** Unique scratch path, removed on destruction. */
struct ScratchFile
{
    std::string path;
    explicit ScratchFile(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                name).string())
    {
        std::filesystem::remove(path);
    }
    ~ScratchFile() { std::filesystem::remove(path); }
};

ResultStore::Fields
sampleFields(double seed)
{
    return {{"exec_seconds", seed * 0.125},
            {"power_watts", seed + 1.0 / 3.0},
            {"energy_joules", seed * 1e-3}};
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

TEST(SharedTier, AttachAbsorbsPreexistingEntries)
{
    ScratchFile file("gs_tier_preexisting.csv");
    {
        ResultStore writer;
        ASSERT_TRUE(writer.attachSharedTier(file.path).ok());
        writer.insert("hw|dhrystone|1000", sampleFields(1.0));
        writer.insert("g5|whets|600", sampleFields(2.0));
    }

    ResultStore reader;
    ASSERT_TRUE(reader.attachSharedTier(file.path).ok());
    ResultStore::Payload out;
    ASSERT_TRUE(reader.lookup("hw|dhrystone|1000", out));
    ASSERT_EQ(out->size(), 3u);
    EXPECT_EQ((*out)[0].first, "exec_seconds");
    EXPECT_TRUE(bitEqual((*out)[0].second, 0.125));
    ASSERT_TRUE(reader.lookup("g5|whets|600", out));
    EXPECT_TRUE(bitEqual((*out)[1].second, 2.0 + 1.0 / 3.0));
    // Absorbed entries are found work, not computed work.
    EXPECT_EQ(reader.stats().insertions, 0u);
}

TEST(SharedTier, LateArrivalsAbsorbOnMiss)
{
    ScratchFile file("gs_tier_late.csv");
    ResultStore a;
    ResultStore b;
    ASSERT_TRUE(a.attachSharedTier(file.path).ok());
    ASSERT_TRUE(b.attachSharedTier(file.path).ok());

    // Published by a *after* b attached: b's in-memory tier is stale
    // until a miss sends it back to the file.
    a.insert("late|key", sampleFields(3.0));
    ResultStore::Payload out;
    ASSERT_TRUE(b.lookup("late|key", out));
    EXPECT_EQ(b.stats().sharedHits, 1u);
    EXPECT_EQ(b.stats().hits, 1u);
    ASSERT_EQ(out->size(), 3u);
    EXPECT_TRUE(bitEqual((*out)[1].second, 3.0 + 1.0 / 3.0));

    // A key nobody published is still a plain miss.
    EXPECT_FALSE(b.lookup("never|published", out));
    EXPECT_EQ(b.stats().misses, 1u);
    EXPECT_EQ(b.stats().sharedHits, 1u);
}

TEST(SharedTier, ContainsSeesLateArrivalsWithoutCounting)
{
    ScratchFile file("gs_tier_contains.csv");
    ResultStore a;
    ResultStore b;
    ASSERT_TRUE(a.attachSharedTier(file.path).ok());
    ASSERT_TRUE(b.attachSharedTier(file.path).ok());

    // Published by a after b attached: contains() must go back to
    // the file like lookup() does, yet count nothing.
    a.insert("late|key", sampleFields(5.0));
    EXPECT_TRUE(b.contains("late|key"));
    EXPECT_FALSE(b.contains("never|published"));
    ResultStore::Stats stats = b.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.sharedHits, 0u);
    EXPECT_EQ(stats.insertions, 0u);

    // The absorbed entry now serves a plain hit.
    ResultStore::Payload out;
    ASSERT_TRUE(b.lookup("late|key", out));
    EXPECT_TRUE(bitEqual((*out)[1].second, 5.0 + 1.0 / 3.0));
}

TEST(SharedTier, PublishAbsorbCarriesSubnormalsAndExtremes)
{
    // The tier must absorb the subnormals formatExactDouble writes
    // rather than reject the value and drop the entry.
    ScratchFile file("gs_tier_extremes.csv");
    const ResultStore::Fields extremes = {{"min_subnormal", 4.94e-324},
                                          {"half_dbl_min", DBL_MIN / 2.0},
                                          {"negative_zero", -0.0},
                                          {"dbl_max", DBL_MAX}};
    ResultStore a;
    ResultStore b;
    ASSERT_TRUE(a.attachSharedTier(file.path).ok());
    ASSERT_TRUE(b.attachSharedTier(file.path).ok());
    a.insert("extreme|key", extremes);

    ResultStore::Payload out;
    ASSERT_TRUE(b.lookup("extreme|key", out));
    EXPECT_EQ(b.stats().sharedHits, 1u);
    ASSERT_EQ(out->size(), extremes.size());
    for (std::size_t i = 0; i < extremes.size(); ++i) {
        EXPECT_EQ((*out)[i].first, extremes[i].first);
        EXPECT_TRUE(bitEqual((*out)[i].second, extremes[i].second))
            << extremes[i].first;
    }
}

TEST(SharedTier, PublishDeduplicatesAcrossStores)
{
    ScratchFile file("gs_tier_dedup.csv");
    ResultStore a;
    ResultStore b;
    ASSERT_TRUE(a.attachSharedTier(file.path).ok());
    ASSERT_TRUE(b.attachSharedTier(file.path).ok());

    a.insert("shared|key", sampleFields(4.0));
    b.insert("shared|key", sampleFields(4.0));  // same computation

    const exec::SharedTierFile::Stats tier_b = b.sharedTier()->stats();
    EXPECT_EQ(tier_b.deduped, 1u);

    // Exactly one group in the file: a fresh load sees one entry.
    ResultStore fresh;
    EXPECT_EQ(fresh.loadCsv(file.path), 1u);
}

TEST(SharedTier, JournalRecordsOwnInsertsOnly)
{
    ScratchFile file("gs_tier_journal.csv");
    ResultStore a;
    ResultStore b;
    ASSERT_TRUE(a.attachSharedTier(file.path).ok());
    ASSERT_TRUE(b.attachSharedTier(file.path).ok());
    a.insert("foreign|key", sampleFields(5.0));

    b.enableJournal();
    b.insert("own|one", sampleFields(6.0));
    // Absorbing a's entry through a miss is not b's work.
    ResultStore::Payload out;
    ASSERT_TRUE(b.lookup("foreign|key", out));
    b.insert("own|two", sampleFields(7.0));

    auto journal = b.takeJournal();
    ASSERT_EQ(journal.size(), 2u);
    EXPECT_EQ(journal[0].first, "own|one");
    EXPECT_EQ(journal[1].first, "own|two");
    ASSERT_EQ(journal[0].second.size(), 3u);
    EXPECT_TRUE(bitEqual(journal[0].second[0].second, 6.0 * 0.125));

    // takeJournal() stops recording until re-enabled.
    b.insert("own|three", sampleFields(8.0));
    EXPECT_TRUE(b.takeJournal().empty());
}

TEST(SharedTier, TierFileLoadsAsPlainStoreCsv)
{
    // The tier is deliberately loadCsv-compatible: a workerless run
    // pointed at the same --cache path must be able to read it.
    ScratchFile file("gs_tier_compat.csv");
    {
        ResultStore writer;
        ASSERT_TRUE(writer.attachSharedTier(file.path).ok());
        writer.insert("k|one", sampleFields(1.0));
        writer.insert("k|two", sampleFields(2.0));
        writer.insert("k|three", {{"lonely", -0.0}});
    }

    ResultStore plain;
    EXPECT_EQ(plain.loadCsv(file.path), 3u);
    ResultStore::Payload out;
    ASSERT_TRUE(plain.lookup("k|three", out));
    ASSERT_EQ(out->size(), 1u);
    EXPECT_EQ((*out)[0].first, "lonely");
    EXPECT_TRUE(bitEqual((*out)[0].second, -0.0));
}

namespace {

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** What saveCsv() of @p store writes: its entries, canonically. */
std::string
savedBytes(const ResultStore &store, const std::string &name)
{
    ScratchFile file(name);
    EXPECT_TRUE(store.saveCsv(file.path).ok());
    return readBytes(file.path);
}

} // namespace

TEST(StoreRows, LoadCsvAndTierRefreshDecodeTheSameEntries)
{
    // Quoted commas and quotes, CRLF, a blank line, comments, the
    // marker, a malformed value, a stray quote and a padded value.
    const std::string document = "key,field,value\r\n"
                                 "\r\n"
                                 "# a comment\r\n"
                                 "\"k,1\",\"f\"\"q\",1.5\r\n"
                                 "\"k,1\",plain,2\r\n"
                                 "k2,x,not-a-number\r\n"
                                 "k2,y,3\r\n"
                                 "k3,\"a,b\",-0\r\n"
                                 "k4,bad\"quote,1\r\n"
                                 "k5,v, 7 \r\n"
                                 "#gemstone:complete\r\n";
    ScratchFile file("gs_store_rows_same.csv");
    writeBytes(file.path, document);

    ResultStore loaded;
    EXPECT_EQ(loaded.loadCsv(file.path), 3u);

    ResultStore absorbed;
    auto tier = exec::SharedTierFile::open(file.path);
    ASSERT_TRUE(tier.ok());
    EXPECT_EQ(tier.value()->refresh([&](std::string_view key,
                                        ResultStore::Fields fields) {
        EXPECT_TRUE(absorbed.insert(std::string(key), std::move(fields)));
    }),
              3u);
    EXPECT_EQ(readBytes(file.path), document);  // the tier only read

    const std::vector<std::pair<std::string, ResultStore::Fields>>
        expected = {{"k,1", {{"f\"q", 1.5}, {"plain", 2.0}}},
                    {"k3", {{"a,b", -0.0}}},
                    {"k5", {{"v", 7.0}}}};
    for (const ResultStore *store : {&loaded, &absorbed}) {
        EXPECT_EQ(store->size(), expected.size());
        for (const auto &[key, fields] : expected) {
            ResultStore::Payload out;
            ASSERT_TRUE(const_cast<ResultStore *>(store)->lookup(key, out))
                << key;
            EXPECT_EQ(*out, fields) << key;
        }
    }
    EXPECT_EQ(savedBytes(loaded, "gs_store_rows_a.csv"),
              savedBytes(absorbed, "gs_store_rows_b.csv"));
}

TEST(StoreRows, TierRefreshAtAnyCutNeverAbsorbsAWrongEntry)
{
    // The tier counterpart of the loadCsv truncation test: a reader
    // sees a file cut mid-row (a writer killed mid-append), then the
    // rest of the bytes. The entry in progress at the cut must be
    // held back, not absorbed partial, and absorbed whole once its
    // rows are complete.
    ScratchFile file("gs_tier_truncate.csv");
    std::map<std::string, ResultStore::Fields> expected;
    {
        ResultStore writer;
        ASSERT_TRUE(writer.attachSharedTier(file.path).ok());
        for (double seed : {1.5, 2.25, 31.125}) {
            const std::string key = "point|" + std::to_string(seed);
            writer.insert(key, sampleFields(seed));
            expected[key] = sampleFields(seed);
        }
    }
    const std::string document = readBytes(file.path);

    std::size_t cuts = 0;
    for (std::size_t cut = 1; cut < document.size(); ++cut) {
        // A cut exactly at a row boundary looks complete: out of
        // scope, as for loadCsv.
        if (document[cut - 1] == '\n')
            continue;
        ++cuts;
        writeBytes(file.path, document.substr(0, cut));
        auto tier = exec::SharedTierFile::open(file.path);
        ASSERT_TRUE(tier.ok());
        std::map<std::string, ResultStore::Fields> absorbed;
        auto sink = [&](std::string_view key, ResultStore::Fields fields) {
            const auto it = expected.find(std::string(key));
            ASSERT_NE(it, expected.end()) << key << " at cut " << cut;
            ASSERT_EQ(fields.size(), it->second.size())
                << "partial entry " << key << " at cut " << cut;
            for (std::size_t i = 0; i < fields.size(); ++i) {
                EXPECT_EQ(fields[i].first, it->second[i].first);
                EXPECT_TRUE(bitEqual(fields[i].second, it->second[i].second))
                    << "wrong value for " << key << " at cut " << cut;
            }
            absorbed[std::string(key)] = std::move(fields);
        };
        tier.value()->refresh(sink);
        {
            std::ofstream out(file.path, std::ios::binary | std::ios::app);
            out << document.substr(cut);
        }
        tier.value()->refresh(sink);
        EXPECT_EQ(absorbed.size(), expected.size()) << "at cut " << cut;
    }
    EXPECT_GT(cuts, 50u);
}

#if defined(__unix__) || defined(__APPLE__)

TEST(SharedTier, ForkedChildNeverPublishes)
{
    // The fork rule behind crash isolation: a child inheriting the
    // attachment reads the tier but its inserts stay local, so a
    // SIGKILLed worker cannot be holding the write lock mid-append.
    ScratchFile file("gs_tier_forkrule.csv");
    ResultStore store;
    ASSERT_TRUE(store.attachSharedTier(file.path).ok());
    store.insert("parent|key", sampleFields(1.0));

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        store.insert("child|key", sampleFields(2.0));
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    ResultStore fresh;
    ASSERT_TRUE(fresh.attachSharedTier(file.path).ok());
    ResultStore::Payload out;
    EXPECT_TRUE(fresh.lookup("parent|key", out));
    EXPECT_FALSE(fresh.lookup("child|key", out));
}

TEST(SharedTier, ConcurrentProcessesNeverTearOrDuplicateRows)
{
    // Four processes, each with its own attachment (so each *is* a
    // publisher), hammer one tier file. The flock discipline must
    // keep every key group whole and unique.
    constexpr int kWriters = 4;
    constexpr int kKeysPerWriter = 25;
    constexpr int kSharedKeys = 5;
    ScratchFile file("gs_tier_hammer.csv");

    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: a post-fork attachment makes this pid the
            // tier owner of its own store.
            ResultStore mine;
            if (!mine.attachSharedTier(file.path).ok())
                ::_exit(1);
            for (int k = 0; k < kKeysPerWriter; ++k) {
                mine.insert("w" + std::to_string(w) + "|k" +
                                std::to_string(k),
                            sampleFields(w * 100.0 + k));
            }
            // Contended keys: every writer computes the same value,
            // exactly one copy may land in the file.
            for (int k = 0; k < kSharedKeys; ++k) {
                mine.insert("common|k" + std::to_string(k),
                            sampleFields(k * 1.0));
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "writer process failed";
    }

    // Structural audit of the raw file: every line is a whole
    // 3-cell row (no test key needs quoting), every key group is
    // contiguous with the full field set, and no key repeats.
    std::ifstream in(file.path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "key,field,value");
    std::map<std::string, int> rows_per_key;
    std::vector<std::string> key_run_order;
    while (std::getline(in, line)) {
        std::istringstream cells(line);
        std::string key, field, value;
        ASSERT_TRUE(std::getline(cells, key, ','));
        ASSERT_TRUE(std::getline(cells, field, ','));
        ASSERT_TRUE(std::getline(cells, value)) << "torn row: "
                                                << line;
        EXPECT_FALSE(value.empty());
        char *end = nullptr;
        std::strtod(value.c_str(), &end);
        EXPECT_EQ(*end, '\0') << "unparsable value in: " << line;
        if (key_run_order.empty() || key_run_order.back() != key)
            key_run_order.push_back(key);
        ++rows_per_key[key];
    }
    EXPECT_FALSE(in.bad());

    // No key group was split by an interleaved writer...
    std::map<std::string, int> runs;
    for (const std::string &key : key_run_order)
        ++runs[key];
    for (const auto &[key, count] : runs)
        EXPECT_EQ(count, 1) << "key group split: " << key;
    // ...every key landed exactly once with all its fields...
    ASSERT_EQ(rows_per_key.size(),
              std::size_t(kWriters * kKeysPerWriter + kSharedKeys));
    for (const auto &[key, rows] : rows_per_key)
        EXPECT_EQ(rows, 3) << "partial group: " << key;

    // ...and the whole file round-trips through the plain loader
    // with bit-exact values.
    ResultStore verify;
    ASSERT_EQ(verify.loadCsv(file.path),
              std::size_t(kWriters * kKeysPerWriter + kSharedKeys));
    ResultStore::Payload out;
    ASSERT_TRUE(verify.lookup("w2|k7", out));
    ASSERT_EQ(out->size(), 3u);
    EXPECT_TRUE(bitEqual((*out)[0].second, (2 * 100.0 + 7) * 0.125));
    ASSERT_TRUE(verify.lookup("common|k3", out));
    EXPECT_TRUE(bitEqual((*out)[2].second, 3.0 * 1e-3));
}

#endif // unix
