/**
 * @file
 * Tests of the execution engine: thread pool scheduling and
 * shutdown, task-graph ordering and failure semantics, and the
 * content-addressed result store.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>

#include <atomic>
#include <cfloat>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/resultstore.hh"
#include "exec/taskgraph.hh"
#include "exec/threadpool.hh"
#include "util/csv.hh"

using namespace gemstone;
using namespace gemstone::exec;

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

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The extremes of the double range that a store must carry. */
ResultStore::Fields
extremeFields()
{
    return {{"min_subnormal", 4.94e-324},
            {"half_dbl_min", DBL_MIN / 2.0},
            {"negative_zero", -0.0},
            {"dbl_max", DBL_MAX}};
}

} // namespace

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryPostedTask)
{
    constexpr int kTasks = 10000;
    std::atomic<int> done{0};
    {
        ThreadPool pool(4, /*queue_capacity=*/64);
        for (int i = 0; i < kTasks; ++i)
            pool.post([&done] { ++done; });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, DrainWaitsForAllQueuedWork)
{
    std::atomic<int> done{0};
    ThreadPool pool(3);
    for (int i = 0; i < 1000; ++i)
        pool.post([&done] { ++done; });
    pool.drain();
    EXPECT_EQ(done.load(), 1000);
}

TEST(ThreadPool, SubmitReturnsResultsThroughFutures)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    int sum = 0;
    for (auto &future : futures)
        sum += future.get();
    // Sum of squares 0..99.
    EXPECT_EQ(sum, 99 * 100 * 199 / 6);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto future = pool.submit([]() -> int {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(future.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, RecursiveSubmissionFromWorkersDoesNotDeadlock)
{
    // Tasks spawned from workers bypass the bounded injection queue,
    // so a tiny capacity cannot deadlock recursive fan-out.
    std::atomic<int> done{0};
    {
        ThreadPool pool(2, /*queue_capacity=*/2);
        for (int i = 0; i < 8; ++i) {
            pool.post([&pool, &done] {
                for (int j = 0; j < 50; ++j)
                    pool.post([&done] { ++done; });
                ++done;
            });
        }
    }
    EXPECT_EQ(done.load(), 8 * 51);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 500; ++i)
            pool.post([&done] { ++done; });
    }
    EXPECT_EQ(done.load(), 500);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

// ---------------------------------------------------------------------
// TaskGraph
// ---------------------------------------------------------------------

TEST(TaskGraph, SerialExecutionPicksLowestReadyId)
{
    TaskGraph graph;
    std::vector<int> order;
    auto note = [&order](int id) { return [&order, id] {
        order.push_back(id);
    }; };
    // Diamond: 0 -> {1, 2} -> 3, plus an independent 4.
    auto a = graph.add("a", note(0));
    auto b = graph.add("b", note(1), {a});
    auto c = graph.add("c", note(2), {a});
    graph.add("d", note(3), {b, c});
    graph.add("e", note(4));

    graph.runSerial();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGraph, ParallelRunRespectsDependencies)
{
    TaskGraph graph;
    std::atomic<bool> first_done{false};
    std::atomic<bool> order_ok{false};
    auto first = graph.add("first", [&] { first_done = true; });
    graph.add("second", [&] { order_ok = first_done.load(); },
              {first});

    ThreadPool pool(4);
    graph.run(pool);
    EXPECT_TRUE(order_ok.load());
}

TEST(TaskGraph, ManyIndependentNodesAllRun)
{
    TaskGraph graph;
    std::atomic<int> done{0};
    for (int i = 0; i < 2000; ++i)
        graph.add("n", [&done] { ++done; });
    ThreadPool pool(4);
    graph.run(pool);
    EXPECT_EQ(done.load(), 2000);
    for (TaskGraph::NodeId id = 0; id < 2000; ++id)
        EXPECT_TRUE(graph.succeeded(id));
}

TEST(TaskGraph, CycleIsDetectedBeforeAnythingRuns)
{
    TaskGraph graph;
    std::atomic<int> ran{0};
    auto a = graph.add("a", [&ran] { ++ran; });
    auto b = graph.add("b", [&ran] { ++ran; }, {a});
    graph.addEdge(b, a);  // back edge closes the cycle

    EXPECT_TRUE(graph.hasCycle());
    EXPECT_THROW(graph.runSerial(), std::logic_error);
    EXPECT_EQ(ran.load(), 0);

    ThreadPool pool(2);
    EXPECT_THROW(graph.run(pool), std::logic_error);
    EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGraph, FailedNodeSkipsDependentsAndRethrows)
{
    TaskGraph graph;
    std::atomic<int> ran{0};
    auto bad = graph.add("bad", [] {
        throw std::runtime_error("node failed");
    });
    auto child = graph.add("child", [&ran] { ++ran; }, {bad});
    auto grandchild =
        graph.add("grandchild", [&ran] { ++ran; }, {child});
    auto bystander = graph.add("bystander", [&ran] { ++ran; });

    EXPECT_THROW(graph.runSerial(), std::runtime_error);
    EXPECT_EQ(ran.load(), 1);  // only the bystander
    EXPECT_FALSE(graph.succeeded(bad));
    EXPECT_TRUE(graph.skipped(child));
    EXPECT_TRUE(graph.skipped(grandchild));
    EXPECT_TRUE(graph.succeeded(bystander));
}

TEST(TaskGraph, LowestIdErrorWinsAtAnyThreadCount)
{
    // Two failing nodes: the reported exception must come from the
    // lower id, serial or parallel.
    for (unsigned threads : {0u, 2u, 4u}) {
        TaskGraph graph;
        graph.add("early", [] {
            throw std::runtime_error("early");
        });
        graph.add("late", [] {
            throw std::logic_error("late");
        });
        try {
            if (threads == 0) {
                graph.runSerial();
            } else {
                ThreadPool pool(threads);
                graph.run(pool);
            }
            FAIL() << "expected a rethrown node error";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "early");
        } catch (const std::logic_error &) {
            FAIL() << "higher-id error reported";
        }
    }
}

TEST(TaskGraph, RunWithJobsMatchesSerialAndParallel)
{
    // jobs <= 1 runs inline in id order; more jobs run on a pool.
    for (unsigned jobs : {0u, 1u, 3u}) {
        TaskGraph graph;
        std::vector<int> order;
        std::mutex order_mutex;
        auto record = [&](int id) {
            return [&, id] {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(id);
            };
        };
        auto root = graph.add("root", record(0));
        graph.add("left", record(1), {root});
        graph.add("right", record(2), {root});
        graph.runWithJobs(jobs, CancellationToken());
        ASSERT_EQ(order.size(), 3u) << "jobs=" << jobs;
        EXPECT_EQ(order.front(), 0) << "jobs=" << jobs;
        if (jobs <= 1) {
            EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
        }
    }
}

// ---------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------

TEST(ResultStore, Fnv1aMatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(ResultStore::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(ResultStore::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(ResultStore::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(ResultStore, HitAfterInsertMissBefore)
{
    ResultStore store(8);
    ResultStore::Payload out;
    EXPECT_FALSE(store.lookup("k1", out));
    store.insert("k1", {{"x", 1.5}, {"y", -2.0}});
    ASSERT_TRUE(store.lookup("k1", out));
    ASSERT_EQ(out->size(), 2u);
    EXPECT_EQ((*out)[0].first, "x");
    EXPECT_DOUBLE_EQ((*out)[0].second, 1.5);
    EXPECT_EQ((*out)[1].first, "y");

    ResultStore::Stats stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultStore, ContainsIsStatsNeutral)
{
    ResultStore store(8);
    EXPECT_FALSE(store.contains("k1"));
    store.insert("k1", {{"x", 1.5}});
    EXPECT_TRUE(store.contains("k1"));
    EXPECT_FALSE(store.contains("k2"));

    ResultStore::Stats stats = store.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultStore, ContainsLeavesLruOrderAlone)
{
    ResultStore store(2);
    store.insert("a", {{"v", 1.0}});
    store.insert("b", {{"v", 2.0}});
    // A lookup of "a" would save it; contains() must not.
    EXPECT_TRUE(store.contains("a"));
    store.insert("c", {{"v", 3.0}});
    EXPECT_FALSE(store.contains("a"));
    EXPECT_TRUE(store.contains("b"));
    EXPECT_TRUE(store.contains("c"));
}

TEST(ResultStore, LruEvictionDropsColdestEntry)
{
    ResultStore store(2);
    store.insert("a", {{"v", 1.0}});
    store.insert("b", {{"v", 2.0}});
    // Touch "a" so "b" is the LRU victim.
    ResultStore::Payload out;
    ASSERT_TRUE(store.lookup("a", out));
    store.insert("c", {{"v", 3.0}});

    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.lookup("a", out));
    EXPECT_FALSE(store.lookup("b", out));
    EXPECT_TRUE(store.lookup("c", out));
    EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(ResultStore, CsvPersistenceRoundTripsBitExactly)
{
    ScratchFile file("gs_resultstore_roundtrip_test.csv");

    // Values chosen to break any lossy formatting: non-terminating
    // binary fractions, denormal-adjacent magnitudes, negatives.
    ResultStore::Fields fields = {{"third", 1.0 / 3.0},
                                  {"tiny", 1.2345678912345e-301},
                                  {"huge", 9.87654321e300},
                                  {"neg", -0.1}};
    ResultStore store(16);
    store.insert("point|a", fields);
    store.insert("point|b", {{"v", 2.0000000000000004}});
    ASSERT_TRUE(store.saveCsv(file.path).ok());

    ResultStore restored(16);
    EXPECT_EQ(restored.loadCsv(file.path), 2u);
    ResultStore::Payload out;
    ASSERT_TRUE(restored.lookup("point|a", out));
    ASSERT_EQ(out->size(), fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
        EXPECT_EQ((*out)[i].first, fields[i].first);
        // Bit-exact, not approximately equal.
        EXPECT_EQ((*out)[i].second, fields[i].second);
    }
    ASSERT_TRUE(restored.lookup("point|b", out));
    EXPECT_EQ((*out)[0].second, 2.0000000000000004);
}

TEST(ResultStore, CsvPersistenceCarriesSubnormalsAndExtremes)
{
    // formatExactDouble writes subnormals, so the loader must take
    // them back rather than reject the value and drop the entry.
    ScratchFile file("gs_resultstore_extremes_test.csv");
    ResultStore store(4);
    store.insert("point|extremes", extremeFields());
    ASSERT_TRUE(store.saveCsv(file.path).ok());

    ResultStore restored(4);
    ASSERT_EQ(restored.loadCsv(file.path), 1u);
    ResultStore::Payload out;
    ASSERT_TRUE(restored.lookup("point|extremes", out));
    const ResultStore::Fields expected = extremeFields();
    ASSERT_EQ(out->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ((*out)[i].first, expected[i].first);
        EXPECT_TRUE(bitEqual((*out)[i].second, expected[i].second))
            << expected[i].first;
    }
}

TEST(ResultStore, TruncationAtAnyOffsetNeverLoadsAWrongEntry)
{
    // Every value has digits to lose, so a cut inside a number
    // changes it ("1.5" -> "1") while still parsing.
    ResultStore store(8);
    store.insert("point|a", {{"x", 1.5}, {"y", 2.25}, {"z", 1e-7}});
    store.insert("point|b", {{"x", 31.125}, {"y", -0.5}});
    store.insert("point|c", {{"only", 123456.75}});
    ScratchFile file("gs_resultstore_truncate_test.csv");
    ASSERT_TRUE(store.saveCsv(file.path).ok());
    std::ifstream in(file.path, std::ios::binary);
    const std::string document((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    ASSERT_EQ(ResultStore(8).loadCsv(file.path), 3u);

    const std::vector<std::string> keys = {"point|a", "point|b",
                                           "point|c"};
    std::size_t cuts = 0;
    for (std::size_t cut = 1; cut < document.size(); ++cut) {
        // A cut exactly at a row boundary of a marker-less file is
        // indistinguishable from a complete file: out of scope.
        if (document[cut - 1] == '\n')
            continue;
        ++cuts;
        {
            std::ofstream out(file.path,
                              std::ios::binary | std::ios::trunc);
            out << document.substr(0, cut);
        }
        ResultStore torn(8);
        torn.loadCsv(file.path);
        for (const std::string &key : keys) {
            ResultStore::Payload loaded;
            if (!torn.lookup(key, loaded))
                continue;
            ResultStore::Payload saved;
            ASSERT_TRUE(store.lookup(key, saved));
            ASSERT_EQ(loaded->size(), saved->size())
                << "partial entry " << key << " at cut " << cut;
            for (std::size_t i = 0; i < saved->size(); ++i) {
                EXPECT_EQ((*loaded)[i].first, (*saved)[i].first);
                EXPECT_TRUE(bitEqual((*loaded)[i].second, (*saved)[i].second))
                    << "wrong value for " << key << " at cut " << cut;
            }
        }
    }
    EXPECT_GT(cuts, 50u);
}

TEST(ResultStore, MissingFileLoadsNothing)
{
    ResultStore store(4);
    EXPECT_EQ(store.loadCsv("/nonexistent/gs_store.csv"), 0u);
    EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------------------
// ResultStore: a clean save writes nothing
// ---------------------------------------------------------------------

namespace {

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

struct stat
statOf(const std::string &path)
{
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return st;
}

/** True when @p path is still the very file version @p before saw. */
bool
untouched(const std::string &path, const struct stat &before)
{
    const struct stat now = statOf(path);
    return now.st_ino == before.st_ino &&
        now.st_mtim.tv_sec == before.st_mtim.tv_sec &&
        now.st_mtim.tv_nsec == before.st_mtim.tv_nsec;
}

ResultStore::Fields
fieldsFor(double seed)
{
    return {{"x", seed + 0.5}, {"y", seed * 1e-3}, {"z", -seed}};
}

/** Three entries, saved sorted: point|a, point|b, point|c. */
void
fillThree(ResultStore &store)
{
    store.insert("point|b", fieldsFor(2.0));
    store.insert("point|a", fieldsFor(1.0));
    store.insert("point|c", fieldsFor(3.0));
}

/** The bytes saveCsv() of @p store writes to a file of its own. */
std::string
freshSaveBytes(const ResultStore &store)
{
    ScratchFile fresh("gs_resultstore_fresh_save.csv");
    EXPECT_TRUE(store.saveCsv(fresh.path).ok());
    return readBytes(fresh.path);
}

/** The marker line saveCsv() ends a file with. */
const std::string kMarkerLine = std::string(kCsvIntegrityMarker) + "\n";

} // namespace

TEST(ResultStoreCleanSave, CleanLoadThenSaveLeavesTheFileUntouched)
{
    ScratchFile file("gs_resultstore_clean.csv");
    {
        ResultStore original(8);
        fillThree(original);
        ASSERT_TRUE(original.saveCsv(file.path).ok());
    }
    const std::string bytes = readBytes(file.path);
    const struct stat before = statOf(file.path);

    ResultStore store(8);
    ASSERT_EQ(store.loadCsv(file.path), 3u);
    ResultStore::Payload hit;
    ASSERT_TRUE(store.lookup("point|a", hit));  // a hit changes nothing
    ASSERT_TRUE(store.saveCsv(file.path).ok());
    EXPECT_TRUE(untouched(file.path, before));
    EXPECT_EQ(readBytes(file.path), bytes);
    EXPECT_EQ(freshSaveBytes(store), bytes);
}

TEST(ResultStoreCleanSave, ASaveRecordsItsFileSoTheNextCleanSaveIsSkipped)
{
    ScratchFile file("gs_resultstore_resave.csv");
    ResultStore store(8);
    fillThree(store);
    ASSERT_TRUE(store.saveCsv(file.path).ok());
    const struct stat before = statOf(file.path);
    ASSERT_TRUE(store.saveCsv(file.path).ok());
    EXPECT_TRUE(untouched(file.path, before));

    store.insert("point|d", fieldsFor(4.0));
    ASSERT_TRUE(store.saveCsv(file.path).ok());
    EXPECT_FALSE(untouched(file.path, before));
    EXPECT_EQ(readBytes(file.path), freshSaveBytes(store));
}

namespace {

/**
 * Load @p document from a file into @p store, apply @p between, save
 * back to the same file and expect a rewrite to the bytes a fresh
 * save of the store writes, which differ from the file before the
 * save.
 */
template <typename Between>
void
expectRewrite(ResultStore &store, const std::string &document,
              Between between, const char *why)
{
    ScratchFile file("gs_resultstore_rewrite.csv");
    writeBytes(file.path, document);
    store.loadCsv(file.path);
    between(file.path);
    // Skipping the save would leave these bytes in place.
    const std::string stale = readBytes(file.path);
    ASSERT_TRUE(store.saveCsv(file.path).ok()) << why;
    const std::string fresh = freshSaveBytes(store);
    EXPECT_EQ(readBytes(file.path), fresh) << why;
    EXPECT_NE(fresh, stale) << why;
}

std::string
savedThree()
{
    ScratchFile file("gs_resultstore_three.csv");
    ResultStore store(8);
    fillThree(store);
    EXPECT_TRUE(store.saveCsv(file.path).ok());
    return readBytes(file.path);
}

} // namespace

TEST(ResultStoreCleanSave, EveryChangeSinceTheLoadRewritesTheFile)
{
    const std::string canonical = savedThree();
    const auto nothing = [](const std::string &) {};
    {
        ResultStore store(8);
        expectRewrite(store, canonical, [&](const std::string &) {
            store.insert("point|d", fieldsFor(4.0));
        }, "insert after the load");
    }
    {
        // Capacity 2: loading three entries evicts one.
        ResultStore store(2);
        expectRewrite(store, canonical, nothing, "eviction");
        EXPECT_EQ(store.size(), 2u);
    }
    {
        ResultStore store(8);
        store.insert("point|0", fieldsFor(0.0));
        expectRewrite(store, canonical, nothing,
                      "load into a non-empty store");
        EXPECT_EQ(store.size(), 4u);
    }
    {
        ResultStore store(8);
        store.insert("point|0", fieldsFor(0.0));
        store.clear();
        // Cleared before the load: the store was empty, so this load
        // is clean; a clear() after it is not.
        expectRewrite(store, canonical, [&](const std::string &) {
            store.clear();
        }, "clear after the load");
    }
}

TEST(ResultStoreCleanSave, ANonCanonicalFileIsRewritten)
{
    const std::string canonical = savedThree();
    ASSERT_EQ(canonical.substr(canonical.size() - kMarkerLine.size()),
              kMarkerLine);
    const std::string rows =
        canonical.substr(0, canonical.size() - kMarkerLine.size());
    const std::string header = "key,field,value\n";
    const auto nothing = [](const std::string &) {};

    ResultStore marker_less(8);
    expectRewrite(marker_less, rows, nothing, "no marker");
    EXPECT_EQ(marker_less.size(), 3u);

    ResultStore torn(8);
    expectRewrite(torn, rows.substr(0, rows.size() - 3), nothing,
                  "torn final row");
    EXPECT_EQ(torn.size(), 2u);

    // Rows appended after the marker (a shared tier attached to a
    // saved store), the last one torn: it takes the entry before it,
    // which may be missing rows, with it.
    ResultStore torn_after_marker(8);
    expectRewrite(torn_after_marker,
                  canonical + "point|d,v,1\npoint|e,v,2", nothing,
                  "torn row after the marker");
    EXPECT_EQ(torn_after_marker.size(), 3u);

    ResultStore unsorted(8);
    expectRewrite(unsorted,
                  header + "point|b,v,2\npoint|a,v,1\n" + kMarkerLine,
                  nothing, "unsorted keys");
    EXPECT_EQ(unsorted.size(), 2u);

    ResultStore duplicated(8);
    expectRewrite(duplicated,
                  header + "point|a,v,1\npoint|b,v,2\npoint|a,v,3\n" +
                      kMarkerLine,
                  nothing, "duplicate keys");
    ResultStore::Payload out;
    ASSERT_TRUE(duplicated.lookup("point|a", out));
    EXPECT_EQ((*out)[0].second, 3.0);

    ResultStore poisoned(8);
    expectRewrite(poisoned,
                  header + "point|a,v,1\npoint|b,v,x\n" + kMarkerLine,
                  nothing, "malformed value");
    EXPECT_EQ(poisoned.size(), 1u);
}

TEST(ResultStoreCleanSave, AFileChangedSinceTheLoadIsRewritten)
{
    const std::string canonical = savedThree();
    {
        // Replaced by another store's file: a new inode.
        ResultStore store(8);
        expectRewrite(store, canonical, [](const std::string &path) {
            ResultStore other(8);
            other.insert("point|z", fieldsFor(9.0));
            ASSERT_TRUE(other.saveCsv(path).ok());
        }, "file replaced");
    }
    {
        // Edited in place to the same size, then touched: the same
        // inode and size, a new mtime.
        ResultStore store(8);
        expectRewrite(store, canonical, [&](const std::string &path) {
            std::string edited = canonical;
            const std::size_t at = edited.find(",1.5\n");
            ASSERT_NE(at, std::string::npos);
            edited[at + 1] = '7';
            {
                std::fstream out(path, std::ios::binary | std::ios::in |
                                           std::ios::out);
                out.write(edited.data(),
                          static_cast<std::streamsize>(edited.size()));
            }
            const struct timespec times[2] = {{1000000000, 0},
                                              {1000000000, 0}};
            ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
        }, "file touched");
    }
}

TEST(ResultStoreCleanSave, ASaveToAnotherFileAlwaysWrites)
{
    ScratchFile file("gs_resultstore_source.csv");
    ScratchFile copy("gs_resultstore_copy.csv");
    const std::string canonical = savedThree();
    writeBytes(file.path, canonical);
    writeBytes(copy.path, canonical);
    const struct stat copy_before = statOf(copy.path);

    ResultStore store(8);
    ASSERT_EQ(store.loadCsv(file.path), 3u);
    // Same bytes, another file: still written.
    ASSERT_TRUE(store.saveCsv(copy.path).ok());
    EXPECT_FALSE(untouched(copy.path, copy_before));
    EXPECT_EQ(readBytes(copy.path), canonical);

    ScratchFile absent("gs_resultstore_absent.csv");
    ASSERT_TRUE(store.saveCsv(absent.path).ok());
    EXPECT_EQ(readBytes(absent.path), canonical);
}

TEST(ResultStore, LoadDecodesEntriesAcrossReadChunks)
{
    // Files are read in chunks of about 1 MiB: entries straddling a
    // chunk boundary, and a row longer than a chunk, must decode as
    // if read whole.
    ResultStore store(4096);
    for (int e = 0; e < 1500; ++e) {
        ResultStore::Fields fields;
        for (int f = 0; f < 40; ++f)
            fields.emplace_back("field_" + std::to_string(f),
                                e * 1000.0 + f + 1.0 / 3.0);
        store.insert("entry|" + std::to_string(e), std::move(fields));
    }
    store.insert("entry|long", {{std::string(3u << 20, 'n'), 1.5}});
    ScratchFile file("gs_resultstore_chunks.csv");
    ASSERT_TRUE(store.saveCsv(file.path).ok());
    const std::string bytes = readBytes(file.path);
    ASSERT_GT(bytes.size(), 5u << 20);

    ResultStore restored(4096);
    ASSERT_EQ(restored.loadCsv(file.path), 1501u);
    EXPECT_EQ(freshSaveBytes(restored), bytes);
}

TEST(ResultStore, KeysAndFieldNamesWithANewlineAreRejected)
{
    // A store row is one line, so a newline cannot round-trip.
    ResultStore store(8);
    EXPECT_FALSE(store.insert("point\n|a", {{"v", 1.0}}));
    EXPECT_FALSE(store.insert("point|a", {{"v", 1.0}, {"bad\nname", 2.0}}));
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains("point\n|a"));
    EXPECT_FALSE(store.contains("point|a"));

    // Quotes, commas and a carriage return do round-trip.
    const std::string key = "point|\"q\",r\r";
    const ResultStore::Fields fields = {{"a,\"b\"", 1.5}, {"c\r", -2.0}};
    ASSERT_TRUE(store.insert(key, fields));
    ScratchFile file("gs_resultstore_quoting.csv");
    ASSERT_TRUE(store.saveCsv(file.path).ok());
    ResultStore restored(8);
    ASSERT_EQ(restored.loadCsv(file.path), 1u);
    ResultStore::Payload out;
    ASSERT_TRUE(restored.lookup(key, out));
    EXPECT_EQ(*out, fields);
}

TEST(ResultStore, ConcurrentMixedUseIsConsistent)
{
    ResultStore store(4096);
    {
        ThreadPool pool(4);
        for (int t = 0; t < 8; ++t) {
            pool.post([&store, t] {
                ResultStore::Payload out;
                for (int i = 0; i < 500; ++i) {
                    std::string key =
                        "k" + std::to_string(i % 64);
                    if (!store.lookup(key, out)) {
                        store.insert(
                            key,
                            {{"v", static_cast<double>(i % 64)}});
                    }
                }
                (void)t;
            });
        }
    }
    // Every surviving entry must carry its own key's value.
    ResultStore::Payload out;
    for (int i = 0; i < 64; ++i) {
        std::string key = "k" + std::to_string(i);
        ASSERT_TRUE(store.lookup(key, out));
        EXPECT_DOUBLE_EQ((*out)[0].second, static_cast<double>(i));
    }
}

TEST(ResultStore, LookedUpPayloadSurvivesOverwriteAndEviction)
{
    ResultStore store(2);
    store.insert("a", {{"v", 1.0}, {"w", 2.0}});
    ResultStore::Payload held;
    ASSERT_TRUE(store.lookup("a", held));

    // Overwriting the key replaces the payload; the held one is
    // untouched.
    store.insert("a", {{"v", 10.0}});
    ResultStore::Payload fresh;
    ASSERT_TRUE(store.lookup("a", fresh));
    ASSERT_EQ(fresh->size(), 1u);
    EXPECT_EQ((*fresh)[0].second, 10.0);
    ASSERT_EQ(held->size(), 2u);
    EXPECT_EQ((*held)[0].first, "v");
    EXPECT_EQ((*held)[0].second, 1.0);
    EXPECT_EQ((*held)[1].second, 2.0);

    // Evict "a" past capacity: both payloads outlive their entry.
    store.insert("b", {{"v", 3.0}});
    store.insert("c", {{"v", 4.0}});
    EXPECT_FALSE(store.contains("a"));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ((*held)[1].second, 2.0);
    EXPECT_EQ((*fresh)[0].second, 10.0);
    store.clear();
    EXPECT_EQ((*held)[0].second, 1.0);
}

TEST(ResultStore, ConcurrentLookupInsertEvictStress)
{
    // Far more keys than capacity, so hits race with overwrites and
    // evictions of the very entries being read. Every payload a
    // reader gets must be a complete, consistent one for its key.
    constexpr int kKeys = 48;
    ResultStore store(16);
    auto payloadFor = [](int k, int version) {
        ResultStore::Fields fields;
        for (int f = 0; f < 8; ++f)
            fields.emplace_back("f" + std::to_string(f), k * 1000.0 + f);
        fields.emplace_back("version", static_cast<double>(version));
        return fields;
    };
    std::atomic<int> bad{0};
    std::atomic<int> hits{0};
    {
        ThreadPool pool(4);
        for (int t = 0; t < 8; ++t) {
            pool.post([&, t] {
                ResultStore::Payload held;
                for (int i = 0; i < 4000; ++i) {
                    const int k = (i * 7 + t * 13) % kKeys;
                    const std::string key = "k" + std::to_string(k);
                    ResultStore::Payload got;
                    if (store.lookup(key, got)) {
                        ++hits;
                        bool ok = got->size() == 9;
                        for (int f = 0; ok && f < 8; ++f)
                            ok = (*got)[f].second == k * 1000.0 + f;
                        if (!ok)
                            ++bad;
                        if (i % 5 == 0)
                            held = got;  // outlives later evictions
                    } else {
                        store.insert(key, payloadFor(k, i));
                    }
                    if (i % 3 == 0)
                        store.insert(key, payloadFor(k, -i));
                }
                if (held && held->size() != 9)
                    ++bad;
            });
        }
    }
    EXPECT_EQ(bad.load(), 0);
    EXPECT_GT(hits.load(), 0);
    EXPECT_LE(store.size(), 16u);
    EXPECT_GT(store.stats().evictions, 0u);
}
