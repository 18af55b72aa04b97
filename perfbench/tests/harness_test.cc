/**
 * @file
 * Self-tests of the benchmark harness: the arithmetic behind the
 * reported figures and the output check that counts failures.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "harness.hh"

using namespace perfbench;

namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = 1; i <= n; ++i)
        values.push_back(static_cast<double>(i));
    return values;
}

} // namespace

TEST(Percentile, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond)
{
    // Too few samples for any tail: the run states its count.
    EXPECT_FALSE(tailPercentile(ramp(10)).found);
    EXPECT_FALSE(tailPercentile(ramp(19)).found);

    // 20 samples: p50 is the 10th, with 10 beyond it.
    TailPercentile p50 = tailPercentile(ramp(20));
    ASSERT_TRUE(p50.found);
    EXPECT_EQ(p50.percentile, 50.0);
    EXPECT_EQ(p50.value, 10.0);

    // 40 samples: p75 is the 30th, 10 beyond; p90 would leave 4.
    TailPercentile p75 = tailPercentile(ramp(40));
    EXPECT_EQ(p75.percentile, 75.0);
    EXPECT_EQ(p75.value, 30.0);

    // 99 samples: p90 is the 90th with only 9 beyond, so p75.
    EXPECT_EQ(tailPercentile(ramp(99)).percentile, 75.0);

    // 100 samples: p90 is the 90th, exactly 10 beyond.
    TailPercentile p90 = tailPercentile(ramp(100));
    EXPECT_EQ(p90.percentile, 90.0);
    EXPECT_EQ(p90.value, 90.0);

    EXPECT_EQ(tailPercentile(ramp(1000)).percentile, 99.0);
    EXPECT_EQ(tailPercentile(ramp(10000)).percentile, 99.9);
}

TEST(ProcIo, ParsesAndDiffs)
{
    const std::string before = "rchar: 100\nwchar: 2000\nsyscr: 3\n"
                               "syscw: 40\nread_bytes: 0\n"
                               "write_bytes: 4096\n"
                               "cancelled_write_bytes: 0\n";
    const std::string after = "rchar: 150\nwchar: 23602000\nsyscr: 5\n"
                              "syscw: 1040\nread_bytes: 0\n"
                              "write_bytes: 8192\n"
                              "cancelled_write_bytes: 0\n";
    IoCounters a = parseProcIo(before);
    IoCounters b = parseProcIo(after);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.wchar, 2000u);
    EXPECT_EQ(a.syscw, 40u);

    IoCounters delta = ioDelta(a, b);
    ASSERT_TRUE(delta.ok);
    EXPECT_EQ(delta.wchar, 23600000u);
    EXPECT_EQ(delta.syscw, 1000u);

    // Counters never run backwards; a delta that does is rejected.
    EXPECT_FALSE(ioDelta(b, a).ok);
}

TEST(ProcIo, RejectsMalformedText)
{
    EXPECT_FALSE(parseProcIo("").ok);
    EXPECT_FALSE(parseProcIo("rchar: 1\nwchar: 2\nsyscr: 3\n").ok);
    EXPECT_FALSE(parseProcIo("wchar: \nsyscw: 4\n").ok);
    EXPECT_FALSE(
        parseProcIo("rchar: 1\nwchar: x\nsyscr: 3\nsyscw: 4\n").ok);
    EXPECT_FALSE(
        parseProcIo("rchar: 1\nwchar: -2\nsyscr: 3\nsyscw: 4\n").ok);
    EXPECT_FALSE(
        parseProcIo("rchar: 1\nwchar: 2z\nsyscr: 3\nsyscw: 4\n").ok);
}

TEST(ProcIo, ReadsThisProcess)
{
    IoCounters before = readProcIo();
    ASSERT_TRUE(before.ok);
    const std::string path = testing::TempDir() + "/io_probe";
    {
        std::ofstream out(path);
        out << std::string(5000, 'x');
    }
    IoCounters delta = ioDelta(before, readProcIo());
    ASSERT_TRUE(delta.ok);
    EXPECT_GE(delta.wchar, 5000u);
    EXPECT_GE(delta.syscw, 1u);
    std::filesystem::remove(path);
}

TEST(Spans, SelfTimeSubtractsChildrenOnce)
{
    // root [0,10] with children [1,4] and [3,6] (overlapping: 5 s
    // covered) and [8,9]; grandchild [1,2] under the first child.
    std::vector<Span> spans = {
        {"root", 0.0, 10.0, -1, 0},
        {"a", 1.0, 4.0, 0, 0},
        {"b", 3.0, 6.0, 0, 0},
        {"c", 8.0, 9.0, 0, 0},
        {"a.inner", 1.0, 2.0, 1, 0},
    };
    std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 6.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
    EXPECT_DOUBLE_EQ(childCover(spans, 0), 0.6);
}

TEST(Spans, ChildOutsideItsParentIsClipped)
{
    std::vector<Span> spans = {
        {"root", 2.0, 4.0, -1, 0},
        {"late", 3.0, 7.0, 0, 0},
    };
    EXPECT_DOUBLE_EQ(selfTimes(spans)[0], 1.0);
    EXPECT_DOUBLE_EQ(childCover(spans, 0), 0.5);
}

TEST(Spans, GraftReindexesUnderTheOpRoot)
{
    Tracer tracer;
    tracer.add({"earlier", 0.0, 1.0, -1, 7});
    int root = tracer.add({"op", 1.0, 5.0, -1, 3});
    std::vector<Span> child = {
        {"top", 1.5, 4.5, -1, 0},
        {"nested", 2.0, 3.0, 0, 0},
    };
    tracer.graft(child, root, 3);
    std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[2].parent, root);
    EXPECT_EQ(spans[3].parent, 2);
    EXPECT_EQ(spans[3].op, 3u);
    EXPECT_DOUBLE_EQ(childCover(spans, root), 0.75);
}

TEST(Spans, ScopeRecordsNothingWithoutTracer)
{
    SpanScope idle(nullptr, "x", -1, 0);
    EXPECT_EQ(idle.index(), -1);
    Tracer tracer;
    {
        SpanScope outer(&tracer, "outer", -1, 1);
        SpanScope inner(&tracer, "inner", outer.index(), 1);
    }
    std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_GE(spans[0].end, spans[1].end);
}

TEST(OutputCheck, FlippedByteCountsAsFailure)
{
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/perfbench_digest";
    fs::remove_all(dir);
    fs::create_directories(dir + "/out");
    const std::vector<std::string> names = {"stdout.txt",
                                            "out/validation.csv"};
    {
        std::ofstream(dir + "/stdout.txt") << "report text\n";
        std::ofstream(dir + "/out/validation.csv") << "a,b\n1,2\n";
    }
    const Digests reference = digestFiles(dir, names);
    EXPECT_NE(reference.at("stdout.txt"), "missing");

    OpTally tally;
    tally.record(mismatches(reference, digestFiles(dir, names)).empty());
    EXPECT_EQ(tally.failed, 0u);

    // Flip one bit of one byte of one artefact.
    {
        std::fstream file(dir + "/out/validation.csv",
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekg(5);
        char byte = 0;
        file.get(byte);
        file.seekp(5);
        file.put(static_cast<char>(byte ^ 0x01));
    }
    std::vector<std::string> bad =
        mismatches(reference, digestFiles(dir, names));
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0], "out/validation.csv");
    tally.record(bad.empty());
    EXPECT_EQ(tally.attempted, 2u);
    EXPECT_EQ(tally.failed, 1u);

    // A missing artefact is a mismatch too.
    fs::remove(dir + "/stdout.txt");
    EXPECT_EQ(mismatches(reference, digestFiles(dir, names)).size(), 2u);
    fs::remove_all(dir);
}

TEST(OutputCheck, DigestIsFnv1a)
{
    EXPECT_EQ(digest(""), "cbf29ce484222325");
    EXPECT_EQ(digest("a"), "af63dc4c8601ec8c");
    EXPECT_NE(digest("ab"), digest("ba"));
}

TEST(Child, ReportsOutputAndReapsTheProcess)
{
    ChildRun run = runInChild([] { return std::string("hello\n"); });
    EXPECT_TRUE(run.ok);
    EXPECT_EQ(run.output, "hello\n");
    EXPECT_GE(run.end, run.start);
    EXPECT_GT(run.rssMb, 0.0);

    ChildRun crashed = runInChild([]() -> std::string { ::_exit(3); });
    EXPECT_FALSE(crashed.ok);
    EXPECT_FALSE(crashed.error.empty());
}

TEST(Format, ExactKeepsEveryDigit)
{
    EXPECT_EQ(std::stod(exact(0.1 + 0.2)), 0.1 + 0.2);
    EXPECT_EQ(exact(1.5), "1.5");
}
