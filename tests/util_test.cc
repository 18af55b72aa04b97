/**
 * @file
 * Unit tests for the util module: logging, RNG, strings, tables, CSV.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "util/arena.hh"
#include "util/atomicfile.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

// ---------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------

TEST(Logging, WarnIncrementsCounter)
{
    setQuiet(true);
    std::size_t before = warnCount();
    warn("test warning ", 42);
    EXPECT_EQ(warnCount(), before + 1);
    setQuiet(false);
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(panic("boom"), "boom");
}

TEST(Logging, PanicIfConditionFalseDoesNothing)
{
    panic_if(false, "must not fire");
    SUCCEED();
}

TEST(Logging, PanicIfConditionTrueAborts)
{
    EXPECT_DEATH(panic_if(1 + 1 == 2, "arith works"), "arith");
}

TEST(Logging, FatalExitsWithCode1)
{
    EXPECT_EXIT(fatal("bad config"),
                ::testing::ExitedWithCode(1), "bad config");
}

TEST(Logging, LogContextPrefixesNestAndUnwind)
{
    EXPECT_EQ(currentLogPrefix(), "");
    {
        LogContext conn("[conn 7]");
        EXPECT_EQ(currentLogPrefix(), "[conn 7] ");
        {
            LogContext req("[req 3]");
            EXPECT_EQ(currentLogPrefix(), "[conn 7] [req 3] ");
        }
        EXPECT_EQ(currentLogPrefix(), "[conn 7] ");
    }
    EXPECT_EQ(currentLogPrefix(), "");
}

TEST(Logging, LogContextIsThreadLocal)
{
    // Two threads' contexts never bleed into each other — that
    // isolation is what makes the mechanism lock-free.
    LogContext mine("[main]");
    std::string seen_inside, seen_after;
    std::thread other([&] {
        {
            LogContext theirs("[worker]");
            seen_inside = currentLogPrefix();
        }
        seen_after = currentLogPrefix();
    });
    other.join();
    EXPECT_EQ(seen_inside, "[worker] ");
    EXPECT_EQ(seen_after, "");
    EXPECT_EQ(currentLogPrefix(), "[main] ");
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, StringSeedStable)
{
    Rng a(std::string("workload:mi-sha"));
    Rng b(std::string("workload:mi-sha"));
    EXPECT_EQ(a.next(), b.next());
    Rng c(std::string("workload:mi-crc32"));
    Rng d(std::string("workload:mi-sha"));
    EXPECT_NE(c.next(), d.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all residues reachable
}

TEST(Rng, UniformIntZeroBoundPanics)
{
    Rng rng(1);
    EXPECT_DEATH(rng.uniformInt(0), "non-zero");
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sum_sq = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    double mean = sum / n;
    double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(17);
    double sum = 0.0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(19);
    int hits = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ForkIndependence)
{
    Rng parent(21);
    Rng child_a = parent.fork(1);
    Rng child_b = parent.fork(2);
    EXPECT_NE(child_a.next(), child_b.next());

    // Forking is deterministic.
    Rng parent2(21);
    Rng child_a2 = parent2.fork(1);
    Rng ref = Rng(21).fork(1);
    EXPECT_EQ(child_a2.next(), ref.next());
}

TEST(Rng, HashStringDiffers)
{
    EXPECT_NE(hashString("a"), hashString("b"));
    EXPECT_EQ(hashString("gemstone"), hashString("gemstone"));
    EXPECT_NE(hashString(""), hashString(" "));
}

// ---------------------------------------------------------------------
// strutil
// ---------------------------------------------------------------------

TEST(Strutil, SplitKeepsEmptyFields)
{
    auto fields = split("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(Strutil, SplitSingle)
{
    auto fields = split("abc", ',');
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "abc");
}

TEST(Strutil, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("\t\nz"), "z");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strutil, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("system.cpu.icache", "system.cpu"));
    EXPECT_FALSE(startsWith("cpu", "system.cpu"));
    EXPECT_TRUE(endsWith("overall_misses::total", "::total"));
    EXPECT_FALSE(endsWith("total", "::total"));
}

TEST(Strutil, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"only"}, "-"), "only");
}

TEST(Strutil, ToLower)
{
    EXPECT_EQ(toLower("Cortex-A15"), "cortex-a15");
}

TEST(Strutil, FormatDouble)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

TEST(Strutil, FormatRatioAdaptsPrecision)
{
    EXPECT_EQ(formatRatio(9.94), "9.9x");
    EXPECT_EQ(formatRatio(0.06), "0.060x");
    EXPECT_EQ(formatRatio(0.93), "0.93x");
}

TEST(Strutil, FormatPercent)
{
    EXPECT_EQ(formatPercent(-0.51), "-51.0%");
    EXPECT_EQ(formatPercent(0.033, 1), "3.3%");
}

namespace {

/** printf's "%.17g", the historical exact-double format. */
std::string
printfExact(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

TEST(Strutil, FormatExactDoubleMatchesPrintfOnEdgeValues)
{
    const double values[] = {0.0,
                             -0.0,
                             4.94e-324,
                             -4.94e-324,
                             DBL_MIN / 2.0,
                             DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             1e-5,
                             1e-4,
                             1e15,
                             1e16,
                             1e17,
                             1e21,
                             1.0,
                             -7.0,
                             123456789.0,
                             9007199254740993.0,
                             0.1,
                             1.0 / 3.0,
                             2.0000000000000004};
    for (double value : values)
        EXPECT_EQ(formatExactDouble(value), printfExact(value));
}

TEST(Strutil, FormatExactDoubleMatchesPrintfOnRandomBits)
{
    Rng rng(0xF0C4A75ULL);
    std::size_t checked = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t bits = rng.next();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof value);
        if (!std::isfinite(value))
            continue;
        ++checked;
        const std::string text = formatExactDouble(value);
        ASSERT_EQ(text, printfExact(value)) << "bits " << bits;
        double back = 1.0;
        ASSERT_TRUE(parseFiniteDouble(text, back)) << text;
        ASSERT_EQ(std::memcmp(&back, &value, sizeof value), 0) << text;
    }
    EXPECT_GT(checked, 99000u);
}

TEST(Strutil, AppendExactDoubleAppends)
{
    std::string out = "v=";
    appendExactDouble(out, 0.5);
    appendExactDouble(out, -2.0);
    EXPECT_EQ(out, "v=0.5-2");
}

TEST(Strutil, ParseFiniteDoubleAcceptSet)
{
    struct Case
    {
        const char *text;
        bool accepted;
        double value;
    };
    const Case cases[] = {
        // Plain decimal forms.
        {"1.25", true, 1.25},
        {"-0.5", true, -0.5},
        {"+3", true, 3.0},
        {"1.", true, 1.0},
        {".5", true, 0.5},
        {"1e5", true, 1e5},
        {"1E-5", true, 1e-5},
        {"0x10", true, 16.0},
        {"-0X1p-2", true, -0.25},
        // Leading whitespace is skipped, trailing is not.
        {"  7", true, 7.0},
        {"\t\n7", true, 7.0},
        {"7 ", false, 0.0},
        {" ", false, 0.0},
        // Signs: at most one, never alone.
        {"+-1", false, 0.0},
        {"--1", false, 0.0},
        {"-", false, 0.0},
        {"- 1", false, 0.0},
        // Empty and junk.
        {"", false, 0.0},
        {".", false, 0.0},
        {"1e", false, 0.0},
        {"1.5x", false, 0.0},
        {"0x", false, 0.0},
        {"abc", false, 0.0},
        // Non-finite spellings.
        {"inf", false, 0.0},
        {"-infinity", false, 0.0},
        {"nan", false, 0.0},
        {"NaN(1)", false, 0.0},
        // Overflow and underflow to zero.
        {"1e400", false, 0.0},
        {"-1.7976931348623159e308", false, 0.0},
        {"1e-400", false, 0.0},
        // Range edges that are representable, subnormals included.
        {"1.7976931348623157e308", true, DBL_MAX},
        {"2.2250738585072014e-308", true, DBL_MIN},
        {"1.1125369292536007e-308", true, DBL_MIN / 2.0},
        {"4.9406564584124654e-324", true, 4.94e-324},
        {"-4.9406564584124654e-324", true, -4.94e-324},
    };
    for (const Case &c : cases) {
        double value = 42.0;
        EXPECT_EQ(parseFiniteDouble(c.text, value), c.accepted)
            << "'" << c.text << "'";
        if (c.accepted) {
            EXPECT_EQ(std::memcmp(&value, &c.value, sizeof value), 0)
                << "'" << c.text << "'";
        } else {
            EXPECT_EQ(value, 42.0) << "'" << c.text << "' wrote out";
        }
    }
    double zero = 1.0;
    ASSERT_TRUE(parseFiniteDouble("-0", zero));
    EXPECT_TRUE(std::signbit(zero));
}

// ---------------------------------------------------------------------
// TextTable
// ---------------------------------------------------------------------

TEST(TextTable, AlignsColumns)
{
    TextTable t({"a", "bbbb"});
    t.addRow({"xx", "y"});
    std::string out = t.toString();
    EXPECT_NE(out.find("| a  | bbbb |"), std::string::npos);
    EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
}

TEST(TextTable, RowCountExcludesRules)
{
    TextTable t({"c"});
    t.addRow({"1"});
    t.addRule();
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, WrongWidthPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(TextTable, EmptyHeaderPanics)
{
    EXPECT_DEATH(TextTable({}), "at least one column");
}

// ---------------------------------------------------------------------
// CsvWriter
// ---------------------------------------------------------------------

TEST(Csv, BasicDocument)
{
    CsvWriter csv({"name", "value"});
    csv.addRow({"x", "1"});
    std::ostringstream os;
    csv.write(os);
    EXPECT_EQ(os.str(), "name,value\nx,1\n");
}

TEST(Csv, QuotesSpecialCharacters)
{
    auto quote = [](const std::string &field) {
        std::string out = "<";
        CsvWriter::appendQuoted(out, field);
        return out;
    };
    EXPECT_EQ(quote("plain"), "<plain");
    EXPECT_EQ(quote("a,b"), "<\"a,b\"");
    EXPECT_EQ(quote("say \"hi\""), "<\"say \"\"hi\"\"\"");
    EXPECT_EQ(quote("line\nbreak"), "<\"line\nbreak\"");
}

TEST(Csv, NumericRow)
{
    CsvWriter csv({"key", "v1", "v2"});
    csv.addNumericRow("w", {1.5, -2.0});
    std::ostringstream os;
    csv.write(os);
    EXPECT_NE(os.str().find("w,1.5"), std::string::npos);
}

TEST(Csv, MismatchedRowPanics)
{
    CsvWriter csv({"a", "b"});
    EXPECT_DEATH(csv.addRow({"1", "2", "3"}), "width mismatch");
}

// ---------------------------------------------------------------------
// CsvReader
// ---------------------------------------------------------------------

TEST(CsvReader, ParsesPlainDocument)
{
    std::istringstream is("a,b,c\n1,2,3\n4,5,6\n");
    CsvReader reader = CsvReader::parse(is);
    EXPECT_TRUE(reader.ok());
    EXPECT_EQ(reader.header(),
              (std::vector<std::string>{"a", "b", "c"}));
    ASSERT_EQ(reader.rowCount(), 2u);
    EXPECT_EQ(reader.cell(0, "b"), "2");
    EXPECT_EQ(reader.cell(1, "c"), "6");
}

TEST(CsvReader, RoundTripsWriterOutput)
{
    CsvWriter csv({"name", "note"});
    csv.addRow({"x,y", "say \"hi\""});
    csv.addRow({"multi\nline", "plain"});
    std::ostringstream os;
    csv.write(os);

    std::istringstream is(os.str());
    CsvReader reader = CsvReader::parse(is);
    ASSERT_TRUE(reader.ok());
    ASSERT_EQ(reader.rowCount(), 2u);
    EXPECT_EQ(reader.cell(0, "name"), "x,y");
    EXPECT_EQ(reader.cell(0, "note"), "say \"hi\"");
    EXPECT_EQ(reader.cell(1, "name"), "multi\nline");
}

TEST(CsvReader, HandlesCrlfAndMissingFinalNewline)
{
    std::istringstream is("a,b\r\n1,2\r\n3,4");
    CsvReader reader = CsvReader::parse(is);
    EXPECT_TRUE(reader.ok());
    ASSERT_EQ(reader.rowCount(), 2u);
    EXPECT_EQ(reader.cell(1, "b"), "4");
}

TEST(CsvReader, ReportsAnUnterminatedFinalRow)
{
    // Full arity but no trailing newline: accepted, and flagged so a
    // caller whose writer always ends rows with '\n' can call it torn.
    std::istringstream cut("a,b\n1,2\n3,4");
    CsvReader torn = CsvReader::parse(cut);
    EXPECT_TRUE(torn.ok());
    EXPECT_FALSE(torn.hasTruncatedTail());
    EXPECT_TRUE(torn.finalRowUnterminated());
    EXPECT_EQ(torn.rowCount(), 2u);

    std::istringstream whole("a,b\n1,2\n3,4\n");
    EXPECT_FALSE(CsvReader::parse(whole).finalRowUnterminated());

    // A trailing comment or a dropped partial record is not a row.
    std::istringstream comment("a,b\n1,2\n#note");
    EXPECT_FALSE(CsvReader::parse(comment).finalRowUnterminated());
    std::istringstream partial("a,b\n1,2\n3");
    CsvReader dropped = CsvReader::parse(partial);
    EXPECT_TRUE(dropped.hasTruncatedTail());
    EXPECT_FALSE(dropped.finalRowUnterminated());
}

TEST(CsvReader, UnescapesQuotedCellsInPlace)
{
    // Quoted cells shrink as their quotes go; every later cell must
    // still come back intact from the compacted buffer.
    CsvReader reader = CsvReader::parseText(
        "k,v\n\"a\"\"b\",\"x,\ny\"\nplain,\"\"\n\"\"\"\"\"\",tail\n");
    ASSERT_TRUE(reader.ok());
    ASSERT_EQ(reader.rowCount(), 3u);
    EXPECT_EQ(reader.cell(0, "k"), "a\"b");
    EXPECT_EQ(reader.cell(0, "v"), "x,\ny");
    EXPECT_EQ(reader.cell(1, "k"), "plain");
    EXPECT_EQ(reader.cell(1, "v"), "");
    EXPECT_EQ(reader.cell(2, "k"), "\"\"");
    EXPECT_EQ(reader.cell(2, std::size_t{1}), "tail");
}

TEST(CsvReader, ArityMismatchIsRowLevelError)
{
    std::istringstream is("a,b\n1,2\nonly-one\n3,4\n");
    CsvReader reader = CsvReader::parse(is);
    EXPECT_FALSE(reader.ok());
    ASSERT_EQ(reader.errors().size(), 1u);
    EXPECT_EQ(reader.errors()[0].line, 3u);  // the offending line
    // Good rows survive around the bad one.
    ASSERT_EQ(reader.rowCount(), 2u);
    EXPECT_EQ(reader.cell(1, "a"), "3");
}

TEST(CsvReader, StructuralQuoteErrors)
{
    std::istringstream stray("a\nval\"ue\n");
    EXPECT_FALSE(CsvReader::parse(stray).ok());

    // An unterminated quote that runs into EOF is indistinguishable
    // from a torn final write: it is tolerated as a truncated tail
    // rather than failing the document.
    std::istringstream unterminated("a\n\"open\n");
    CsvReader reader = CsvReader::parse(unterminated);
    EXPECT_TRUE(reader.ok());
    EXPECT_TRUE(reader.hasTruncatedTail());
    EXPECT_EQ(reader.rowCount(), 0u);

    std::istringstream trailing("a\n\"quoted\"junk\n");
    EXPECT_FALSE(CsvReader::parse(trailing).ok());
}

TEST(CsvReader, EmptyDocumentIsAnError)
{
    std::istringstream is("");
    CsvReader reader = CsvReader::parse(is);
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.rowCount(), 0u);
}

TEST(CsvReader, RequireColumnsReportsMissing)
{
    std::istringstream is("a,b\n1,2\n");
    CsvReader reader = CsvReader::parse(is);
    EXPECT_TRUE(reader.requireColumns({"a", "b"}));
    EXPECT_TRUE(reader.ok());
    EXPECT_FALSE(reader.requireColumns({"a", "missing"}));
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.columnIndex("missing"), CsvReader::npos);
}

TEST(CsvReader, NumericCellValidates)
{
    std::istringstream is("k,v\ngood,1.25\nbad,oops\ninf,inf\n");
    CsvReader reader = CsvReader::parse(is);
    ASSERT_TRUE(reader.ok());
    EXPECT_DOUBLE_EQ(reader.numericCell(0, "v"), 1.25);
    EXPECT_TRUE(reader.ok());
    EXPECT_DOUBLE_EQ(reader.numericCell(1, "v", -1.0), -1.0);
    EXPECT_DOUBLE_EQ(reader.numericCell(2, "v", -1.0), -1.0);
    EXPECT_EQ(reader.errors().size(), 2u);
    // Errors are anchored to the offending source lines.
    EXPECT_EQ(reader.errors()[0].line, 3u);
    EXPECT_EQ(reader.errors()[1].line, 4u);
}

TEST(CsvReader, MissingFileIsAnError)
{
    CsvReader reader =
        CsvReader::parseFile("/nonexistent/gemstone.csv");
    EXPECT_FALSE(reader.ok());
    ASSERT_EQ(reader.errors().size(), 1u);
    EXPECT_NE(reader.errorStrings()[0].find("cannot open"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// warnOnce / warnLimited
// ---------------------------------------------------------------------

TEST(Logging, WarnOnceFiresOncePerSite)
{
    setQuiet(true);
    std::size_t before = warnCount();
    for (int i = 0; i < 5; ++i)
        warnOnce("repeated condition ", i);
    EXPECT_EQ(warnCount(), before + 1);
    setQuiet(false);
}

TEST(Logging, WarnLimitedSuppressesAfterLimit)
{
    setQuiet(true);
    resetLimitedWarns();
    std::size_t before = warnCount();
    for (int i = 0; i < 10; ++i)
        warnLimited("util-test-key", 3, "noisy fault ", i);
    // Only the first three records were emitted...
    EXPECT_EQ(warnCount(), before + 3);
    // ...but every event was tallied.
    EXPECT_EQ(limitedWarnCount("util-test-key"), 10u);
    EXPECT_EQ(limitedWarnCount("never-seen"), 0u);

    // Independent keys do not share a budget.
    warnLimited("util-test-other", 3, "different stream");
    EXPECT_EQ(warnCount(), before + 4);

    resetLimitedWarns();
    EXPECT_EQ(limitedWarnCount("util-test-key"), 0u);
    setQuiet(false);
}

// ---------------------------------------------------------------------
// Atomic file durability
// ---------------------------------------------------------------------

TEST(AtomicFile, FsyncDirectoryOfExistingPaths)
{
    namespace fs = std::filesystem;
    // A file in a real directory: the parent can be synced.
    const std::string path =
        (fs::temp_directory_path() / "gs_util_fsync_dir.txt")
            .string();
    EXPECT_TRUE(fsyncDirectoryOf(path).ok());
    // A bare filename: the parent is the working directory.
    EXPECT_TRUE(fsyncDirectoryOf("bare_filename.csv").ok());
}

TEST(AtomicFile, FsyncDirectoryOfMissingDirectoryIsAnError)
{
    Status status = fsyncDirectoryOf(
        "/nonexistent_gs_dir_498213/file.csv");
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::IoError);
}

TEST(AtomicFile, WriteSurvivesTheDirectoryFsyncHardening)
{
    // atomicWriteFile now refuses to report success until the rename
    // is durable (parent directory fsynced); the happy path must be
    // unchanged: content lands, no .tmp remains.
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "gs_util_atomic_fsync.txt")
            .string();
    fs::remove(path);
    ASSERT_TRUE(atomicWriteFile(path, "payload\n").ok());
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "payload\n");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    fs::remove(path);
}

TEST(AtomicFile, TailRecoveryStillQuarantinesAfterHardening)
{
    // recoverCsvTail gained sidecar + directory fsyncs before the
    // destructive truncate; the recovery semantics must not move.
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "gs_util_torn_tail.csv")
            .string();
    fs::remove(path);
    fs::remove(path + ".corrupt");
    {
        std::ofstream out(path, std::ios::binary);
        out << "key,field,value\nk1,f,1.5\nk2,f,2.5\nk3,f,torn-no-newl";
    }
    Result<TailRecovery> recovered = recoverCsvTail(path);
    ASSERT_TRUE(recovered.ok());
    EXPECT_TRUE(recovered.value().recovered);
    EXPECT_EQ(recovered.value().quarantinedBytes,
              std::string("k3,f,torn-no-newl").size());

    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "key,field,value\nk1,f,1.5\nk2,f,2.5\n");
    std::ifstream sidecar(path + ".corrupt");
    std::string tail((std::istreambuf_iterator<char>(sidecar)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(tail, "k3,f,torn-no-newl\n");
    fs::remove(path);
    fs::remove(path + ".corrupt");
}

// ---------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------

TEST(Arena, ChunkGrowthChainsGeometricallyLargerChunks)
{
    Arena arena(256);
    // Construction is lazy: no chunk exists until the first request.
    EXPECT_EQ(arena.chunkCount(), 0u);
    EXPECT_EQ(arena.bytesReserved(), 0u);
    (void)arena.allocate(8, 8);
    EXPECT_EQ(arena.chunkCount(), 1u);
    std::size_t first_reserved = arena.bytesReserved();
    EXPECT_GE(first_reserved, 256u);

    // Overflow the first chunk: a new, larger chunk must be chained
    // and the allocation served from it, untruncated.
    auto *big = arena.allocArray<std::uint8_t>(first_reserved + 1);
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(arena.chunkCount(), 2u);
    EXPECT_GT(arena.bytesReserved(), first_reserved);
    big[first_reserved] = 0xab;  // last byte is writable

    // Keep overflowing: every growth step adds capacity monotonically.
    std::size_t prev_reserved = arena.bytesReserved();
    std::size_t prev_chunks = arena.chunkCount();
    (void)arena.allocArray<std::uint8_t>(arena.bytesReserved());
    EXPECT_GT(arena.chunkCount(), prev_chunks);
    EXPECT_GT(arena.bytesReserved(), prev_reserved);
}

TEST(Arena, ResetReusesChunksAndRezeroes)
{
    Arena arena(128);
    auto *a = arena.allocArray<std::uint64_t>(64);  // forces growth
    a[0] = 0xdeadbeef;
    a[63] = 0xfeedface;
    std::size_t chunks = arena.chunkCount();
    std::size_t reserved = arena.bytesReserved();
    EXPECT_GT(arena.bytesAllocated(), 0u);

    arena.reset();
    EXPECT_EQ(arena.bytesAllocated(), 0u);
    // reset() keeps the chunks — that is the whole point.
    EXPECT_EQ(arena.chunkCount(), chunks);
    EXPECT_EQ(arena.bytesReserved(), reserved);

    // The same fill pattern reuses the same storage, zeroed: recycled
    // memory must be indistinguishable from fresh memory.
    auto *b = arena.allocArray<std::uint64_t>(64);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(b[i], 0u) << "stale byte at " << i;
    EXPECT_EQ(arena.chunkCount(), chunks);
    EXPECT_EQ(arena.bytesReserved(), reserved);
}

TEST(Arena, AllocationsAreAligned)
{
    Arena arena(256);
    // Deliberately misalign the cursor with a 1-byte allocation
    // between every aligned request.
    for (std::size_t align : {2u, 4u, 8u, 16u, 32u, 64u}) {
        (void)arena.allocate(1, 1);
        void *p = arena.allocate(align, align);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
            << "align " << align;
    }
    struct alignas(32) Wide
    {
        double lanes[4];
    };
    Wide *w = arena.allocArray<Wide>(3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w) % alignof(Wide), 0u);
}

TEST(Arena, MallocTallyCountsNewAndDelete)
{
    if (!mallocTallyActive())
        GTEST_SKIP() << "counting operator new not linked "
                        "(sanitizer build)";

    MallocTallySnapshot before = mallocTally();
    constexpr std::size_t kBytes = 4096;
    // Call the operators directly: a new-expression / delete-expression
    // pair may legally be elided by the compiler, a direct operator
    // call may not.
    for (int i = 0; i < 10; ++i)
        ::operator delete(::operator new(kBytes));
    MallocTallySnapshot after = mallocTally();

    EXPECT_GE(after.allocs - before.allocs, 10u);
    EXPECT_GE(after.bytes - before.bytes, 10 * kBytes);
    EXPECT_GE(after.frees - before.frees, 10u);
}

TEST(Arena, SteadyStateArenaReuseMakesNoHeapAllocations)
{
    if (!mallocTallyActive())
        GTEST_SKIP() << "counting operator new not linked "
                        "(sanitizer build)";

    Arena arena(512);
    // Warm the arena to its steady-state chunk chain.
    (void)arena.allocArray<std::uint64_t>(400);
    arena.reset();

    MallocTallySnapshot before = mallocTally();
    for (int run = 0; run < 5; ++run) {
        auto *p = arena.allocArray<std::uint64_t>(400);
        p[0] = static_cast<std::uint64_t>(run);
        arena.reset();
    }
    MallocTallySnapshot after = mallocTally();
    EXPECT_EQ(after.allocs - before.allocs, 0u)
        << "arena reuse must not touch operator new";
}

TEST(SortedNameCursor, InOrderFastPathReorderedFallbackAndCompleteness)
{
    const std::vector<std::string_view> names = {"alpha", "beta",
                                                 "delta", "gamma"};
    SortedNameCursor cursor(names);
    EXPECT_FALSE(cursor.complete());
    // In table order, then out of order, then a miss.
    EXPECT_EQ(cursor.find("alpha"), 0u);
    EXPECT_EQ(cursor.find("beta"), 1u);
    EXPECT_EQ(cursor.find("gamma"), 3u);
    EXPECT_EQ(cursor.find("alpha"), 0u);
    EXPECT_EQ(cursor.find("beta"), 1u);
    EXPECT_EQ(cursor.find("epsilon"), SortedNameCursor::npos);
    EXPECT_EQ(cursor.find(""), SortedNameCursor::npos);
    EXPECT_EQ(cursor.find("zeta"), SortedNameCursor::npos);
    EXPECT_EQ(cursor.find("delta"), 2u);

    // Completeness counts distinct entries, not matches.
    for (std::size_t i : {0u, 1u, 1u, 3u})
        cursor.markPresent(i);
    EXPECT_FALSE(cursor.complete());
    cursor.markPresent(2);
    EXPECT_TRUE(cursor.complete());

    SortedNameCursor empty(std::span<const std::string_view>{});
    EXPECT_TRUE(empty.complete());
    EXPECT_EQ(empty.find("alpha"), SortedNameCursor::npos);
}
