/**
 * @file
 * Measurement helpers of the GemStone end-to-end benchmark.
 *
 * Everything here is independent of the program under test, so the
 * self-tests (tests/harness_test.cc) can check the arithmetic the
 * benchmark's reported figures rest on: the tail-percentile rule,
 * /proc/self/io deltas, span self times and top-level cover, and the
 * artefact digests every operation is checked against.
 */

#ifndef GEMSTONE_PERFBENCH_HARNESS_HH
#define GEMSTONE_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** CLOCK_MONOTONIC in seconds; comparable across fork(). */
double nowSeconds();

/** User + system CPU time of every thread of this process. */
double processCpuSeconds();

/** What a forked child reported and cost. */
struct ChildRun
{
    /** The child exited normally with status 0. */
    bool ok = false;
    /** Why not ok. */
    std::string error;
    /** What the child's body returned. */
    std::string output;
    double start = 0.0;  //!< just before fork()
    double end = 0.0;    //!< once the child has been reaped
    double cpu = 0.0;    //!< the child's user + system CPU seconds
    double rssMb = 0.0;  //!< the child's peak resident set, MB
};

/**
 * Fork; the child runs @p body, writes the returned bytes to a pipe
 * and exits with _exit(0). The parent reads everything, reaps the
 * child and returns. Call only while this process has no other
 * threads.
 */
ChildRun runInChild(const std::function<std::string()> &body);

/** Median (mean of the middle two for an even count); 0 if empty. */
double median(std::vector<double> values);

/** A tail percentile chosen by the sample count. */
struct TailPercentile
{
    bool found = false;
    double percentile = 0.0;  //!< e.g. 90 for p90
    double value = 0.0;
};

/**
 * The highest of p50/p75/p90/p95/p99/p99.9 that has at least ten
 * samples beyond it (nearest-rank definition: the p-th percentile is
 * the ceil(p/100 * n)-th smallest sample, and the samples beyond it
 * are the n - rank larger ones). found == false when even p50 has
 * fewer than ten samples beyond it; report the sample count instead.
 */
TailPercentile tailPercentile(std::vector<double> samples);

/** The write counters of /proc/<pid>/io. */
struct IoCounters
{
    bool ok = false;
    std::uint64_t wchar = 0;   //!< bytes handed to write(2) and kin
    std::uint64_t syscw = 0;   //!< write-family system calls
};

/** Parse the text of /proc/<pid>/io; ok is false if wchar or syscw
 *  is missing or malformed. */
IoCounters parseProcIo(std::string_view text);

/** Read /proc/self/io (the whole process, every thread). */
IoCounters readProcIo();

/** Counter growth from @p before to @p after; not ok unless both
 *  reads were ok and no counter went backwards. */
IoCounters ioDelta(const IoCounters &before, const IoCounters &after);

/** One timed call into a layer. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span in the same list; -1 for a root. */
    int parent = -1;
    /** Operation the span belongs to. */
    std::uint64_t op = 0;

    double duration() const { return end - start; }
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover (overlapping children
 * count once).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Share of span @p root's duration covered by its direct
 *  children; 0 for an empty root. */
double childCover(const std::vector<Span> &spans, int root);

/**
 * In-memory span store. Spans are recorded from any thread and only
 * read once the run has ended.
 */
class Tracer
{
  public:
    /** Start a span now; returns its index. */
    int open(std::string name, int parent, std::uint64_t op);

    /** End span @p index now. */
    void close(int index);

    /** Append a finished span; returns its index. */
    int add(Span span);

    /** Append @p child's spans (whose parent indices are local to
     *  @p child, -1 for its roots) under span @p parent, tagged with
     *  operation @p op. */
    void graft(const std::vector<Span> &child, int parent,
               std::uint64_t op);

    std::vector<Span> spans() const;

    /** A fresh operation id. */
    std::uint64_t nextOp();

  private:
    mutable std::mutex mutex;
    std::vector<Span> list;
    std::uint64_t ops = 0;
};

/** A span open for the lifetime of the scope; does nothing when
 *  @p tracer is null (the untraced run). */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, std::string name, int parent,
              std::uint64_t op);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Parent index for nested spans; -1 when not tracing. */
    int index() const { return spanIndex; }

  private:
    Tracer *tracer;
    int spanIndex = -1;
};

/** FNV-1a 64-bit digest as 16 hex digits. */
std::string digest(std::string_view bytes);

/** File name (relative to a directory) -> digest of its bytes;
 *  "missing" for a file that cannot be read. */
using Digests = std::map<std::string, std::string>;

/** Digest each of @p names under @p directory. */
Digests digestFiles(const std::string &directory,
                    const std::vector<std::string> &names);

/** Names whose digests differ (or exist on one side only). */
std::vector<std::string> mismatches(const Digests &expected,
                                    const Digests &actual);

/** Attempted/failed operation tally. */
struct OpTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Format a double with every significant digit (%.17g). */
std::string exact(double value);

} // namespace perfbench

#endif // GEMSTONE_PERFBENCH_HARNESS_HH
