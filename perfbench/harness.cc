/**
 * @file
 * Measurement helpers of the GemStone end-to-end benchmark.
 */

#include "harness.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double
nowSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** write(2) all of @p bytes; false on error. */
bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

ChildRun
runInChild(const std::function<std::string()> &body)
{
    ChildRun run;
    int fds[2];
    if (::pipe(fds) != 0) {
        run.error = "pipe failed";
        return run;
    }
    std::cout.flush();
    std::fflush(nullptr);
    run.start = nowSeconds();
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        run.error = "fork failed";
        return run;
    }
    if (pid == 0) {
        ::close(fds[0]);
        bool sent = writeAll(fds[1], body());
        ::close(fds[1]);
        ::_exit(sent ? 0 : 2);
    }
    ::close(fds[1]);
    char buffer[4096];
    for (;;) {
        ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        run.output.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    run.end = nowSeconds();
    run.cpu = seconds(usage.ru_utime) + seconds(usage.ru_stime);
    run.rssMb = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
    run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!run.ok)
        run.error = "child exited with wait status " +
                    std::to_string(status);
    return run;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

TailPercentile
tailPercentile(std::vector<double> samples)
{
    static const double kCandidates[] = {99.9, 99.0, 95.0,
                                         90.0, 75.0, 50.0};
    TailPercentile tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    for (double p : kCandidates) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
        if (rank == 0 || rank > n || n - rank < 10)
            continue;
        tail.found = true;
        tail.percentile = p;
        tail.value = samples[rank - 1];
        return tail;
    }
    return tail;
}

IoCounters
parseProcIo(std::string_view text)
{
    IoCounters io;
    bool have_wchar = false;
    bool have_syscw = false;
    std::istringstream in{std::string(text)};
    std::string line;
    while (std::getline(in, line)) {
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string key = line.substr(0, colon);
        if (key != "wchar" && key != "syscw")
            continue;
        std::string digits = line.substr(colon + 1);
        std::size_t first = digits.find_first_not_of(' ');
        if (first == std::string::npos)
            return IoCounters{};
        digits = digits.substr(first);
        if (digits.find_first_not_of("0123456789") != std::string::npos)
            return IoCounters{};
        std::uint64_t value = 0;
        try {
            value = std::stoull(digits);
        } catch (const std::exception &) {
            return IoCounters{};
        }
        if (key == "wchar") {
            io.wchar = value;
            have_wchar = true;
        } else {
            io.syscw = value;
            have_syscw = true;
        }
    }
    io.ok = have_wchar && have_syscw;
    return io;
}

IoCounters
readProcIo()
{
    std::ifstream in("/proc/self/io");
    if (!in)
        return IoCounters{};
    std::ostringstream text;
    text << in.rdbuf();
    return parseProcIo(text.str());
}

IoCounters
ioDelta(const IoCounters &before, const IoCounters &after)
{
    IoCounters delta;
    if (!before.ok || !after.ok || after.wchar < before.wchar ||
        after.syscw < before.syscw) {
        return delta;
    }
    delta.ok = true;
    delta.wchar = after.wchar - before.wchar;
    delta.syscw = after.syscw - before.syscw;
    return delta;
}

namespace {

/** Length of the union of @p intervals clipped to [lo, hi]. */
double
coveredLength(std::vector<std::pair<double, double>> intervals,
              double lo, double hi)
{
    for (auto &[start, end] : intervals) {
        start = std::max(start, lo);
        end = std::min(end, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (const auto &[start, end] : intervals) {
        if (end <= start || end <= reach)
            continue;
        covered += end - std::max(start, reach);
        reach = end;
    }
    return covered;
}

std::vector<std::pair<double, double>>
childIntervals(const std::vector<Span> &spans, int parent)
{
    std::vector<std::pair<double, double>> intervals;
    for (const Span &span : spans) {
        if (span.parent == parent)
            intervals.emplace_back(span.start, span.end);
    }
    return intervals;
}

} // namespace

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        self[i] = span.duration() -
                  coveredLength(childIntervals(spans, static_cast<int>(i)),
                                span.start, span.end);
    }
    return self;
}

double
childCover(const std::vector<Span> &spans, int root)
{
    const Span &span = spans.at(static_cast<std::size_t>(root));
    if (span.duration() <= 0.0)
        return 0.0;
    return coveredLength(childIntervals(spans, root), span.start,
                         span.end) /
           span.duration();
}

int
Tracer::open(std::string name, int parent, std::uint64_t op)
{
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.op = op;
    span.start = nowSeconds();
    return add(std::move(span));
}

void
Tracer::close(int index)
{
    double end = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex);
    list.at(static_cast<std::size_t>(index)).end = end;
}

int
Tracer::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex);
    list.push_back(std::move(span));
    return static_cast<int>(list.size() - 1);
}

void
Tracer::graft(const std::vector<Span> &child, int parent,
              std::uint64_t op)
{
    std::lock_guard<std::mutex> lock(mutex);
    const int base = static_cast<int>(list.size());
    for (Span span : child) {
        span.parent = span.parent < 0 ? parent : base + span.parent;
        span.op = op;
        list.push_back(std::move(span));
    }
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return list;
}

std::uint64_t
Tracer::nextOp()
{
    std::lock_guard<std::mutex> lock(mutex);
    return ops++;
}

SpanScope::SpanScope(Tracer *tracer, std::string name, int parent,
                     std::uint64_t op)
    : tracer(tracer)
{
    if (tracer)
        spanIndex = tracer->open(std::move(name), parent, op);
}

SpanScope::~SpanScope()
{
    if (tracer)
        tracer->close(spanIndex);
}

std::string
digest(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

Digests
digestFiles(const std::string &directory,
            const std::vector<std::string> &names)
{
    Digests digests;
    for (const std::string &name : names) {
        std::ifstream in(directory + "/" + name, std::ios::binary);
        if (!in) {
            digests[name] = "missing";
            continue;
        }
        std::ostringstream bytes;
        bytes << in.rdbuf();
        digests[name] = digest(bytes.str());
    }
    return digests;
}

std::vector<std::string>
mismatches(const Digests &expected, const Digests &actual)
{
    std::vector<std::string> names;
    for (const auto &[name, value] : expected) {
        auto it = actual.find(name);
        if (it == actual.end() || it->second != value)
            names.push_back(name);
    }
    for (const auto &[name, value] : actual) {
        if (!expected.count(name))
            names.push_back(name);
    }
    return names;
}

std::string
exact(double value)
{
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

} // namespace perfbench
