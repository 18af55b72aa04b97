/**
 * @file
 * gsbench: the GemStone end-to-end benchmark program.
 *
 *   gsbench --workload report_cold|report_warm|serve_stream
 *           --seed N --seconds S --trace 0|1
 *           [--workdir DIR] [--trace-dir DIR] [--commit ID]
 *
 * Runs one workload for S seconds (after its set-up), checks every
 * operation's output, and prints human-readable lines followed by one
 * JSON line: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 every
 * other op is traced (spans around the calls into each layer) and the
 * metrics are the per-layer ones, plus the tracing overhead. The
 * spans are written to DIR/<workload>-seed<N>.json when the run ends.
 * README.md describes the workloads and metrics.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "util/logging.hh"

#ifndef GSBENCH_BUILD_TYPE
#define GSBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

namespace fs = std::filesystem;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"op_s_p50", "s"},
    {"cpu_s_per_op", "s"}, {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"}, {"exec_mape_pct", "%"},
};

/** Per-layer metrics; a "_s" metric is the per-op total of the span
 *  named without the suffix (median over traced ops). */
const MetricDef kPerLayer[] = {
    {"exec.validation_s", "s"},
    {"exec.validation_util", "ratio"},
    {"hwsim.power_char_s", "s"},
    {"hwsim.power_char_util", "ratio"},
    {"uarch.minst_per_cpu_s", "Minst/s"},
    {"isa.predecode_hits", "count"},
    {"isa.predecode_misses", "count"},
    {"mlstat.analysis_s", "s"},
    {"powmon.fit_s", "s"},
    {"gemstone.powereval_s", "s"},
    {"gemstone.report_write_s", "s"},
    {"exec.store_load_s", "s"},
    {"exec.store_save_s", "s"},
    {"exec.store_hit_ratio", "ratio"},
    {"exec.store_write_mb", "MB"},
    {"serve.accept_s", "s"},
    {"serve.first_point_s", "s"},
    {"serve.stream_s", "s"},
    {"serve.durable_op_s", "s"},
    {"serve.write_mb_per_req", "MB"},
    {"serve.write_calls_per_req", "count"},
    {"gemstone.campaign_s", "s"},
    {"gemstone.campaign_ckpt_s", "s"},
    {"serve.rejected", "count"},
    {"serve.failed", "count"},
    {"trace.overhead_s", "s"},
    {"trace.top_span_cover", "ratio"},
};

struct Options
{
    RunConfig run;
    std::string workdir = ".bench_build/run";
    std::string traceDir = ".bench_build/traces";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "gsbench: " << problem << "\n"
              << "usage: gsbench --workload "
                 "report_cold|report_warm|serve_stream --seed N\n"
                 "               --seconds S --trace 0|1 [--workdir DIR]"
                 " [--trace-dir DIR] [--commit ID]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.run.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                options.run.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.run.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                options.run.trace = value == "1";
            } else if (arg == "--workdir") {
                options.workdir = value;
            } else if (arg == "--trace-dir") {
                options.traceDir = value;
            } else if (arg == "--commit") {
                options.commit = value;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::exception &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    static const std::set<std::string> workloads = {
        "report_cold", "report_warm", "serve_stream"};
    if (!have_workload || !workloads.count(options.run.workload))
        usage("--workload must be one of report_cold, report_warm, "
              "serve_stream");
    if (!(options.run.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

std::string
jsonNumber(double value)
{
    return std::isfinite(value) ? exact(value) : "0";
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
stampJson(const Options &options, const WorkloadResult &result)
{
    std::ostringstream out;
    out << "{\"workload\": " << jsonString(options.run.workload)
        << ", \"seed\": " << options.run.seed
        << ", \"seconds\": " << jsonNumber(options.run.seconds)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"jobs\": " << options.run.jobs
        << ", \"clients\": " << result.clients
        << ", \"compiler\": " << jsonString("g++ " __VERSION__)
        << ", \"build_type\": " << jsonString(GSBENCH_BUILD_TYPE)
        << ", \"commit\": " << jsonString(options.commit) << "}";
    return out.str();
}

std::map<std::string, double>
endToEnd(const WorkloadResult &result)
{
    std::vector<double> walls;
    for (const OpSample &op : result.ops)
        walls.push_back(op.wall);
    std::map<std::string, double> metrics;
    metrics["setup_s"] = median(result.setupSeconds);
    metrics["op_s_p50"] = median(walls);
    metrics["cpu_s_per_op"] =
        result.cpuSeconds / static_cast<double>(result.ops.size());
    metrics["peak_rss_mb"] = result.peakRssMb;
    metrics["ok_ratio"] =
        static_cast<double>(result.tally.attempted - result.tally.failed) /
        static_cast<double>(result.tally.attempted);
    metrics["exec_mape_pct"] = result.mapePct;
    return metrics;
}

/** For the traced ops among @p ops: span totals by name ("_s"
 *  added) and the ops' own figures, each as a median over the ops. */
std::map<std::string, double>
layerMedians(const std::vector<OpSample> &ops,
             const std::vector<Span> &spans)
{
    std::map<std::string, std::vector<double>> per_op;
    for (const OpSample &op : ops) {
        if (!op.traced)
            continue;
        std::map<std::string, double> totals;
        const std::uint64_t id = spans[static_cast<std::size_t>(op.root)].op;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].op == id && static_cast<int>(i) != op.root)
                totals[spans[i].name + "_s"] += spans[i].duration();
        }
        for (const auto &[name, value] : op.layer)
            totals[name] = value;
        for (const auto &[name, value] : totals)
            per_op[name].push_back(value);
    }
    std::map<std::string, double> medians;
    for (const auto &[name, values] : per_op)
        medians[name] = median(values);
    return medians;
}

std::map<std::string, double>
perLayer(const WorkloadResult &result, const std::vector<Span> &spans)
{
    std::map<std::string, double> metrics;
    for (const MetricDef &def : kPerLayer)
        metrics[def.name] = 0.0;
    auto assign = [&metrics](const std::map<std::string, double> &values) {
        for (const auto &[name, value] : values) {
            if (metrics.count(name))
                metrics[name] = value;
        }
    };
    // Later sources win: the probes cover layers this workload's ops
    // never call, run-level counters come next, and the workload's
    // own ops come last. Among probes, a kind recorded earlier wins,
    // so a cold report probe's figures are not mixed with the warm
    // one's, which adds only the store figures.
    std::vector<std::string> kinds;
    std::map<std::string, std::vector<OpSample>> by_kind;
    for (const OpSample &probe : result.probes) {
        const std::string &kind =
            spans[static_cast<std::size_t>(probe.root)].name;
        if (!by_kind.count(kind))
            kinds.push_back(kind);
        by_kind[kind].push_back(probe);
    }
    for (auto kind = kinds.rbegin(); kind != kinds.rend(); ++kind)
        assign(layerMedians(by_kind[*kind], spans));
    assign(result.layer);
    assign(layerMedians(result.ops, spans));

    std::vector<double> traced_walls;
    std::vector<double> untraced_walls;
    std::vector<double> covers;
    for (const OpSample &op : result.ops) {
        if (op.traced) {
            traced_walls.push_back(op.wall);
            covers.push_back(childCover(spans, op.root));
        } else {
            untraced_walls.push_back(op.wall);
        }
    }
    metrics["trace.overhead_s"] =
        median(traced_walls) - median(untraced_walls);
    metrics["trace.top_span_cover"] = median(covers);
    return metrics;
}

std::string
metricsJson(const MetricDef *begin, const MetricDef *end,
            const std::map<std::string, double> &values)
{
    std::ostringstream out;
    out << "{";
    for (const MetricDef *def = begin; def != end; ++def) {
        if (def != begin)
            out << ", ";
        out << jsonString(def->name)
            << ": {\"value\": " << jsonNumber(values.at(def->name))
            << ", \"unit\": " << jsonString(def->unit) << "}";
    }
    out << "}";
    return out.str();
}

void
printEndToEnd(const WorkloadResult &result,
              const std::map<std::string, double> &metrics)
{
    std::vector<double> walls;
    for (const OpSample &op : result.ops)
        walls.push_back(op.wall);
    std::cout << "ops " << result.ops.size() << " in "
              << result.windowSeconds << " s, " << result.clients
              << " closed-loop client(s): "
              << static_cast<double>(result.ops.size()) /
                     result.windowSeconds
              << " ops/s\n";
    for (const MetricDef &def : kEndToEnd) {
        std::cout << "  " << def.name << " = " << metrics.at(def.name)
                  << " " << def.unit << "\n";
    }
    std::sort(walls.begin(), walls.end());
    std::cout << "  op_s min/median/max = " << walls.front() << " / "
              << median(walls) << " / " << walls.back() << "\n";
    TailPercentile tail = tailPercentile(walls);
    if (tail.found) {
        std::cout << "  op_s_p" << tail.percentile << " = " << tail.value
                  << " s (n=" << walls.size() << ")\n";
    } else {
        std::cout << "  no tail percentile: n=" << walls.size()
                  << " leaves fewer than 10 samples beyond p50\n";
    }
    std::cout << "  fail_ratio = " << result.tally.failed << "/"
              << result.tally.attempted << "\n";
}

void
printTrace(const std::vector<Span> &spans,
           const std::map<std::string, double> &metrics)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, std::vector<double>> total;
    std::map<std::string, std::vector<double>> own;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        total[spans[i].name].push_back(spans[i].duration());
        own[spans[i].name].push_back(self[i]);
    }
    std::cout << "spans (median per call): name calls total_s self_s\n";
    for (const auto &[name, values] : total) {
        std::cout << "  " << name << " " << values.size() << " "
                  << median(values) << " " << median(own[name]) << "\n";
    }
    for (const MetricDef &def : kPerLayer) {
        std::cout << "  " << def.name << " = " << metrics.at(def.name)
                  << " " << def.unit << "\n";
    }
}

void
writeTraceFile(const Options &options, const WorkloadResult &result,
               const std::vector<Span> &spans)
{
    std::error_code ec;
    fs::create_directories(options.traceDir, ec);
    const std::string path = options.traceDir + "/" +
                             options.run.workload + "-seed" +
                             std::to_string(options.run.seed) + ".json";
    const std::vector<double> self = selfTimes(spans);
    std::ofstream out(path);
    out << "{\"stamp\": " << stampJson(options, result)
        << ",\n \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        out << (i ? ",\n  " : "\n  ") << "{\"op\": " << span.op
            << ", \"name\": " << jsonString(span.name)
            << ", \"parent\": " << span.parent
            << ", \"start\": " << jsonNumber(span.start)
            << ", \"end\": " << jsonNumber(span.end)
            << ", \"self\": " << jsonNumber(self[i]) << "}";
    }
    out << "\n]}\n";
    if (!out)
        std::cerr << "gsbench: cannot write " << path << "\n";
    else
        std::cout << "trace written to " << path << "\n";
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options = parseOptions(argc, argv);
    options.run.jobs =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    options.run.workdir = options.workdir + "/" + options.run.workload +
                          "-" + std::to_string(::getpid());
    std::error_code ec;
    fs::remove_all(options.run.workdir, ec);
    fs::create_directories(options.run.workdir, ec);
    if (ec) {
        std::cerr << "gsbench: cannot create " << options.run.workdir
                  << ": " << ec.message() << "\n";
        return 1;
    }

    // The daemon's per-request log lines would drown the results, and
    // a fatal() in an op should fail that op, not end the run.
    gemstone::setQuiet(true);
    gemstone::setFatalThrows(true);
    Tracer tracer;
    const std::string &workload = options.run.workload;
    WorkloadResult result =
        workload == "serve_stream"
            ? runServeWorkload(options.run, tracer)
            : runReportWorkload(options.run, workload == "report_warm",
                                tracer);
    fs::remove_all(options.run.workdir, ec);

    if (!result.setupOk)
        std::cerr << "gsbench: " << result.setupError << "\n";
    if (result.ops.empty() || result.tally.attempted == 0) {
        std::cerr << "gsbench: no operation completed\n";
        return 1;
    }

    std::cout << "stamp " << stampJson(options, result) << "\n";
    for (const auto &[name, value] : result.reference.digests)
        std::cout << "reference " << name << " " << value << "\n";
    std::cout << "reference exec_mape_pct " << result.reference.mapePct
              << "\n";
    std::map<std::string, double> metrics = endToEnd(result);
    printEndToEnd(result, metrics);
    std::string metrics_json;
    if (options.run.trace) {
        const std::vector<Span> spans = tracer.spans();
        metrics = perLayer(result, spans);
        printTrace(spans, metrics);
        writeTraceFile(options, result, spans);
        metrics_json = metricsJson(std::begin(kPerLayer),
                                   std::end(kPerLayer), metrics);
    } else {
        metrics_json = metricsJson(std::begin(kEndToEnd),
                                   std::end(kEndToEnd), metrics);
    }
    const bool correct = result.setupOk && result.tally.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << result.tally.attempted
              << ", \"failed\": " << result.tally.failed
              << ", \"metrics\": " << metrics_json << "}" << std::endl;
    return 0;
}
