/**
 * @file
 * The report_cold and report_warm workloads: one gemstone_tool
 * report flow per operation, each in a child forked from this
 * process before it has simulated anything, so every op starts like
 * a fresh tool process (no simulation results, no warm model pools,
 * no predecode entries).
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "exec/resultstore.hh"
#include "gemstone/report.hh"
#include "isa/predecode.hh"
#include "powmon/builder.hh"
#include "powmon/eventspec.hh"

namespace perfbench {

namespace {

namespace core = gemstone::core;
namespace fs = std::filesystem;

/** One forked report flow. */
struct ReportJob
{
    std::uint64_t seed = kDefaultSeed;
    unsigned jobs = 1;
    /** Op directory: stdout.txt plus the artefacts under out/. */
    std::string dir;
    /** Result-store CSV; empty runs without a store. */
    std::string storePath;
    /** Load the store before the flow (it is always saved after). */
    bool loadStore = false;
    bool traced = false;
};

/** What the parent learns from one child. */
struct ChildResult
{
    bool ok = false;
    std::string error;
    double start = 0.0;
    double end = 0.0;
    double cpu = 0.0;
    double rssMb = 0.0;
    /** Spans with child-local parent indices. */
    std::vector<Span> spans;
    std::map<std::string, double> metrics;
    std::string mapePct;
};

/** Files a report op produces: the text report the tool prints
 *  (stdout.txt) and the artefacts writeReportFiles() writes. */
const std::vector<std::string> &
reportFiles()
{
    static const std::vector<std::string> files = {
        "stdout.txt",
        "out/report.txt",
        "out/validation.csv",
        "out/clusters.csv",
        "out/pmc_correlation.csv",
        "out/event_comparison.csv",
        "out/hw_pmcs.csv",
        "out/power_model.txt",
    };
    return files;
}

/** Time @p body and add its CPU utilisation over @p jobs threads to
 *  @p metrics as @p util_name; returns the CPU seconds used. */
template <typename Body>
double
timedUtil(Tracer &tracer, const std::string &span_name,
          const std::string &util_name, unsigned jobs,
          std::map<std::string, double> &metrics, Body body)
{
    double cpu0 = processCpuSeconds();
    double t0 = nowSeconds();
    {
        SpanScope span(&tracer, span_name, -1, 0);
        body();
    }
    double wall = nowSeconds() - t0;
    double cpu = processCpuSeconds() - cpu0;
    metrics[util_name] = wall > 0.0 ? cpu / (wall * jobs) : 0.0;
    return cpu;
}

/**
 * core::generateReport() with a span around every call it makes
 * into the runner, analysis, power-model and evaluation layers. The
 * calls, their arguments and their order are generateReport()'s, so
 * the output bytes are the same; the op's output check holds the
 * traced flow to that.
 */
core::Report
tracedReport(core::ExperimentRunner &runner,
             const core::ReportConfig &config, Tracer &tracer,
             unsigned jobs, std::map<std::string, double> &metrics)
{
    core::Report report;
    report.config = config;
    const double freq = config.analysisFreqMhz;

    double validation_cpu = timedUtil(
        tracer, "exec.validation", "exec.validation_util", jobs,
        metrics, [&] {
            report.validation = runner.runValidation(config.cluster);
        });
    double instructions = 0.0;
    for (const core::ValidationRecord &record :
         report.validation.records) {
        instructions += static_cast<double>(record.g5.raw.instructions);
    }
    metrics["uarch.minst_per_cpu_s"] =
        validation_cpu > 0.0 ? instructions / 1e6 / validation_cpu : 0.0;

    {
        SpanScope analysis(&tracer, "mlstat.analysis", -1, 0);
        const int parent = analysis.index();
        {
            SpanScope span(&tracer, "mlstat.cluster", parent, 0);
            report.clustering = core::clusterWorkloads(
                report.validation, freq, config.workloadClusters);
        }
        {
            SpanScope span(&tracer, "mlstat.correlate", parent, 0);
            report.pmcCorrelation =
                core::correlatePmcEvents(report.validation, freq);
            report.g5Correlation =
                core::correlateG5Events(report.validation, freq);
        }
        {
            SpanScope span(&tracer, "mlstat.regress", parent, 0);
            report.pmcRegression =
                core::regressErrorOnPmcs(report.validation, freq);
            report.g5Regression =
                core::regressErrorOnG5Stats(report.validation, freq);
        }
        {
            SpanScope span(&tracer, "mlstat.compare", parent, 0);
            std::size_t pathological =
                report.clustering.clusterOf("par-basicmath-rad2deg");
            report.eventComparison = core::compareEvents(
                report.validation, freq, report.clustering,
                pathological);
        }
        {
            SpanScope span(&tracer, "mlstat.bp_summary", parent, 0);
            report.bpSummary =
                core::summariseBpAccuracy(report.validation, freq);
        }
    }

    if (!config.includePower)
        return report;

    std::vector<gemstone::powmon::PowerObservation> observations;
    timedUtil(tracer, "hwsim.power_char", "hwsim.power_char_util",
              jobs, metrics, [&] {
                  observations =
                      runner.runPowerCharacterisation(config.cluster);
              });
    {
        // The selection generateReport's power-model step uses.
        SpanScope fit(&tracer, "powmon.fit", -1, 0);
        gemstone::powmon::PowerModelBuilder builder(
            std::move(observations),
            config.cluster == gemstone::hwsim::CpuCluster::LittleA7
                ? "cortex-a7"
                : "cortex-a15");
        gemstone::powmon::SelectionConfig selection;
        selection.maxEvents = 7;
        selection.requireG5Equivalent = true;
        for (int id : gemstone::powmon::EventSpecTable::knownBadForG5())
            selection.excluded.insert(id);
        selection.composites.push_back(
            gemstone::powmon::EventSpecTable::difference(0x1B, 0x73));
        gemstone::powmon::SelectionResult selected;
        {
            SpanScope span(&tracer, "powmon.select", fit.index(), 0);
            selected = builder.selectEvents(selection);
        }
        SpanScope span(&tracer, "powmon.build", fit.index(), 0);
        report.powerModel = builder.build(selected.events);
    }
    {
        SpanScope eval(&tracer, "gemstone.powereval", -1, 0);
        {
            SpanScope span(&tracer, "gemstone.power_energy",
                           eval.index(), 0);
            report.powerEnergy = core::evaluatePowerEnergy(
                report.validation, freq, report.powerModel,
                report.clustering);
            report.hasPower = true;
        }
        if (config.includeDvfs) {
            SpanScope span(&tracer, "gemstone.dvfs", eval.index(), 0);
            std::vector<std::size_t> selected;
            for (const auto &[label, size] :
                 report.clustering.clusterSizes) {
                if (size >= 3 && selected.size() < 3)
                    selected.push_back(label);
            }
            report.dvfsScaling = core::computeDvfsScaling(
                report.validation, report.powerModel, report.clustering,
                selected);
            report.hasDvfs = true;
        }
    }
    return report;
}

void
writeWhole(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    out.flush();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** The forked child: run the flow; returns its description. */
std::string
reportChild(const ReportJob &job)
{
    Tracer tracer;
    Tracer *traced = job.traced ? &tracer : nullptr;
    std::map<std::string, double> metrics;
    std::string error;
    std::string mape;
    // Owned out here so their destruction, which the tool also pays
    // before it exits, can be timed.
    std::shared_ptr<gemstone::exec::ResultStore> store;
    std::unique_ptr<core::ExperimentRunner> runner;
    std::unique_ptr<core::Report> report;
    try {
        const gemstone::isa::PredecodeCacheStats decode0 =
            gemstone::isa::predecodeCacheStats();
        if (!job.storePath.empty()) {
            store = std::make_shared<gemstone::exec::ResultStore>();
            if (job.loadStore) {
                SpanScope span(traced, "exec.store_load", -1, 0);
                if (store->loadCsv(job.storePath) == 0)
                    throw std::runtime_error("empty result store " +
                                             job.storePath);
            }
        }
        {
            SpanScope span(traced, "gemstone.runner_init", -1, 0);
            core::RunnerConfig runner_config;
            runner_config.seed = job.seed;
            runner_config.jobs = job.jobs;
            runner = std::make_unique<core::ExperimentRunner>(runner_config);
            if (store)
                runner->attachResultStore(store);
        }

        const core::ReportConfig report_config;
        report = std::make_unique<core::Report>(
            traced ? tracedReport(*runner, report_config, tracer,
                                  job.jobs, metrics)
                   : core::generateReport(*runner, report_config));
        {
            SpanScope span(traced, "gemstone.report_write", -1, 0);
            std::ostringstream text;
            report->writeText(text);
            writeWhole(job.dir + "/stdout.txt", text.str());
            core::writeReportFiles(*report, job.dir + "/out");
        }
        if (store) {
            const gemstone::exec::ResultStore::Stats stats =
                store->stats();
            const double lookups =
                static_cast<double>(stats.hits + stats.misses);
            metrics["exec.store_hit_ratio"] =
                lookups > 0.0 ? static_cast<double>(stats.hits) / lookups
                              : 0.0;
            const IoCounters io0 = readProcIo();
            {
                SpanScope span(traced, "exec.store_save", -1, 0);
                gemstone::Status saved = store->saveCsv(job.storePath);
                if (!saved.ok())
                    throw std::runtime_error("cannot save result store: " +
                                             saved.toString());
            }
            const IoCounters written = ioDelta(io0, readProcIo());
            if (written.ok) {
                metrics["exec.store_write_mb"] =
                    static_cast<double>(written.wchar) / 1e6;
            }
        }
        const gemstone::isa::PredecodeCacheStats decode1 =
            gemstone::isa::predecodeCacheStats();
        metrics["isa.predecode_hits"] =
            static_cast<double>(decode1.hits - decode0.hits);
        metrics["isa.predecode_misses"] =
            static_cast<double>(decode1.misses - decode0.misses);
        mape = exact(report->validation.execMape() * 100.0);
    } catch (const std::exception &e) {
        error = e.what();
    }
    {
        SpanScope span(traced, "gemstone.teardown", -1, 0);
        report.reset();
        runner.reset();
        store.reset();
    }

    std::ostringstream out;
    for (const Span &span : tracer.spans()) {
        out << "span " << span.parent << ' ' << exact(span.start) << ' '
            << exact(span.end) << ' ' << span.name << '\n';
    }
    for (const auto &[name, value] : metrics)
        out << "metric " << name << ' ' << exact(value) << '\n';
    if (!mape.empty())
        out << "mape " << mape << '\n';
    if (!error.empty())
        out << "error " << error << '\n';
    return out.str();
}

void
parseChildLine(const std::string &line, ChildResult &result)
{
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "span") {
        Span span;
        in >> span.parent >> span.start >> span.end;
        std::getline(in >> std::ws, span.name);
        result.spans.push_back(span);
    } else if (kind == "metric") {
        std::string name;
        double value = 0.0;
        in >> name >> value;
        result.metrics[name] = value;
    } else if (kind == "mape") {
        in >> result.mapePct;
    } else if (kind == "error") {
        std::getline(in >> std::ws, result.error);
    }
}

/** Fork, run @p job in the child, collect what it reports. */
ChildResult
runChild(const ReportJob &job)
{
    std::error_code ec;
    fs::remove_all(job.dir + "/out", ec);
    fs::remove(job.dir + "/stdout.txt", ec);
    fs::create_directories(job.dir, ec);

    ChildRun run = runInChild([&job] { return reportChild(job); });
    ChildResult result;
    result.start = run.start;
    result.end = run.end;
    result.cpu = run.cpu;
    result.rssMb = run.rssMb;
    std::istringstream lines(run.output);
    std::string line;
    while (std::getline(lines, line))
        parseChildLine(line, result);
    if (!run.ok && result.error.empty())
        result.error = run.error;
    result.ok = result.error.empty();
    return result;
}

/** Why an op's outputs differ from @p reference; "" when equal. */
std::string
checkOutputs(const ChildResult &child, const std::string &dir,
             const Golden &reference)
{
    if (!child.ok)
        return child.error;
    std::vector<std::string> bad =
        mismatches(reference.digests, digestFiles(dir, reportFiles()));
    if (!bad.empty()) {
        std::string why = "output differs from the reference:";
        for (const std::string &name : bad)
            why += " " + name;
        return why;
    }
    if (child.mapePct != reference.mapePct)
        return "exec MAPE " + child.mapePct + " differs from " +
               reference.mapePct;
    return "";
}

/** Check a finished op; a traced one gets a root span named
 *  @p root_name with the child's spans grafted under it. */
OpSample
sampleOf(const ChildResult &child, const ReportJob &job,
         const Golden &reference, Tracer &tracer,
         const std::string &root_name)
{
    OpSample sample;
    sample.wall = child.end - child.start;
    std::string why = checkOutputs(child, job.dir, reference);
    sample.ok = why.empty();
    if (!sample.ok)
        std::cerr << root_name << " failed: " << why << "\n";
    if (job.traced) {
        const std::uint64_t op = tracer.nextOp();
        sample.traced = true;
        sample.root =
            tracer.add({root_name, child.start, child.end, -1, op});
        tracer.graft(child.spans, sample.root, op);
        sample.layer = child.metrics;
    }
    return sample;
}

/** The recorded outputs on the default seed, else none yet. */
bool
initialReference(const RunConfig &config, Golden &reference)
{
    if (config.seed != kDefaultSeed || goldenReport().digests.empty())
        return false;
    reference = goldenReport();
    return true;
}

/** Adopt @p child's outputs as the reference. */
void
adoptReference(const ChildResult &child, const ReportJob &job,
               Golden &reference)
{
    reference.digests = digestFiles(job.dir, reportFiles());
    reference.mapePct = child.mapePct;
}

} // namespace

WorkloadResult
runReportWorkload(const RunConfig &config, bool warm, Tracer &tracer)
{
    WorkloadResult result;
    ReportJob job;
    job.seed = config.seed;
    job.jobs = config.jobs;
    job.dir = config.workdir + "/op";
    if (warm)
        job.storePath = config.workdir + "/store.csv";

    // Set-up: fresh-process cold reports. They give the reference
    // outputs on seeds without recorded digests and, for
    // report_warm, fill the store every op then starts from.
    Golden reference;
    bool have_reference = initialReference(config, reference);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::error_code ec;
        if (warm)
            fs::remove(job.storePath, ec);
        ChildResult child = runChild(job);
        result.setupSeconds.push_back(child.end - child.start);
        if (!child.ok) {
            result.setupOk = false;
            result.setupError = "set-up report failed: " + child.error;
            continue;
        }
        if (!have_reference) {
            adoptReference(child, job, reference);
            have_reference = true;
            continue;
        }
        std::string why = checkOutputs(child, job.dir, reference);
        if (!why.empty()) {
            result.setupOk = false;
            result.setupError = "set-up report " + std::to_string(rep) +
                                ": " + why;
        }
    }
    if (!have_reference || (warm && !fs::exists(job.storePath)))
        return result;
    result.reference = reference;
    result.mapePct = std::stod(reference.mapePct);

    job.loadStore = warm;
    const std::string root_name = warm ? "report_warm.op" : "report_cold.op";
    const double start = nowSeconds();
    const double deadline = start + config.seconds;
    for (std::uint64_t op = 0; nowSeconds() < deadline; ++op) {
        job.traced = config.trace && op % 2 == 0;
        ChildResult child = runChild(job);
        result.cpuSeconds += child.cpu;
        result.peakRssMb = std::max(result.peakRssMb, child.rssMb);
        OpSample sample = sampleOf(child, job, reference, tracer, root_name);
        result.tally.record(sample.ok);
        result.ops.push_back(std::move(sample));
    }
    result.windowSeconds = nowSeconds() - start;

    if (config.trace) {
        if (!warm)
            runReportProbes(config, false, tracer, result);
        runServeProbes(config, tracer, result);
    }
    return result;
}

void
runReportProbes(const RunConfig &config, bool with_cold, Tracer &tracer,
                WorkloadResult &result)
{
    ReportJob job;
    job.seed = config.seed;
    job.jobs = config.jobs;
    job.dir = config.workdir + "/probe";
    Golden reference;
    bool have_reference = initialReference(config, reference);
    auto record = [&](const ChildResult &child, const char *root_name) {
        if (!have_reference && child.ok) {
            adoptReference(child, job, reference);
            have_reference = true;
        }
        OpSample sample = sampleOf(child, job, reference, tracer,
                                   root_name);
        result.tally.record(sample.ok);
        if (sample.traced)
            result.probes.push_back(std::move(sample));
    };
    if (with_cold) {
        job.traced = true;
        record(runChild(job), "report_cold.probe");
    }
    job.storePath = config.workdir + "/probe_store.csv";
    job.traced = false;
    record(runChild(job), "report_fill.probe");
    job.loadStore = true;
    job.traced = true;
    record(runChild(job), "report_warm.probe");
}

} // namespace perfbench
