/**
 * @file
 * The serve_stream workload: an in-process gemstoned (serve::Server on
 * a Unix socket, two campaign slots, journal directory on disk)
 * driven by two closed-loop clients that each submit the default
 * campaign, stream it to its Summary, and submit the next. The
 * daemon's store is filled at set-up, so every point is a store hit
 * and a request is all daemon work: admission, request threads, the
 * campaign engine's many cheap tasks, and 180 streamed points.
 *
 * The traced run also submits durable requests, which the daemon
 * journals and checkpoints on disk point by point; their write volume
 * and latency are per-layer figures only, because fsync latency on a
 * shared disk is too noisy to gate on.
 */

#include <sys/resource.h>

#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "isa/predecode.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "util/csv.hh"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = gemstone::serve;

constexpr unsigned kClients = 2;

/** A serve::Server with its event-loop thread. */
class Daemon
{
  public:
    explicit Daemon(const std::string &dir)
        : server(configFor(dir))
    {
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    gemstone::Status
    start()
    {
        gemstone::Status started = server.start();
        if (started.ok())
            loop = std::thread([this] { loopStatus = server.run(); });
        return started;
    }

    /** Drain and join the loop; the loop's exit status. */
    gemstone::Status
    stop()
    {
        if (loop.joinable()) {
            server.requestDrain();
            loop.join();
        }
        return loopStatus;
    }

    static std::string socketPath(const std::string &dir)
    {
        return dir + "/d.sock";
    }

    serve::Server server;

  private:
    static serve::Server::Config
    configFor(const std::string &dir)
    {
        serve::Server::Config config;
        config.socketPath = socketPath(dir);
        config.journalDir = dir + "/journal";
        config.maxActive = 2;
        return config;
    }

    gemstone::Status loopStatus = gemstone::Status::okStatus();
    std::thread loop;
};

/** Requests of each kind a probe submits. */
constexpr int kProbeRequests = 3;

/** Mean |mpe| of a dataset CSV, in percent. */
double
csvMapePct(const std::string &csv)
{
    std::istringstream in(csv);
    gemstone::CsvReader reader = gemstone::CsvReader::parse(in);
    if (!reader.ok() || reader.rowCount() == 0 ||
        reader.columnIndex("mpe") == gemstone::CsvReader::npos) {
        return 0.0;
    }
    double sum = 0.0;
    for (std::size_t row = 0; row < reader.rowCount(); ++row)
        sum += std::fabs(reader.numericCell(row, "mpe"));
    return sum / static_cast<double>(reader.rowCount()) * 100.0;
}

/** One daemon set-up: start it and fill its store in process. */
struct SetupOutcome
{
    double seconds = 0.0;
    std::string csv;
    std::string error;
};

SetupOutcome
setUp(const std::string &dir, std::uint64_t seed, unsigned jobs,
      std::unique_ptr<Daemon> &daemon)
{
    SetupOutcome outcome;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    const double t0 = nowSeconds();
    daemon = std::make_unique<Daemon>(dir);
    gemstone::Status started = daemon->start();
    if (!started.ok()) {
        outcome.error = "daemon start: " + started.toString();
        return outcome;
    }
    // The fill runs at the run's jobs; store keys and dataset bytes
    // do not depend on the worker count.
    serve::CampaignSpec fill;
    fill.seed = seed;
    fill.jobs = jobs;
    serve::CampaignOutcome filled =
        serve::runCampaign(fill, daemon->server.store(), {},
                           gemstone::CancellationToken());
    outcome.seconds = nowSeconds() - t0;
    if (filled.outcome != serve::RequestOutcome::Ok)
        outcome.error = "store fill failed: " + filled.error;
    outcome.csv = std::move(filled.datasetCsv);
    return outcome;
}

/**
 * A set-up in a child forked before this process has simulated or
 * started a thread, so every repetition starts as cold as the first.
 */
SetupOutcome
setUpInChild(const std::string &dir, std::uint64_t seed, unsigned jobs)
{
    ChildRun run = runInChild([&] {
        std::unique_ptr<Daemon> daemon;
        SetupOutcome child = setUp(dir, seed, jobs, daemon);
        gemstone::Status stopped =
            daemon ? daemon->stop() : gemstone::Status::okStatus();
        if (child.error.empty() && !stopped.ok())
            child.error = "daemon loop: " + stopped.toString();
        return child.error.empty()
            ? exact(child.seconds) + "\n" + child.csv
            : "error " + child.error;
    });
    std::error_code ec;
    fs::remove_all(dir, ec);
    SetupOutcome outcome;
    if (!run.ok) {
        outcome.error = run.error;
    } else if (run.output.rfind("error ", 0) == 0) {
        outcome.error = run.output.substr(6);
    } else {
        std::size_t eol = run.output.find('\n');
        outcome.seconds = std::stod(run.output.substr(0, eol));
        outcome.csv =
            eol == std::string::npos ? "" : run.output.substr(eol + 1);
    }
    return outcome;
}

/** One request's timeline and verdict. */
struct Request
{
    double submitted = 0.0;
    double accepted = 0.0;
    double firstPoint = 0.0;
    double summary = 0.0;
    /** Why the request failed its check; "" when it passed. */
    std::string why;
};

/** Submit the default campaign and check the served dataset. */
Request
submitOne(serve::Client &client, std::uint64_t seed, bool durable,
          const std::string &tag, const std::string &reference)
{
    serve::CampaignSpec spec;
    spec.seed = seed;
    spec.durable = durable;
    // A unique tag per request keeps durable submits from coalescing
    // onto one daemon request.
    spec.tag = tag;
    Request request;
    serve::Client::Callbacks callbacks;
    callbacks.onAccepted = [&](const serve::Accepted &) {
        request.accepted = nowSeconds();
    };
    callbacks.onPoint = [&](const serve::PointUpdate &) {
        if (request.firstPoint == 0.0)
            request.firstPoint = nowSeconds();
    };
    serve::Client::SubmitResult reply;
    request.submitted = nowSeconds();
    gemstone::Status submitted = client.submit(spec, reply, callbacks);
    request.summary = nowSeconds();
    if (!submitted.ok()) {
        request.why = "transport: " + submitted.toString();
        client.close();
    } else if (!reply.accepted) {
        request.why = "rejected: " + reply.rejection.message;
    } else if (reply.summary.outcome != serve::RequestOutcome::Ok) {
        request.why = "request failed: " + reply.summary.error;
    } else if (digest(reply.summary.datasetCsv) != reference) {
        request.why = "served dataset differs from the reference";
    } else if (request.accepted == 0.0 || request.firstPoint == 0.0) {
        request.why = "no Accepted or PointResult before the Summary";
    }
    if (!request.why.empty())
        std::cerr << "request " << tag << " failed: " << request.why
                  << "\n";
    return request;
}

/** Record @p request as op @p op: a root span and three children
 *  that tile it. */
int
traceRequest(Tracer &tracer, const std::string &root_name,
             const Request &request, std::uint64_t op)
{
    int root = tracer.add(
        {root_name, request.submitted, request.summary, -1, op});
    tracer.add({"serve.accept", request.submitted, request.accepted, root,
                op});
    tracer.add({"serve.first_point", request.accepted, request.firstPoint,
                root, op});
    tracer.add({"serve.stream", request.firstPoint, request.summary, root,
                op});
    return root;
}

/** What one client thread measured. */
struct ClientLog
{
    std::vector<OpSample> ops;
    OpTally tally;
};

/** A closed loop of submits until @p deadline. */
void
clientLoop(unsigned id, const std::string &socket,
           const RunConfig &config, const std::string &reference,
           double deadline, Tracer &tracer, ClientLog &log)
{
    serve::Client client;
    for (std::uint64_t n = 0; nowSeconds() < deadline; ++n) {
        if (!client.connected()) {
            gemstone::Status connected = client.connectUnix(socket);
            if (!connected.ok()) {
                std::cerr << "client " << id << ": "
                          << connected.toString() << "\n";
                log.tally.record(false);
                break;
            }
        }
        Request request = submitOne(
            client, config.seed, false,
            "perfbench-c" + std::to_string(id) + "-" + std::to_string(n),
            reference);
        OpSample sample;
        sample.wall = request.summary - request.submitted;
        sample.ok = request.why.empty();
        if (config.trace && n % 2 == 0 && sample.ok) {
            sample.traced = true;
            sample.root = traceRequest(tracer, "serve.request", request,
                                       tracer.nextOp());
        }
        log.tally.record(sample.ok);
        log.ops.push_back(sample);
    }
}

/**
 * Durable requests, one at a time, each journaled and checkpointed
 * point by point under the daemon's journal directory: their median
 * latency and the bytes and write calls each hands to write(2).
 */
void
durableProbe(const std::string &socket, const RunConfig &config,
             const std::string &reference, Tracer &tracer,
             WorkloadResult &result)
{
    serve::Client client;
    gemstone::Status connected = client.connectUnix(socket);
    if (!connected.ok()) {
        std::cerr << "durable probe: " << connected.toString() << "\n";
        result.tally.record(false);
        return;
    }
    std::vector<double> latencies;
    const IoCounters io0 = readProcIo();
    for (int n = 0; n < kProbeRequests; ++n) {
        Request request = submitOne(client, config.seed, true,
                                    "perfbench-durable-" +
                                        std::to_string(n),
                                    reference);
        result.tally.record(request.why.empty());
        latencies.push_back(request.summary - request.submitted);
        if (request.why.empty())
            traceRequest(tracer, "serve.durable_request", request,
                         tracer.nextOp());
    }
    const IoCounters written = ioDelta(io0, readProcIo());
    result.layer["serve.durable_op_s"] = median(latencies);
    if (written.ok) {
        result.layer["serve.write_mb_per_req"] =
            static_cast<double>(written.wchar) / 1e6 / kProbeRequests;
        result.layer["serve.write_calls_per_req"] =
            static_cast<double>(written.syscw) / kProbeRequests;
    }
}

/** Median wall time of in-process campaigns on the daemon's warm
 *  store, with or without a checkpoint file. */
double
campaignProbe(const std::string &name, const std::string &checkpoint,
              const RunConfig &config, Daemon &daemon,
              const std::string &reference, Tracer &tracer,
              WorkloadResult &result)
{
    std::vector<double> times;
    for (int rep = 0; rep < kProbeRequests; ++rep) {
        serve::RunOptions options;
        options.checkpointPath = checkpoint;
        std::error_code ec;
        if (!checkpoint.empty())
            fs::remove(checkpoint, ec);
        serve::CampaignSpec spec;
        spec.seed = config.seed;
        const double t0 = nowSeconds();
        serve::CampaignOutcome outcome = serve::runCampaign(
            spec, daemon.server.store(), {},
            gemstone::CancellationToken(), options);
        const double t1 = nowSeconds();
        tracer.add({name, t0, t1, -1, tracer.nextOp()});
        times.push_back(t1 - t0);
        const bool ok = outcome.outcome == serve::RequestOutcome::Ok &&
                        digest(outcome.datasetCsv) == reference;
        if (!ok)
            std::cerr << name << " probe failed: " << outcome.error
                      << "\n";
        result.tally.record(ok);
    }
    return median(times);
}

/** The durable and campaign probes, then the daemon's counters;
 *  stops the daemon. */
void
finishDaemon(Daemon &daemon, const std::string &dir,
             const RunConfig &config, const std::string &reference,
             Tracer &tracer, WorkloadResult &result)
{
    if (config.trace) {
        durableProbe(Daemon::socketPath(dir), config, reference, tracer,
                     result);
        result.layer["gemstone.campaign_s"] =
            campaignProbe("gemstone.campaign", "", config, daemon,
                          reference, tracer, result);
        result.layer["gemstone.campaign_ckpt_s"] = campaignProbe(
            "gemstone.campaign_ckpt", dir + "/probe.ckpt.csv", config,
            daemon, reference, tracer, result);
    }
    const serve::DaemonStats stats = daemon.server.statsSnapshot();
    result.layer["serve.rejected"] =
        static_cast<double>(stats.requestsRejected);
    result.layer["serve.failed"] = static_cast<double>(stats.requestsFailed);
    gemstone::Status stopped = daemon.stop();
    if (!stopped.ok()) {
        result.setupOk = false;
        result.setupError = "daemon loop: " + stopped.toString();
    }
}

} // namespace

WorkloadResult
runServeWorkload(const RunConfig &config, Tracer &tracer)
{
    WorkloadResult result;
    result.clients = kClients;

    // The report layers' probes fork, so they run while this process
    // has neither simulated nor started a thread.
    if (config.trace)
        runReportProbes(config, true, tracer, result);

    // Set-up: all but the last repetition in forked children, the
    // last in process; that daemon serves the run.
    std::vector<SetupOutcome> setups;
    for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
        setups.push_back(setUpInChild(
            config.workdir + "/setup" + std::to_string(rep), config.seed,
            config.jobs));
    }
    const std::string dir = config.workdir + "/daemon";
    std::unique_ptr<Daemon> daemon;
    setups.push_back(setUp(dir, config.seed, config.jobs, daemon));

    Golden reference;
    bool have_reference = false;
    if (config.seed == kDefaultSeed && !goldenServe().digests.empty()) {
        reference = goldenServe();
        have_reference = true;
    }
    for (std::size_t rep = 0; rep < setups.size(); ++rep) {
        const SetupOutcome &setup = setups[rep];
        result.setupSeconds.push_back(setup.seconds);
        Golden got{{{"dataset.csv", digest(setup.csv)}},
                   exact(csvMapePct(setup.csv))};
        if (!setup.error.empty()) {
            result.setupOk = false;
            result.setupError = setup.error;
        } else if (!have_reference) {
            reference = got;
            have_reference = true;
        } else if (got.digests != reference.digests ||
                   got.mapePct != reference.mapePct) {
            result.setupOk = false;
            result.setupError = "set-up " + std::to_string(rep) +
                                ": dataset differs from the reference";
        }
    }
    if (!have_reference || !setups.back().error.empty())
        return result;
    result.reference = reference;
    result.mapePct = std::stod(reference.mapePct);
    const std::string expected = reference.digests.at("dataset.csv");

    const std::shared_ptr<gemstone::exec::ResultStore> &store =
        daemon->server.store();
    const gemstone::exec::ResultStore::Stats store0 = store->stats();
    const gemstone::isa::PredecodeCacheStats decode0 =
        gemstone::isa::predecodeCacheStats();
    const double cpu0 = processCpuSeconds();
    const double start = nowSeconds();
    const double deadline = start + config.seconds;

    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> clients;
    for (unsigned id = 0; id < kClients; ++id) {
        clients.emplace_back(clientLoop, id, Daemon::socketPath(dir),
                             std::cref(config), std::cref(expected),
                             deadline, std::ref(tracer),
                             std::ref(logs[id]));
    }
    for (std::thread &client : clients)
        client.join();

    result.windowSeconds = nowSeconds() - start;
    result.cpuSeconds = processCpuSeconds() - cpu0;
    const gemstone::isa::PredecodeCacheStats decode1 =
        gemstone::isa::predecodeCacheStats();
    const gemstone::exec::ResultStore::Stats store1 = store->stats();
    for (ClientLog &log : logs) {
        result.tally.attempted += log.tally.attempted;
        result.tally.failed += log.tally.failed;
        for (OpSample &sample : log.ops)
            result.ops.push_back(std::move(sample));
    }

    const double hits = static_cast<double>(store1.hits - store0.hits);
    const double misses =
        static_cast<double>(store1.misses - store0.misses);
    result.layer["exec.store_hit_ratio"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    result.layer["isa.predecode_hits"] =
        static_cast<double>(decode1.hits - decode0.hits);
    result.layer["isa.predecode_misses"] =
        static_cast<double>(decode1.misses - decode0.misses);
    finishDaemon(*daemon, dir, config, expected, tracer, result);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    result.peakRssMb = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
    return result;
}

void
runServeProbes(const RunConfig &config, Tracer &tracer,
               WorkloadResult &result)
{
    const std::string dir = config.workdir + "/probe_daemon";
    std::unique_ptr<Daemon> daemon;
    SetupOutcome setup = setUp(dir, config.seed, config.jobs, daemon);
    if (!setup.error.empty()) {
        std::cerr << "serve probe: " << setup.error << "\n";
        result.tally.record(false);
        return;
    }
    const std::string expected =
        config.seed == kDefaultSeed && !goldenServe().digests.empty()
            ? goldenServe().digests.at("dataset.csv")
            : digest(setup.csv);
    serve::Client client;
    gemstone::Status connected =
        client.connectUnix(Daemon::socketPath(dir));
    for (int n = 0; connected.ok() && n < kProbeRequests; ++n) {
        Request request =
            submitOne(client, config.seed, false,
                      "perfbench-probe-" + std::to_string(n), expected);
        OpSample sample;
        sample.wall = request.summary - request.submitted;
        sample.ok = request.why.empty();
        result.tally.record(sample.ok);
        if (sample.ok) {
            sample.traced = true;
            sample.root = traceRequest(tracer, "serve.request", request,
                                       tracer.nextOp());
            result.probes.push_back(sample);
        }
    }
    if (!connected.ok()) {
        std::cerr << "serve probe: " << connected.toString() << "\n";
        result.tally.record(false);
    }
    client.close();
    finishDaemon(*daemon, dir, config, expected, tracer, result);
}

} // namespace perfbench
