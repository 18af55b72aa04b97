/**
 * @file
 * PowerModelBuilder implementation.
 */

#include "powmon/builder.hh"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hh"
#include "hwsim/pmu.hh"
#include "mlstat/descriptive.hh"
#include "util/logging.hh"

namespace gemstone::powmon {

PowerModelBuilder::PowerModelBuilder(
    std::vector<PowerObservation> observations,
    std::string cluster_name)
    : obs(std::move(observations)), clusterName(std::move(cluster_name))
{
    fatal_if(obs.empty(), "no observations to build from");
}

namespace {

/** Rates of one spec across a set of observations. */
std::vector<double>
rateColumn(const EventSpec &spec,
           const std::vector<PowerObservation> &obs)
{
    std::vector<double> column;
    column.reserve(obs.size());
    for (const PowerObservation &o : obs)
        column.push_back(spec.hwRate(o.measurement));
    return column;
}

} // namespace

SelectionResult
PowerModelBuilder::selectEvents(const SelectionConfig &config) const
{
    // Build the candidate pool.
    std::vector<EventSpec> candidates;
    std::vector<int> pool = config.pool.empty()
        ? hwsim::PmuEventTable::allIds()
        : config.pool;
    for (int id : pool) {
        if (config.excluded.count(id))
            continue;
        if (config.requireG5Equivalent &&
            !EventSpecTable::hasG5Equivalent(id)) {
            continue;
        }
        candidates.push_back(EventSpecTable::forPmc(id));
    }
    for (const EventSpec &composite : config.composites)
        candidates.push_back(composite);

    // Precompute rate columns and the response.
    std::vector<std::vector<double>> columns;
    columns.reserve(candidates.size());
    for (const EventSpec &spec : candidates)
        columns.push_back(rateColumn(spec, obs));
    std::vector<double> response;
    response.reserve(obs.size());
    for (const PowerObservation &o : obs)
        response.push_back(o.power());

    SelectionResult result;
    // Chosen candidates, and degenerate (constant) ones, which can
    // never be selected.
    std::vector<bool> unavailable(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c)
        unavailable[c] = mlstat::stddev(columns[c]) < 1e-12;
    std::vector<std::size_t> chosen;
    double best_adj_r2 = -1.0;

    // Each round scans the remaining candidates in order against an
    // evolving round_best. The checks run cheapest first, and the
    // mean VIF (k+1 extra fits) only for a candidate that already
    // beats round_best significantly.
    while (chosen.size() < config.maxEvents) {
        std::size_t best_index = SIZE_MAX;
        double round_best = best_adj_r2;
        std::vector<std::vector<double>> design;
        for (std::size_t s : chosen)
            design.push_back(columns[s]);
        design.emplace_back();
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            if (unavailable[c])
                continue;
            design.back() = columns[c];

            mlstat::OlsResult fit = mlstat::fitOls(design, response, true);
            if (!fit.ok || fit.adjustedR2 <= round_best + config.minGain)
                continue;
            bool significant = true;
            for (std::size_t k = 1; k < fit.pValues.size(); ++k) {
                if (fit.pValues[k] > config.pValueStop) {
                    significant = false;
                    break;
                }
            }
            if (!significant ||
                mlstat::mean(mlstat::varianceInflation(design)) >
                    config.maxMeanVif) {
                continue;
            }
            round_best = fit.adjustedR2;
            best_index = c;
        }

        if (best_index == SIZE_MAX)
            break;
        unavailable[best_index] = true;
        chosen.push_back(best_index);
        best_adj_r2 = round_best;
        result.adjR2Trajectory.push_back(round_best);
    }

    for (std::size_t s : chosen)
        result.events.push_back(candidates[s]);
    return result;
}

PowerModel
PowerModelBuilder::build(const std::vector<EventSpec> &events,
                         unsigned jobs) const
{
    fatal_if(events.empty(), "cannot build a model with no events");

    PowerModel model;
    model.clusterName = clusterName;
    model.events = events;

    // Group observations by frequency.
    std::vector<double> freqs;
    for (const PowerObservation &o : obs) {
        if (std::find(freqs.begin(), freqs.end(), o.freqMhz()) ==
            freqs.end()) {
            freqs.push_back(o.freqMhz());
        }
    }
    std::sort(freqs.begin(), freqs.end());

    // One independent OLS per frequency; slot f gathers frequency f's
    // model, so perFrequency keeps its ascending order at any jobs
    // count.
    model.perFrequency.resize(freqs.size());
    exec::parallelFor(jobs, freqs.size(), [&](std::size_t f) {
        const double freq = freqs[f];
        std::vector<const PowerObservation *> group;
        for (const PowerObservation &o : obs) {
            if (o.freqMhz() == freq)
                group.push_back(&o);
        }
        fatal_if(group.size() < events.size() + 2,
                 "too few observations (", group.size(), ") at ",
                 freq, " MHz for ", events.size(), " events");

        std::vector<std::vector<double>> design(events.size());
        std::vector<double> response;
        for (const PowerObservation *o : group) {
            for (std::size_t e = 0; e < events.size(); ++e) {
                design[e].push_back(
                    events[e].hwRate(o->measurement));
            }
            response.push_back(o->power());
        }

        FrequencyModel fm;
        fm.freqMhz = freq;
        fm.voltage = group.front()->measurement.voltage;
        fm.fit = mlstat::fitOls(design, response, true);
        fatal_if(!fm.fit.ok, "OLS failed at ", freq, " MHz for ",
                 clusterName);
        model.perFrequency[f] = std::move(fm);
    });
    return model;
}

PowerModelQuality
PowerModelBuilder::validate(
    const PowerModel &model,
    const std::vector<PowerObservation> &observations,
    unsigned jobs)
{
    PowerModelQuality q;
    q.observations = observations.size();

    std::vector<double> measured;
    std::vector<double> estimated;
    double rss = 0.0;
    for (const PowerObservation &o : observations) {
        double est = model.estimateHw(o.measurement);
        measured.push_back(o.power());
        estimated.push_back(est);
        double err = o.power() - est;
        rss += err * err;

        double ape = std::fabs(err) / o.power();
        if (ape > q.maxAbsError) {
            q.maxAbsError = ape;
            q.worstObservation = o.workload() + " @" +
                std::to_string(static_cast<int>(o.freqMhz())) +
                " MHz";
        }
    }

    q.mape = mlstat::meanAbsPercentError(measured, estimated);
    q.mpe = mlstat::meanPercentError(measured, estimated);

    double n = static_cast<double>(observations.size());
    double p = static_cast<double>(model.events.size()) + 1.0;
    if (n > p) {
        q.ser = std::sqrt(rss / (n - p));
        double mean_y = mlstat::mean(measured);
        double tss = 0.0;
        for (double y : measured)
            tss += (y - mean_y) * (y - mean_y);
        if (tss > 1e-24) {
            double r2 = 1.0 - rss / tss;
            q.adjustedR2 =
                1.0 - (rss / (n - p)) / (tss / (n - 1.0));
            (void)r2;
        }
    }

    // Mean VIF over the pooled design.
    std::vector<std::vector<double>> design(model.events.size());
    for (const PowerObservation &o : observations) {
        for (std::size_t e = 0; e < model.events.size(); ++e)
            design[e].push_back(model.events[e].hwRate(o.measurement));
    }
    q.meanVif = mlstat::mean(mlstat::varianceInflation(design, jobs));
    return q;
}

} // namespace gemstone::powmon
