/**
 * @file
 * Descriptive statistics implementation.
 */

#include "mlstat/descriptive.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.hh"

namespace gemstone::mlstat {

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
variance(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    double mu = mean(values);
    double sum = 0.0;
    for (double v : values)
        sum += (v - mu) * (v - mu);
    return sum / static_cast<double>(values.size());
}

double
stddev(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    double mu = mean(values);
    double sum = 0.0;
    for (double v : values)
        sum += (v - mu) * (v - mu);
    return std::sqrt(sum / static_cast<double>(values.size() - 1));
}

double
median(std::vector<double> values)
{
    return medianInPlace(values);
}

double
medianInPlace(std::span<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
minValue(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return *std::min_element(values.begin(), values.end());
}

double
maxValue(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return *std::max_element(values.begin(), values.end());
}

double
percentError(double reference, double estimate)
{
    panic_if(reference == 0.0, "percentError with zero reference");
    return (reference - estimate) / reference;
}

double
meanPercentError(const std::vector<double> &reference,
                 const std::vector<double> &estimate)
{
    panic_if(reference.size() != estimate.size(),
             "meanPercentError shape mismatch");
    if (reference.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i)
        sum += percentError(reference[i], estimate[i]);
    return sum / static_cast<double>(reference.size());
}

double
meanAbsPercentError(const std::vector<double> &reference,
                    const std::vector<double> &estimate)
{
    panic_if(reference.size() != estimate.size(),
             "meanAbsPercentError shape mismatch");
    if (reference.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i)
        sum += std::fabs(percentError(reference[i], estimate[i]));
    return sum / static_cast<double>(reference.size());
}

std::vector<double>
zscore(const std::vector<double> &values)
{
    std::vector<double> out(values.size(), 0.0);
    double sigma = stddev(values);
    if (sigma < 1e-15)
        return out;
    double mu = mean(values);
    for (std::size_t i = 0; i < values.size(); ++i)
        out[i] = (values[i] - mu) / sigma;
    return out;
}

std::size_t
argMin(const std::vector<double> &values)
{
    if (values.empty())
        return SIZE_MAX;
    return static_cast<std::size_t>(
        std::min_element(values.begin(), values.end()) - values.begin());
}

std::size_t
argMax(const std::vector<double> &values)
{
    if (values.empty())
        return SIZE_MAX;
    return static_cast<std::size_t>(
        std::max_element(values.begin(), values.end()) - values.begin());
}

} // namespace gemstone::mlstat
