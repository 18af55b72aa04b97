/**
 * @file
 * Descriptive statistics used throughout the GemStone analyses.
 *
 * The paper reports model quality as Mean Absolute Percentage Error
 * (MAPE) and Mean Percentage Error (MPE). Following the paper's sign
 * convention, a *negative* execution-time MPE means the model
 * overestimates the execution time (underestimates performance).
 */

#ifndef GEMSTONE_MLSTAT_DESCRIPTIVE_HH
#define GEMSTONE_MLSTAT_DESCRIPTIVE_HH

#include <cstddef>
#include <span>
#include <vector>

namespace gemstone::mlstat {

/** Arithmetic mean; 0 for an empty input. */
double mean(const std::vector<double> &values);

/** Sample standard deviation (n-1 denominator); 0 if n < 2. */
double stddev(const std::vector<double> &values);

/** Population variance helper used by z-scoring. */
double variance(const std::vector<double> &values);

/** Median (copies and sorts); 0 for an empty input. */
double median(std::vector<double> values);

/** median() of @p values, sorting them in place. */
double medianInPlace(std::span<double> values);

/** Minimum; 0 for an empty input. */
double minValue(const std::vector<double> &values);

/** Maximum; 0 for an empty input. */
double maxValue(const std::vector<double> &values);

/**
 * Percentage error of one estimate against a reference:
 * (reference - estimate) / reference.
 *
 * For execution time this matches the paper: an estimate larger than
 * the reference (overestimated execution time) gives a negative value.
 */
double percentError(double reference, double estimate);

/** Mean percentage error across paired observations. */
double meanPercentError(const std::vector<double> &reference,
                        const std::vector<double> &estimate);

/** Mean absolute percentage error across paired observations. */
double meanAbsPercentError(const std::vector<double> &reference,
                           const std::vector<double> &estimate);

/** Z-score a vector in place; constant vectors become all zero. */
std::vector<double> zscore(const std::vector<double> &values);

/** Index of the minimum element; SIZE_MAX for empty input. */
std::size_t argMin(const std::vector<double> &values);

/** Index of the maximum element; SIZE_MAX for empty input. */
std::size_t argMax(const std::vector<double> &values);

} // namespace gemstone::mlstat

#endif // GEMSTONE_MLSTAT_DESCRIPTIVE_HH
