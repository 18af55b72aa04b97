/**
 * @file
 * Small string helpers shared across the project.
 */

#ifndef GEMSTONE_UTIL_STRUTIL_HH
#define GEMSTONE_UTIL_STRUTIL_HH

#include <string>
#include <string_view>
#include <vector>

namespace gemstone {

/** Split text on a delimiter character; empty fields are kept. */
std::vector<std::string> split(const std::string &text, char delim);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string &text);

/** trim() without the copy: the result aliases @p text. */
std::string_view trimView(std::string_view text);

/** True if text starts with the given prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** True if text ends with the given suffix. */
bool endsWith(const std::string &text, const std::string &suffix);

/** Join items with a separator. */
std::string join(const std::vector<std::string> &items,
                 const std::string &sep);

/** Lower-case an ASCII string. */
std::string toLower(const std::string &text);

/** printf-style number formatting with fixed decimals. */
std::string formatDouble(double value, int decimals);

/**
 * Round-trip-exact decimal form (17 significant digits, the bytes
 * printf's "%.17g" gives), so a value written to a checkpoint parses
 * back bit-identical through parseFiniteDouble(), subnormals
 * included. Used everywhere a persisted double must survive a
 * save/load cycle unchanged.
 */
std::string formatExactDouble(double value);

/** Append formatExactDouble(@p value) to @p out without a temporary. */
void appendExactDouble(std::string &out, double value);

/**
 * Strict parse of a whole string as a finite double: optional
 * leading whitespace, an optional sign, then a decimal or 0x-prefixed
 * hexadecimal number that must run to the end of @p text. Empty
 * text, trailing characters, inf/nan and values that overflow or
 * underflow to zero are rejected; subnormals are accepted, so every
 * formatExactDouble() output parses back bit-exactly. On success
 * @p out receives the value; on failure it is left untouched.
 */
bool parseFiniteDouble(std::string_view text, double &out);

/**
 * Human-readable multiplier such as "9.9x" or "0.06x"; small values
 * keep more significant digits so ratios like 0.06x stay readable.
 */
std::string formatRatio(double value);

/** Format a fraction as a percentage string, e.g. "-51.0%". */
std::string formatPercent(double fraction, int decimals = 1);

} // namespace gemstone

#endif // GEMSTONE_UTIL_STRUTIL_HH
