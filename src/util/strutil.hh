/**
 * @file
 * Small string helpers shared across the project.
 */

#ifndef GEMSTONE_UTIL_STRUTIL_HH
#define GEMSTONE_UTIL_STRUTIL_HH

#include <bitset>
#include <cstddef>
#include <span>
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

/**
 * Matches the names of one record against a sorted table of names.
 * Records are usually written in table order, so the entry after the
 * last match is tried first (one compare) and a binary search of the
 * table is only the fallback. The cursor also records which entries
 * were marked present, so a decoder can tell whether the record
 * carried the table's complete schema.
 */
class SortedNameCursor
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    /** Largest table a cursor tracks. */
    static constexpr std::size_t kMaxNames = 256;

    /** @param names sorted and unique, at most kMaxNames; not copied,
     *  so it must outlive the cursor */
    explicit SortedNameCursor(std::span<const std::string_view> names);

    /** Index of @p name in the table, or npos when it has none. */
    std::size_t find(std::string_view name);

    /** Mark table entry @p index present. */
    void markPresent(std::size_t index);

    /** True when every table entry was marked present. */
    bool complete() const { return presentCount == names.size(); }

  private:
    std::span<const std::string_view> names;
    std::size_t next = 0;
    std::size_t presentCount = 0;
    std::bitset<kMaxNames> present;
};

} // namespace gemstone

#endif // GEMSTONE_UTIL_STRUTIL_HH
