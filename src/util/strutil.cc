/**
 * @file
 * String helper implementations.
 */

#include "util/strutil.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace gemstone {

std::vector<std::string>
split(const std::string &text, char delim)
{
    std::vector<std::string> fields;
    std::string current;
    for (char c : text) {
        if (c == delim) {
            fields.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    fields.push_back(current);
    return fields;
}

std::string
trim(const std::string &text)
{
    return std::string(trimView(text));
}

std::string_view
trimView(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
                              text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
                              text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
        text.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
        text.compare(text.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::string
join(const std::vector<std::string> &items, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += sep;
        out += items[i];
    }
    return out;
}

std::string
toLower(const std::string &text)
{
    std::string out = text;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

std::string
formatDouble(double value, int decimals)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
}

void
appendExactDouble(std::string &out, double value)
{
    // "-d.dddddddddddddddde-308" is 24 characters.
    char buffer[32];
    const std::to_chars_result written =
        std::to_chars(buffer, buffer + sizeof(buffer), value,
                      std::chars_format::general, 17);
    out.append(buffer, written.ptr);
}

std::string
formatExactDouble(double value)
{
    std::string out;
    appendExactDouble(out, value);
    return out;
}

bool
parseFiniteDouble(std::string_view text, double &out)
{
    std::size_t i = 0;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
        ++i;
    }
    // from_chars takes neither '+' nor the "0x" prefix, and parses
    // hex only when told to: peel both off here.
    bool negative = false;
    if (i < text.size() && (text[i] == '+' || text[i] == '-'))
        negative = text[i++] == '-';
    std::chars_format format = std::chars_format::general;
    if (text.size() - i >= 2 && text[i] == '0' &&
        (text[i + 1] == 'x' || text[i + 1] == 'X')) {
        format = std::chars_format::hex;
        i += 2;
    }
    const char *first = text.data() + i;
    const char *last = text.data() + text.size();
    if (first == last || *first == '+' || *first == '-')
        return false;
    double value = 0.0;
    const std::from_chars_result parsed =
        std::from_chars(first, last, value, format);
    if (parsed.ec != std::errc() || parsed.ptr != last ||
        !std::isfinite(value)) {
        return false;
    }
    out = negative ? -value : value;
    return true;
}

std::string
formatRatio(double value)
{
    int decimals = 1;
    double magnitude = std::fabs(value);
    if (magnitude < 0.1)
        decimals = 3;
    else if (magnitude < 1.0)
        decimals = 2;
    return formatDouble(value, decimals) + "x";
}

std::string
formatPercent(double fraction, int decimals)
{
    return formatDouble(fraction * 100.0, decimals) + "%";
}

SortedNameCursor::SortedNameCursor(
    std::span<const std::string_view> names)
    : names(names)
{
    panic_if(names.size() > kMaxNames, "name table of ", names.size(),
             " entries exceeds the cursor's ", kMaxNames);
}

std::size_t
SortedNameCursor::find(std::string_view name)
{
    if (next < names.size() && names[next] == name)
        return next++;
    auto it = std::lower_bound(names.begin(), names.end(), name);
    if (it == names.end() || *it != name)
        return npos;
    next = static_cast<std::size_t>(it - names.begin()) + 1;
    return next - 1;
}

void
SortedNameCursor::markPresent(std::size_t index)
{
    if (!present.test(index)) {
        present.set(index);
        ++presentCount;
    }
}

} // namespace gemstone
