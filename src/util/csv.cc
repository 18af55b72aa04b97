/**
 * @file
 * CsvWriter and CsvReader implementations.
 */

#include "util/csv.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/atomicfile.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone {

namespace {

/** Bytes that end an unquoted run: separator, quote, line ends. */
constexpr std::array<bool, 256> kCsvSpecial = [] {
    std::array<bool, 256> special{};
    for (unsigned char c : {',', '"', '\n', '\r'})
        special[c] = true;
    return special;
}();

bool
isCsvSpecial(char c)
{
    return kCsvSpecial[static_cast<unsigned char>(c)];
}

/** Append one rendered record: quoted cells, comma-joined, '\n'. */
void
appendRecord(std::string &out, const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            out.push_back(',');
        CsvWriter::appendQuoted(out, cells[i]);
    }
    out.push_back('\n');
}

} // namespace

CsvWriter::CsvWriter(const std::vector<std::string> &header)
    : width(header.size())
{
    appendRecord(document, header);
}

void
CsvWriter::addRow(const std::vector<std::string> &cells)
{
    panic_if(cells.size() != width, "csv row width mismatch: ",
             cells.size(), " vs ", width);
    appendRecord(document, cells);
}

void
CsvWriter::addNumericRow(const std::string &key,
                         const std::vector<double> &values)
{
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(key);
    for (double v : values)
        cells.push_back(formatDouble(v, 9));
    addRow(cells);
}

void
CsvWriter::appendQuoted(std::string &out, std::string_view field)
{
    // Three memchr-backed searches: find_first_of tests the whole set
    // per character, which made quoting the bulk of a store save.
    const bool needs_quotes = field.find(',') != field.npos ||
        field.find('"') != field.npos || field.find('\n') != field.npos;
    if (!needs_quotes) {
        out.append(field);
        return;
    }
    out.push_back('"');
    for (char c : field) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
}

void
CsvWriter::write(std::ostream &os) const
{
    os.write(document.data(),
             static_cast<std::streamsize>(document.size()));
}

bool
CsvWriter::writeFile(const std::string &path) const
{
    std::ofstream file(path);
    if (!file)
        return false;
    write(file);
    return static_cast<bool>(file);
}

Status
CsvWriter::writeFileAtomic(const std::string &path,
                           bool with_marker) const
{
    return atomicWriteFile(path, document,
                           with_marker ? kCsvIntegrityMarker
                                       : std::string());
}

namespace {

/**
 * Scan position over a document that is unescaped in place: a cell's
 * text never grows when its quotes are removed, so the write offset
 * always trails the read offset and the unescaped cells are packed
 * into the front of the same buffer.
 */
struct ScanCursor
{
    char *data;
    std::size_t size;
    std::size_t read = 0;
    std::size_t write = 0;
    std::size_t line = 1;

    /** Move the bytes [read, stop) to the write offset. */
    void
    copyTo(std::size_t stop)
    {
        const std::size_t count = stop - read;
        if (write != read)
            std::memmove(data + write, data + read, count);
        write += count;
        read = stop;
    }
};

/**
 * Scan one RFC-4180 record at the cursor, appending the end offset of
 * each of its unescaped cells to @p ends. Returns false at end of
 * input. Quoted fields may span lines, so the record may consume
 * several physical lines; the cursor's line is advanced accordingly.
 * @p at_eof is set when the record ended at end of input rather than
 * at a newline — i.e. this is the document's final, possibly torn,
 * record. Only the record's first structural problem is recorded.
 */
bool
scanRecord(ScanCursor &cur, std::vector<std::size_t> &ends,
           std::vector<CsvError> &errors, bool &at_eof)
{
    at_eof = false;
    if (cur.read == cur.size)
        return false;

    const std::size_t start_line = cur.line;
    std::size_t field_start = cur.write;
    bool quoted = false;       // inside a quoted field
    bool was_quoted = false;   // field began with a quote
    bool clean = true;

    auto fail = [&](const char *message) {
        if (clean)
            errors.push_back({start_line, message});
        clean = false;
    };

    while (cur.read < cur.size) {
        if (quoted) {
            const char *quote = static_cast<const char *>(std::memchr(
                cur.data + cur.read, '"', cur.size - cur.read));
            const std::size_t stop =
                quote ? static_cast<std::size_t>(quote - cur.data)
                      : cur.size;
            cur.line += static_cast<std::size_t>(
                std::count(cur.data + cur.read, cur.data + stop, '\n'));
            cur.copyTo(stop);
            if (cur.read == cur.size)
                break;
            if (cur.read + 1 < cur.size &&
                cur.data[cur.read + 1] == '"') {
                cur.data[cur.write++] = '"';
                cur.read += 2;
            } else {
                quoted = false;
                ++cur.read;
            }
            continue;
        }
        const char c = cur.data[cur.read];
        if (c == '"') {
            if (cur.write == field_start && !was_quoted) {
                quoted = true;
                was_quoted = true;
            } else {
                fail(was_quoted
                         ? "text after closing quote"
                         : "stray quote inside unquoted field");
                cur.data[cur.write++] = c;
            }
            ++cur.read;
        } else if (c == ',') {
            ends.push_back(cur.write);
            field_start = cur.write;
            was_quoted = false;
            ++cur.read;
        } else if (c == '\r' && cur.read + 1 < cur.size &&
                   cur.data[cur.read + 1] == '\n') {
            // CRLF: fold into the LF case on the next iteration.
            ++cur.read;
        } else if (c == '\n') {
            ++cur.read;
            ++cur.line;
            ends.push_back(cur.write);
            return true;
        } else {
            if (was_quoted)
                fail("text after closing quote");
            // Plain run: everything up to the next special byte moves
            // in one copy (a lone '\r' is plain text).
            std::size_t stop = cur.read + 1;
            while (stop < cur.size && !isCsvSpecial(cur.data[stop]))
                ++stop;
            cur.copyTo(stop);
        }
    }
    if (quoted)
        fail("unterminated quoted field");
    // Final record without a trailing newline.
    at_eof = true;
    ends.push_back(cur.write);
    ++cur.line;
    return true;
}

} // namespace

CsvReader
CsvReader::parseText(std::string text)
{
    CsvReader reader;
    reader.cellText = std::move(text);
    ScanCursor cur{reader.cellText.data(), reader.cellText.size()};
    std::vector<std::size_t> &ends = reader.cellEnds;
    bool at_eof = false;

    if (!scanRecord(cur, ends, reader.parseErrors, at_eof)) {
        reader.parseErrors.push_back({1, "empty document: no header"});
        return reader;
    }
    std::size_t begin = 0;
    for (std::size_t end : ends) {
        reader.headerCells.emplace_back(reader.cellText.data() + begin,
                                        end - begin);
        begin = end;
    }
    ends.clear();
    cur.write = 0;
    const std::size_t width = reader.headerCells.size();

    while (true) {
        const std::size_t record_line = cur.line;
        const std::size_t errors_before = reader.parseErrors.size();
        const std::size_t first_cell = ends.size();
        const std::size_t record_start = cur.write;
        if (!scanRecord(cur, ends, reader.parseErrors, at_eof))
            break;
        const std::size_t cells = ends.size() - first_cell;
        const std::string_view lead(
            reader.cellText.data() + record_start,
            ends[first_cell] - record_start);
        // Every path but an accepted row takes the record back out of
        // the packed cell text.
        auto drop = [&]() {
            ends.resize(first_cell);
            cur.write = record_start;
        };
        if (cells == 1 && lead.empty()) {
            drop();  // blank line (e.g. trailing newline)
            continue;
        }
        if (!lead.empty() && lead[0] == '#') {
            // Comment record; an exact integrity marker proves the
            // file was written to completion.
            if (cells == 1 && trimView(lead) == kCsvIntegrityMarker)
                reader.sawMarker = true;
            drop();
            continue;
        }
        const bool structural =
            reader.parseErrors.size() != errors_before;
        // A truncated row can only lose fields, never gain them.
        const bool short_row = cells < width;
        if (!structural && cells != width) {
            reader.parseErrors.push_back(
                {record_line,
                 detail::concatToString("row has ", cells,
                                        " fields, header has ",
                                        width)});
        }
        if (structural || cells != width) {
            if (at_eof && (structural || short_row)) {
                // Final record cut off mid-row — the signature of a
                // torn append. Tolerate it: reclassify its
                // diagnostics as the truncated tail so earlier good
                // rows survive.
                reader.tailErrors.assign(
                    reader.parseErrors.begin() + errors_before,
                    reader.parseErrors.end());
                reader.parseErrors.resize(errors_before);
            }
            drop();
            continue;
        }
        reader.rowLines.push_back(record_line);
    }
    reader.cellText.resize(cur.write);
    return reader;
}

CsvReader
CsvReader::parse(std::istream &is)
{
    return parseText(std::string(std::istreambuf_iterator<char>(is),
                                 std::istreambuf_iterator<char>()));
}

CsvReader
CsvReader::parseFile(const std::string &path)
{
    // Size the buffer from the file system, which also refuses
    // directories and other non-regular files.
    std::error_code size_error;
    const std::uintmax_t size =
        std::filesystem::file_size(path, size_error);
    std::ifstream file(path, std::ios::binary);
    if (size_error || !file) {
        CsvReader reader;
        reader.parseErrors.push_back({0, "cannot open " + path});
        return reader;
    }
    std::string text(static_cast<std::size_t>(size), '\0');
    file.read(text.data(), static_cast<std::streamsize>(size));
    // A file that shrank since it was sized yields what it still has.
    text.resize(static_cast<std::size_t>(file.gcount()));
    if (file.bad()) {
        CsvReader reader;
        reader.parseErrors.push_back({0, "cannot read " + path});
        return reader;
    }
    return parseText(std::move(text));
}

std::vector<std::string>
CsvReader::errorStrings() const
{
    std::vector<std::string> out;
    out.reserve(parseErrors.size());
    for (const CsvError &e : parseErrors)
        out.push_back(detail::concatToString("line ", e.line, ": ",
                                             e.message));
    return out;
}

std::vector<std::string_view>
CsvReader::row(std::size_t index) const
{
    std::vector<std::string_view> cells;
    cells.reserve(headerCells.size());
    for (std::size_t col = 0; col < headerCells.size(); ++col)
        cells.push_back(cell(index, col));
    return cells;
}

std::string_view
CsvReader::cell(std::size_t row_index, std::size_t column) const
{
    panic_if(row_index >= rowCount(), "csv row ", row_index,
             " out of range (", rowCount(), " rows)");
    panic_if(column >= headerCells.size(), "csv column ", column,
             " out of range (", headerCells.size(), " columns)");
    const std::size_t index = row_index * headerCells.size() + column;
    const std::size_t begin = index == 0 ? 0 : cellEnds[index - 1];
    return std::string_view(cellText.data() + begin,
                            cellEnds[index] - begin);
}

std::size_t
CsvReader::columnIndex(const std::string &column) const
{
    for (std::size_t i = 0; i < headerCells.size(); ++i) {
        if (headerCells[i] == column)
            return i;
    }
    return npos;
}

std::string_view
CsvReader::cell(std::size_t row_index, const std::string &column) const
{
    std::size_t col = columnIndex(column);
    panic_if(col == npos, "csv column '", column, "' not present");
    return cell(row_index, col);
}

bool
CsvReader::requireColumns(const std::vector<std::string> &columns)
{
    bool all_present = true;
    for (const std::string &column : columns) {
        if (columnIndex(column) == npos) {
            parseErrors.push_back(
                {1, "missing required column '" + column + "'"});
            all_present = false;
        }
    }
    return all_present;
}

double
CsvReader::numericCell(std::size_t row_index, std::size_t column,
                       double fallback)
{
    const std::string_view text = cell(row_index, column);
    double value = fallback;
    if (parseFiniteDouble(trimView(text), value))
        return value;
    parseErrors.push_back(
        {rowLines[row_index],
         detail::concatToString("column '", headerCells[column],
                                "': not a finite number: '", text,
                                "'")});
    return fallback;
}

double
CsvReader::numericCell(std::size_t row_index,
                       const std::string &column, double fallback)
{
    std::size_t col = columnIndex(column);
    panic_if(col == npos, "csv column '", column, "' not present");
    return numericCell(row_index, col, fallback);
}

} // namespace gemstone
