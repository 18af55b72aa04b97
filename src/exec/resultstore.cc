/**
 * @file
 * ResultStore implementation.
 */

#include "exec/resultstore.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>

#include "exec/sharedtier.hh"
#include "util/atomicfile.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone::exec {

namespace {

/**
 * Read the cell at @p pos of @p line. An unquoted cell is a view into
 * the line; a quoted one is unescaped into @p scratch only when it
 * holds a "" escape. On success @p pos is just past the cell, at a
 * ',' or the line's end. A stray quote in an unquoted cell, an
 * unterminated quote and text after a closing quote are malformed.
 */
bool
readCell(std::string_view line, std::size_t &pos, std::string_view &cell,
         std::string &scratch)
{
    if (pos < line.size() && line[pos] == '"') {
        std::size_t begin = pos + 1;
        std::size_t close = line.find('"', begin);
        bool escaped = false;
        while (close != line.npos && close + 1 < line.size() &&
               line[close + 1] == '"') {
            if (!escaped)
                scratch.clear();
            escaped = true;
            scratch.append(line.substr(begin, close + 1 - begin));
            begin = close + 2;
            close = line.find('"', begin);
        }
        if (close == line.npos)
            return false;  // unterminated
        if (escaped) {
            scratch.append(line.substr(begin, close - begin));
            cell = scratch;
        } else {
            cell = line.substr(begin, close - begin);
        }
        pos = close + 1;
        return pos == line.size() || line[pos] == ',';
    }
    std::size_t end = line.find(',', pos);
    if (end == line.npos)
        end = line.size();
    cell = line.substr(pos, end - pos);
    pos = end;
    return cell.find('"') == cell.npos;
}

/**
 * Split one row into its key, field and value cells. A row without a
 * quote, nearly every row, splits at its first two commas; the value
 * is the rest and fails to parse if it holds another comma.
 */
bool
splitRow(std::string_view line, std::string_view (&cells)[3],
         std::string (&scratch)[3])
{
    if (std::memchr(line.data(), '"', line.size()) == nullptr) {
        const std::size_t first = line.find(',');
        const std::size_t second = first == line.npos
            ? line.npos
            : line.find(',', first + 1);
        if (second == line.npos)
            return false;
        cells[0] = line.substr(0, first);
        cells[1] = line.substr(first + 1, second - first - 1);
        cells[2] = line.substr(second + 1);
        return true;
    }
    std::size_t at = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        if (i > 0) {
            if (at == line.size())
                return false;
            ++at;  // the ',' before the cell
        }
        if (!readCell(line, at, cells[i], scratch[i]))
            return false;
    }
    return at == line.size();
}

/** True when no key or field name holds a newline. */
bool
framesAsRows(const std::string &key, const ResultStore::Fields &fields)
{
    if (key.find('\n') != key.npos)
        return false;
    for (const auto &field : fields) {
        if (field.first.find('\n') != field.first.npos)
            return false;
    }
    return true;
}

} // namespace

/** The stat(2) fields that tell one version of a file from another. */
ResultStore::FileIdentity
ResultStore::identityOf(const struct stat &st)
{
    constexpr std::int64_t kNs = 1000000000;
    return {static_cast<std::uint64_t>(st.st_dev),
            static_cast<std::uint64_t>(st.st_ino),
            static_cast<std::int64_t>(st.st_size),
            static_cast<std::int64_t>(st.st_mtim.tv_sec) * kNs +
                st.st_mtim.tv_nsec,
            static_cast<std::int64_t>(st.st_ctim.tv_sec) * kNs +
                st.st_ctim.tv_nsec};
}

ResultStore::ResultStore(std::size_t capacity)
    : maxEntries(std::max<std::size_t>(capacity, 1))
{
}

ResultStore::~ResultStore() = default;

std::uint64_t
ResultStore::fnv1a(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::unordered_map<std::uint64_t, ResultStore::Entry>::iterator
ResultStore::findLocked(std::uint64_t hash, bool &absorbed)
{
    absorbed = false;
    auto it = entries.find(hash);
    if (it == entries.end() && tier != nullptr && tier->maybeGrown()) {
        // Miss in the memory tier: absorb whatever other processes
        // have published, then look again.
        tier->refresh([this](std::string_view k, Fields f) {
            absorbLocked(k, std::move(f));
        });
        it = entries.find(hash);
        absorbed = it != entries.end();
    }
    return it;
}

bool
ResultStore::lookup(const std::string &key, Payload &out)
{
    std::uint64_t hash = fnv1a(key);
    std::lock_guard<std::mutex> lock(storeMutex);
    bool absorbed = false;
    auto it = findLocked(hash, absorbed);
    if (absorbed && it->second.key == key)
        ++counters.sharedHits;
    if (it == entries.end()) {
        ++counters.misses;
        return false;
    }
    if (it->second.key != key) {
        ++counters.misses;
        ++counters.collisions;
        warnLimited("resultstore-collision", 3,
                    "result-store hash collision between '",
                    it->second.key, "' and '", key, "'");
        return false;
    }
    ++counters.hits;
    lruOrder.splice(lruOrder.begin(), lruOrder,
                    it->second.lruPosition);
    out = it->second.payload;
    return true;
}

bool
ResultStore::contains(const std::string &key)
{
    std::uint64_t hash = fnv1a(key);
    std::lock_guard<std::mutex> lock(storeMutex);
    bool absorbed = false;
    auto it = findLocked(hash, absorbed);
    return it != entries.end() && it->second.key == key;
}

void
ResultStore::insertLocked(std::string key, Payload payload)
{
    ++generation;
    std::uint64_t hash = fnv1a(key);
    auto it = entries.find(hash);
    if (it != entries.end()) {
        // Same key: refresh; colliding key: last writer wins. Readers
        // holding the old payload keep it: it is replaced, not
        // mutated.
        if (it->second.key != key) {
            ++counters.collisions;
            it->second.key = std::move(key);
        }
        it->second.payload = std::move(payload);
        lruOrder.splice(lruOrder.begin(), lruOrder,
                        it->second.lruPosition);
        return;
    }
    while (entries.size() >= maxEntries) {
        entries.erase(lruOrder.back());
        lruOrder.pop_back();
        ++counters.evictions;
    }
    lruOrder.push_front(hash);
    entries.emplace(hash, Entry{std::move(key), std::move(payload),
                                lruOrder.begin()});
    ++counters.insertions;
}

void
ResultStore::absorbLocked(std::string_view key, Fields fields)
{
    // Absorbed entries are other processes' finished work, not ours:
    // keep the insertions counter meaning "results computed by this
    // process" and keep them out of the journal.
    const std::uint64_t insertions_before = counters.insertions;
    insertLocked(std::string(key),
                 std::make_shared<const Fields>(std::move(fields)));
    counters.insertions = insertions_before;
}

bool
ResultStore::insert(const std::string &key, Fields fields)
{
    if (!framesAsRows(key, fields)) {
        warnLimited("resultstore-newline", 3, "result store: an entry ",
                    "key or field name holds a newline; not stored");
        return false;
    }
    Payload payload = std::make_shared<const Fields>(std::move(fields));
    std::lock_guard<std::mutex> lock(storeMutex);
    if (journalEnabled)
        journal.emplace_back(key, payload);
    if (tier != nullptr &&
        tierOwnerPid == static_cast<int>(::getpid())) {
        tier->publish(key, *payload,
                      [this](std::string_view k, Fields f) {
                          absorbLocked(k, std::move(f));
                      });
    }
    insertLocked(key, std::move(payload));
    return true;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    return entries.size();
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    return counters;
}

void
ResultStore::resetStats()
{
    std::lock_guard<std::mutex> lock(storeMutex);
    counters = Stats{};
}

void
ResultStore::clear()
{
    std::lock_guard<std::mutex> lock(storeMutex);
    ++generation;
    entries.clear();
    lruOrder.clear();
}

namespace {

/**
 * The single pass behind ResultStore::decodeCsvFile(): fed a store
 * file's bytes as chunks of whole lines, it groups rows into entries
 * across chunk boundaries and hands each entry to the sink when the
 * next key starts, or at the end of input.
 */
class RowDecoder
{
  public:
    using Fields = ResultStore::Fields;

    RowDecoder(std::size_t offset, std::string_view source,
               const ResultStore::RowSink &sink)
        : start(offset), position(offset), source(source), sink(sink)
    {
    }

    /**
     * Decode @p text, whole lines that continue the input. Returns
     * false when the input is not a store file (a wrong header), so
     * reading can stop.
     */
    bool
    feed(std::string_view text)
    {
        std::size_t pos = 0;
        while (pos < text.size()) {
            const char *newline = static_cast<const char *>(
                std::memchr(text.data() + pos, '\n', text.size() - pos));
            const std::size_t end =
                static_cast<std::size_t>(newline - text.data());
            std::string_view line = text.substr(pos, end - pos);
            if (!line.empty() && line.back() == '\r')
                line.remove_suffix(1);
            const std::size_t line_start = position;
            position += end + 1 - pos;
            pos = end + 1;
            if (line_start == 0) {
                if (line != ResultStore::kCsvHeader) {
                    scan.badHeader = true;
                    return false;
                }
                continue;
            }
            decodeLine(line, line_start);
        }
        return true;
    }

    /**
     * End of input; @p tail is what follows the last whole line. A
     * tail that is a data row was cut mid-write, even when it parses
     * ("1.5" torn to "1"): the entry in progress, which may be
     * missing rows too, is held back with it.
     */
    ResultStore::RowScan
    finish(std::string_view tail)
    {
        if (position == 0 && !tail.empty()) {
            // A header still being written is not a wrong one.
            scan.badHeader = !ResultStore::kCsvHeader.starts_with(tail);
        } else if (!tail.empty() && tail[0] == '#') {
            noteComment(tail);
        } else if (!tail.empty()) {
            scan.torn = true;
        }
        if (scan.badHeader)
            return scan;
        scan.consumed = (scan.torn && inRun ? runStart : position) - start;
        if (!scan.torn)
            finishRun();
        return scan;
    }

  private:
    void
    noteComment(std::string_view line)
    {
        // An exact integrity marker proves the file was written to
        // completion.
        scan.marker = scan.marker || trimView(line) == kCsvIntegrityMarker;
    }

    void
    decodeLine(std::string_view line, std::size_t line_start)
    {
        if (line.empty())
            return;
        if (line[0] == '#') {
            noteComment(line);
            return;
        }
        std::string_view cells[3];
        if (!splitRow(line, cells, scratch)) {
            // Poison the row's own entry when its key cell reads,
            // else the entry in progress.
            std::size_t at = 0;
            if (readCell(line, at, cells[0], scratch[0]) &&
                at < line.size())
                enterRun(cells[0], line_start, line);
            badRow(line_start, line, "malformed row");
            return;
        }
        const auto &[key, field, value] = cells;
        enterRun(key, line_start, line);
        double number = 0.0;
        if (!parseFiniteDouble(trimView(value), number)) {
            // A malformed value poisons only its own entry.
            badRow(line_start, line, "not a finite number");
            return;
        }
        runFields.emplace_back(field, number);
    }

    /** Rows of one key form an entry: a new key ends the previous. */
    void
    enterRun(std::string_view key, std::size_t line_start,
             std::string_view line)
    {
        if (inRun && key == runKey)
            return;
        if (inRun && key < runKey)
            scan.ascending = false;
        finishRun();
        runKey.assign(key);
        inRun = true;
        runStart = line_start;
        if (key.empty())
            badRow(line_start, line, "empty key");
    }

    void
    finishRun()
    {
        if (!inRun)
            return;
        if (runBad) {
            sink(runKey, nullptr);
        } else {
            // The rows went into a reused buffer: hand out a payload
            // of exactly the entry's size, its names moved, not copied.
            Fields fields;
            fields.reserve(runFields.size());
            std::move(runFields.begin(), runFields.end(),
                      std::back_inserter(fields));
            sink(runKey, &fields);
        }
        runFields.clear();
        inRun = false;
        runBad = false;
    }

    void
    badRow(std::size_t at, std::string_view line, const char *what)
    {
        scan.malformed = true;
        runBad = runBad || inRun;
        warnLimited("store-rows", 3, source, ": ", what, " at byte ", at,
                    ": ", line.substr(0, 120));
    }

    const std::size_t start;
    /** File offset of the next byte to decode. */
    std::size_t position;
    std::string_view source;
    const ResultStore::RowSink &sink;
    ResultStore::RowScan scan;

    // The entry in progress: its key, the offset of its first row,
    // its fields so far and whether a row of it was malformed.
    std::string runKey;
    bool inRun = false;
    bool runBad = false;
    std::size_t runStart = 0;
    Fields runFields;
    /** Unescaped quoted cells. */
    std::string scratch[3];
};

/** Bytes per read: dozens of entries per system call. */
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

} // namespace

ResultStore::RowScan
ResultStore::decodeCsvFile(int fd, std::size_t offset,
                           std::string_view source, const RowSink &sink)
{
    RowDecoder decoder(offset, source, sink);
    // One chunk-sized buffer, reused: reading a whole large file into
    // fresh memory would cost a page fault per 4 KiB on top of the
    // copy. A line longer than the buffer grows it.
    struct stat st{};
    const std::size_t remaining = ::fstat(fd, &st) == 0 &&
            static_cast<std::size_t>(st.st_size) > offset
        ? static_cast<std::size_t>(st.st_size) - offset
        : 0;
    std::size_t capacity = std::min(remaining + 1, kReadChunk);
    auto buffer = std::make_unique_for_overwrite<char[]>(capacity);
    std::size_t held = 0;
    std::size_t at = offset;
    while (true) {
        if (held == capacity) {
            auto grown = std::make_unique_for_overwrite<char[]>(2 * capacity);
            std::memcpy(grown.get(), buffer.get(), held);
            buffer = std::move(grown);
            capacity *= 2;
        }
        const ssize_t got = ::pread(fd, buffer.get() + held,
                                    capacity - held,
                                    static_cast<off_t>(at));
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0) {
            warnLimited("store-read", 3, source, ": read failed (",
                        std::strerror(errno), "); decoding what was read");
        }
        if (got <= 0)
            break;
        held += static_cast<std::size_t>(got);
        at += static_cast<std::size_t>(got);
        const std::size_t last =
            std::string_view(buffer.get(), held).rfind('\n');
        if (last == std::string_view::npos)
            continue;
        const std::size_t whole = last + 1;
        if (!decoder.feed(std::string_view(buffer.get(), whole)))
            return decoder.finish({});
        std::memmove(buffer.get(), buffer.get() + whole, held - whole);
        held -= whole;
    }
    return decoder.finish(std::string_view(buffer.get(), held));
}

std::size_t
ResultStore::loadCsv(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (errno != ENOENT)
            warn("result store ", path, ": cannot open (",
                 std::strerror(errno), "); not loaded");
        return 0;
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        warn("result store ", path, ": not a regular file; not loaded");
        return 0;
    }

    std::lock_guard<std::mutex> lock(storeMutex);
    // Loading persisted work is not new work: keep the insertions
    // counter meaningful as "results computed by this process".
    const std::uint64_t insertions_before = counters.insertions;
    std::size_t loaded = 0;
    const RowScan scan = decodeCsvFile(
        fd, 0, "result store " + path,
        [&](std::string_view key, Fields *fields) {
            if (fields == nullptr)
                return;
            insertLocked(std::string(key),
                         std::make_shared<const Fields>(std::move(*fields)));
            ++loaded;
        });
    ::close(fd);
    counters.insertions = insertions_before;
    if (scan.badHeader) {
        warn("result store ", path, ": first line is not the '",
             kCsvHeader, "' header; not loaded");
        return 0;
    }
    if (scan.torn) {
        warnLimited("resultstore-torn", 3, "result store ", path,
                    ": truncated final row dropped (torn write); ",
                    "loading the entries before it");
    } else if (!scan.marker) {
        warnLimited("resultstore-no-marker", 3, "result store ", path,
                    ": no integrity marker; the file may be from an ",
                    "interrupted save");
    }
    // The file holds exactly the resident entries, so saving them
    // back would write the same entries in the same order. With
    // distinct keys, as many resident entries as loaded ones means
    // the load evicted none of its own and left no other entry
    // resident: entries older than the load are evicted first.
    if (scan.marker && !scan.torn && !scan.malformed && scan.ascending &&
        entries.size() == loaded) {
        haveCleanFile = true;
        cleanFile = identityOf(st);
        cleanGeneration = generation;
    }
    return loaded;
}

void
ResultStore::appendCsvRows(std::string &out, const std::string &key,
                           const Fields &fields)
{
    for (const auto &[name, value] : fields) {
        CsvWriter::appendQuoted(out, key);
        out.push_back(',');
        CsvWriter::appendQuoted(out, name);
        out.push_back(',');
        appendExactDouble(out, value);
        out.push_back('\n');
    }
}

Status
ResultStore::saveCsv(const std::string &path) const
{
    // Hold the lock for the whole save: persistence is rare and the
    // entry pointers must not be invalidated mid-walk.
    std::lock_guard<std::mutex> lock(storeMutex);
    struct stat st{};
    if (haveCleanFile && cleanGeneration == generation &&
        ::stat(path.c_str(), &st) == 0 && identityOf(st) == cleanFile)
        return Status::okStatus();

    std::vector<const Entry *> sorted;
    sorted.reserve(entries.size());
    // Size the document up front: quoting is rare and an exact double
    // takes at most 24 characters, so one allocation nearly always
    // holds it.
    std::size_t bytes = 0;
    for (const auto &[hash, entry] : entries) {
        sorted.push_back(&entry);
        for (const auto &field : *entry.payload)
            bytes += entry.key.size() + field.first.size() + 27;
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) {
                  return a->key < b->key;
              });

    std::string document(kCsvHeader);
    document.push_back('\n');
    document.reserve(document.size() + bytes);
    for (const Entry *entry : sorted)
        appendCsvRows(document, entry->key, *entry->payload);
    const Status written =
        atomicWriteFile(path, document, kCsvIntegrityMarker);
    haveCleanFile = written.ok() && ::stat(path.c_str(), &st) == 0;
    if (haveCleanFile) {
        cleanFile = identityOf(st);
        cleanGeneration = generation;
    }
    return written;
}

Status
ResultStore::attachSharedTier(const std::string &path)
{
    auto opened = SharedTierFile::open(path);
    if (!opened.ok())
        return opened.status();
    std::lock_guard<std::mutex> lock(storeMutex);
    tier = opened.takeValue();
    tierOwnerPid = static_cast<int>(::getpid());
    // Start warm: absorb everything already in the file.
    tier->refresh([this](std::string_view k, Fields f) {
        absorbLocked(k, std::move(f));
    });
    return Status::okStatus();
}

bool
ResultStore::hasSharedTier() const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    return tier != nullptr;
}

void
ResultStore::enableJournal()
{
    std::lock_guard<std::mutex> lock(storeMutex);
    journalEnabled = true;
    journal.clear();
}

std::vector<std::pair<std::string, ResultStore::Fields>>
ResultStore::takeJournal()
{
    std::lock_guard<std::mutex> lock(storeMutex);
    journalEnabled = false;
    std::vector<std::pair<std::string, Fields>> drained;
    drained.reserve(journal.size());
    for (auto &[key, payload] : journal)
        drained.emplace_back(std::move(key), *payload);
    journal.clear();
    return drained;
}

} // namespace gemstone::exec
