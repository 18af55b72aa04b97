/**
 * @file
 * ResultStore implementation.
 */

#include "exec/resultstore.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "exec/sharedtier.hh"
#include "util/atomicfile.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone::exec {

namespace {

/** CSV column contract of a persisted store. */
const std::vector<std::string> kStoreColumns = {"key", "field",
                                                "value"};

} // namespace

ResultStore::ResultStore(std::size_t capacity)
    : maxEntries(std::max<std::size_t>(capacity, 1))
{
}

ResultStore::~ResultStore() = default;

std::uint64_t
ResultStore::fnv1a(const std::string &text)
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
        tier->refresh([this](const std::string &k, Fields f) {
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
ResultStore::absorbLocked(const std::string &key, Fields fields)
{
    // Absorbed entries are other processes' finished work, not ours:
    // keep the insertions counter meaning "results computed by this
    // process" and keep them out of the journal.
    const std::uint64_t insertions_before = counters.insertions;
    insertLocked(key, std::make_shared<const Fields>(std::move(fields)));
    counters.insertions = insertions_before;
}

void
ResultStore::insert(const std::string &key, Fields fields)
{
    Payload payload = std::make_shared<const Fields>(std::move(fields));
    std::lock_guard<std::mutex> lock(storeMutex);
    if (journalEnabled)
        journal.emplace_back(key, payload);
    if (tier != nullptr &&
        tierOwnerPid == static_cast<int>(::getpid())) {
        tier->publish(key, *payload,
                      [this](const std::string &k, Fields f) {
                          absorbLocked(k, std::move(f));
                      });
    }
    insertLocked(key, std::move(payload));
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
    entries.clear();
    lruOrder.clear();
}

std::size_t
ResultStore::loadCsv(const std::string &path)
{
    if (!std::filesystem::exists(path))
        return 0;
    CsvReader reader = CsvReader::parseFile(path);
    if (!reader.requireColumns(kStoreColumns)) {
        warn("result store ", path, ": missing columns; not loaded");
        return 0;
    }
    const std::size_t key_col = reader.columnIndex("key");
    const std::size_t field_col = reader.columnIndex("field");
    const std::size_t value_col = reader.columnIndex("value");

    // Every row saveCsv() or the shared tier writes ends in a newline,
    // so a final row without one was cut mid-write even when its
    // arity is complete ("1.5" torn to "1" still parses). Rows of one
    // entry are contiguous: the entry the torn row belonged to, or
    // the one before a dropped partial record, may be missing rows,
    // so the whole last key run goes with it.
    std::size_t rows = reader.rowCount();
    if (reader.hasTruncatedTail() || reader.finalRowUnterminated()) {
        warnLimited("resultstore-torn", 3, "result store ", path,
                    ": truncated final row dropped (torn write); ",
                    "loading the entries before it");
        const std::string_view last_key =
            rows > 0 ? reader.cell(rows - 1, key_col)
                     : std::string_view();
        while (rows > 0 && reader.cell(rows - 1, key_col) == last_key)
            --rows;
    } else if (!reader.sawIntegrityMarker()) {
        warnLimited("resultstore-no-marker", 3, "result store ", path,
                    ": no integrity marker; the file may be from an ",
                    "interrupted save");
    }

    std::lock_guard<std::mutex> lock(storeMutex);
    // Loading persisted work is not new work: keep the insertions
    // counter meaningful as "results computed by this process".
    const std::uint64_t insertions_before = counters.insertions;
    std::size_t loaded = 0;
    for (std::size_t first = 0; first < rows;) {
        const std::string_view key = reader.cell(first, key_col);
        std::size_t last = first + 1;
        while (last < rows && reader.cell(last, key_col) == key)
            ++last;
        Fields fields;
        fields.reserve(last - first);
        bool bad = false;
        for (std::size_t i = first; i < last; ++i) {
            const std::size_t errors_before = reader.errors().size();
            const double value = reader.numericCell(i, value_col);
            // A malformed value poisons only its own entry.
            bad = bad || reader.errors().size() != errors_before;
            fields.emplace_back(reader.cell(i, field_col), value);
        }
        if (!key.empty() && !bad) {
            insertLocked(std::string(key),
                         std::make_shared<const Fields>(std::move(fields)));
            ++loaded;
        }
        first = last;
    }
    counters.insertions = insertions_before;
    for (const std::string &error : reader.errorStrings())
        warnLimited("resultstore-load", 3, "result store ", path,
                    ": ", error);
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

    std::string document = join(kStoreColumns, ",") + "\n";
    document.reserve(document.size() + bytes);
    for (const Entry *entry : sorted)
        appendCsvRows(document, entry->key, *entry->payload);
    return atomicWriteFile(path, document, kCsvIntegrityMarker);
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
    tier->refresh([this](const std::string &k, Fields f) {
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
