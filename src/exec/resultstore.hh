/**
 * @file
 * Content-addressed memoisation store for simulation results.
 *
 * Measurement and simulation runs are pure functions of their
 * configuration — (platform seed, board variation, fault plan,
 * workload, cluster, frequency, attempt) for hwsim, (simulator
 * version, model, workload, frequency) for g5 — so their results can
 * be memoised under a content address: the FNV-1a hash of a
 * canonical key string naming every input. The store keeps a bounded
 * number of entries with LRU eviction, counts hits and misses, and
 * can persist itself to CSV so a later process (or another machine)
 * reuses finished work.
 *
 * Values are flat ordered lists of named doubles; the callers own
 * the encoding of their result structs (see gemstone/runner.cc).
 * Doubles survive the CSV round trip bit-exactly (17 significant
 * digits written by to_chars, read back by from_chars, subnormals
 * included), which is what makes a warm-cache campaign
 * byte-identical to a cold one.
 *
 * Payloads are immutable and shared: an entry holds a
 * std::shared_ptr<const Fields> built once when the entry is
 * inserted, and a hit hands out another reference to it rather than
 * a copy. A reader's payload therefore stays valid and unchanged
 * after its key is overwritten or evicted.
 *
 * Thread-safety contract: all public members are safe to call from
 * any thread; a single mutex serialises the table, the LRU list and
 * the counters. Under it a hit is only the hash probe, the key
 * compare, the LRU splice and a reference-count increment; callers
 * decode the payload after the lock is released.
 */

#ifndef GEMSTONE_EXEC_RESULTSTORE_HH
#define GEMSTONE_EXEC_RESULTSTORE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace gemstone::exec {

class SharedTierFile;

class ResultStore
{
  public:
    /** Ordered (name, value) payload of one memoised result. */
    using Fields = std::vector<std::pair<std::string, double>>;

    /** A shared, immutable payload as held by the store. */
    using Payload = std::shared_ptr<const Fields>;

    /** Hit/miss accounting. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        /** Distinct keys whose hash collided with a resident entry. */
        std::uint64_t collisions = 0;
        /** Misses converted to hits by the shared persistent tier. */
        std::uint64_t sharedHits = 0;
    };

    /** @param capacity resident entry bound (0 is clamped to 1) */
    explicit ResultStore(std::size_t capacity = 65536);

    ~ResultStore();

    /** FNV-1a 64-bit hash — the content address of a key string. */
    static std::uint64_t fnv1a(const std::string &text);

    /**
     * Look up a key; on a hit the entry becomes most-recently-used
     * and @p out shares its payload. Counts a hit or miss either
     * way. A hash collision with a different resident key counts as
     * a miss (and a collision). With a shared tier attached, a miss
     * falls through to the tier: entries other processes published
     * since the last look are absorbed, and a key found that way
     * counts as a hit (and a sharedHit).
     */
    bool lookup(const std::string &key, Payload &out);

    /**
     * True when lookup() of @p key would hit. Stats-neutral: no hit,
     * miss or sharedHit is counted and the LRU order is untouched.
     * Like lookup(), it absorbs entries other processes published to
     * an attached shared tier before answering. Schedulers use it to
     * decide whether work needs simulating.
     */
    bool contains(const std::string &key);

    /** Insert (or overwrite) a key, evicting LRU entries as needed. */
    void insert(const std::string &key, Fields fields);

    std::size_t size() const;
    std::size_t capacity() const { return maxEntries; }
    Stats stats() const;
    void resetStats();
    void clear();

    /**
     * Merge entries from a CSV previously written by saveCsv();
     * returns the number of entries loaded. A missing file loads
     * nothing; malformed rows are skipped with a warning. A file
     * without the trailing integrity marker, or with a truncated
     * final row (a torn write from an older or crashed process), is
     * loaded with a warning — memoised results are an optimisation,
     * so salvage beats refusal. A final row without its newline
     * counts as torn even when it parses, and a torn final row takes
     * its whole entry with it, so a cut inside a row never loads a
     * wrong or partial entry. A cut exactly at a row boundary of a
     * marker-less file looks complete and can still load a partial
     * last entry; the runner's decoders require the complete schema,
     * so such an entry is re-measured rather than decoded.
     */
    std::size_t loadCsv(const std::string &path);

    /**
     * Persist every resident entry, sorted by key so the file is
     * deterministic. The write is atomic (tmp + fsync + rename) and
     * ends with the integrity marker; a crash leaves the previous
     * complete file, never a torn one.
     */
    Status saveCsv(const std::string &path) const;

    /**
     * Append the CSV rows of one entry — "key,field,value\n" per
     * field, RFC-4180-quoted, values round-trip-exact — to @p out.
     * The one row format of saveCsv() and the shared tier.
     */
    static void appendCsvRows(std::string &out, const std::string &key,
                              const Fields &fields);

    /**
     * Attach a shared persistent tier (exec/sharedtier.hh) at
     * @p path, making this a two-tier store: the in-memory LRU in
     * front, a flock-guarded append-only CSV shared across processes
     * behind. Entries already in the file are absorbed immediately;
     * later misses absorb whatever other processes have published
     * (see lookup()); inserts are published to the file.
     *
     * Only the attaching process publishes. A forked child inherits
     * the attachment and keeps reading the tier (with its own lock
     * identity), but its inserts stay local — results flow back to
     * the attaching coordinator, which publishes them. That keeps
     * crash-prone worker processes out of the writer set, so a
     * SIGKILLed worker can never tear the shared file.
     */
    Status attachSharedTier(const std::string &path);

    bool hasSharedTier() const;

    /** The attached tier (for its stats), or nullptr. */
    const SharedTierFile *sharedTier() const { return tier.get(); }

    /**
     * Start recording keys inserted by *this process* (absorbed and
     * loaded entries excluded). A forked worker journals what it
     * computed so exactly those entries travel back over the pipe.
     */
    void enableJournal();

    /** Drain the journal recorded since enableJournal() and stop
     *  recording until the next enableJournal(). */
    std::vector<std::pair<std::string, Fields>> takeJournal();

  private:
    struct Entry
    {
        std::string key;
        Payload payload;
        std::list<std::uint64_t>::iterator lruPosition;
    };

    void insertLocked(std::string key, Payload payload);

    /**
     * Find the resident entry at @p hash, falling through to the
     * shared tier on a memory miss; @p absorbed reports whether the
     * entry arrived from the tier during this call.
     */
    std::unordered_map<std::uint64_t, Entry>::iterator
    findLocked(std::uint64_t hash, bool &absorbed);

    /** Tier-absorb sink: insert without counting or journalling. */
    void absorbLocked(const std::string &key, Fields fields);

    mutable std::mutex storeMutex;
    std::size_t maxEntries;
    std::unordered_map<std::uint64_t, Entry> entries;
    /** Most recent at the front; evict from the back. */
    std::list<std::uint64_t> lruOrder;
    Stats counters;

    std::unique_ptr<SharedTierFile> tier;
    /** Pid that attached the tier — the only publisher. */
    int tierOwnerPid = -1;

    bool journalEnabled = false;
    std::vector<std::pair<std::string, Payload>> journal;
};

} // namespace gemstone::exec

#endif // GEMSTONE_EXEC_RESULTSTORE_HH
