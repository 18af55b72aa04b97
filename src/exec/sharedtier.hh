/**
 * @file
 * Shared persistent result-cache tier for multi-process campaigns.
 *
 * A SharedTierFile is an append-only CSV of result-store entries
 * (`key,field,value` rows, doubles rendered round-trip-exact) that
 * any number of processes read and extend concurrently, coordinated
 * by flock(2):
 *
 *  - publish() takes the exclusive lock, first absorbs any rows other
 *    processes appended since the last look (so cross-worker results
 *    become local cache hits), skips the write when the key is
 *    already present (no duplicated rows), and otherwise appends the
 *    whole entry — every field row — inside the one lock hold (no
 *    torn or interleaved groups);
 *  - refresh() takes the shared lock and absorbs foreign rows only;
 *    it is cheap to call speculatively because maybeGrown() checks
 *    the file size without locking first.
 *
 * Readers only ever observe the file at a lock boundary, and writers
 * only append complete row groups while holding the exclusive lock,
 * so every observed state is a valid CSV ending on an entry boundary.
 * The format is the same `key,field,value` layout ResultStore
 * persists with saveCsv(), so a tier file is also loadable as an
 * ordinary warm-cache CSV.
 *
 * Fork safety: flock locks belong to the open file description,
 * which fork() shares between parent and child — a shared fd would
 * make their "exclusive" locks mutually invisible. Every operation
 * therefore re-opens the file when it notices the pid changed, so a
 * ResultStore inherited by a forked procpool worker transparently
 * gets its own lock identity.
 */

#ifndef GEMSTONE_EXEC_SHAREDTIER_HH
#define GEMSTONE_EXEC_SHAREDTIER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "util/status.hh"

namespace gemstone::exec {

class SharedTierFile
{
  public:
    /** Ordered (name, value) payload — mirrors ResultStore::Fields. */
    using Fields = std::vector<std::pair<std::string, double>>;

    /** Receives entries absorbed from other processes. */
    using Sink =
        std::function<void(std::string_view key, Fields fields)>;

    struct Stats
    {
        std::uint64_t published = 0;  //!< entries appended by us
        std::uint64_t deduped = 0;    //!< publishes skipped (present)
        std::uint64_t absorbed = 0;   //!< foreign entries pulled in
        std::uint64_t refreshes = 0;  //!< lock-and-scan passes
    };

    /** Open (creating if absent) the tier file at @p path. */
    static Result<std::unique_ptr<SharedTierFile>> open(
        const std::string &path);

    ~SharedTierFile();

    SharedTierFile(const SharedTierFile &) = delete;
    SharedTierFile &operator=(const SharedTierFile &) = delete;

    /**
     * Absorb rows appended by other processes since the last pass,
     * feeding each complete entry to @p sink. Returns the number of
     * entries absorbed.
     */
    std::size_t refresh(const Sink &sink);

    /**
     * Publish one entry unless its key is already in the file.
     * Foreign rows discovered on the way are absorbed into @p sink
     * first. Returns true when the entry was appended.
     */
    bool publish(const std::string &key, const Fields &fields,
                 const Sink &sink);

    /** Size-only hint that refresh() would find something new. */
    bool maybeGrown() const;

    const Stats &stats() const { return tierStats; }
    const std::string &path() const { return filePath; }

  private:
    SharedTierFile() = default;

    /** Re-open after fork so flock identities stay per-process. */
    bool reopenIfForked();

    /** Under a held lock: scan [consumed, EOF) into @p sink. */
    void absorbNewLocked(const Sink &sink);

    bool lock(bool exclusive);
    void unlock();

    std::string filePath;
    int fd = -1;
    std::int64_t consumed = 0;  //!< bytes already scanned
    /** FNV-1a hashes of keys known to be in the file. */
    std::unordered_set<std::uint64_t> knownKeys;
    Stats tierStats;
    int ownerPid = -1;
};

} // namespace gemstone::exec

#endif // GEMSTONE_EXEC_SHAREDTIER_HH
