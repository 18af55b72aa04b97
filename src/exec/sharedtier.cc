/**
 * @file
 * SharedTierFile implementation.
 *
 * The scan side is ResultStore::decodeCsvFile(), the one decoder of
 * store rows: it consumes whole lines only, so a torn trailing row
 * from a process killed mid-append stays unconsumed (with the rest of
 * its entry) until more bytes arrive, and its per-entry poison rule
 * maps onto key-run grouping. Store rows never contain newlines
 * (ResultStore::insert() rejects keys and field names that would), so
 * splitting on '\n' is sound; quoted commas and quotes are handled.
 */

#include "exec/sharedtier.hh"

#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <utility>

#include "exec/resultstore.hh"
#include "exec/wireproto.hh"
#include "util/logging.hh"

namespace gemstone::exec {

Result<std::unique_ptr<SharedTierFile>>
SharedTierFile::open(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        return Status::error(StatusCode::IoError,
                            "cannot open shared tier " + path + ": " +
                                std::strerror(errno));
    }
    std::unique_ptr<SharedTierFile> tier(new SharedTierFile());
    tier->filePath = path;
    tier->fd = fd;
    tier->ownerPid = static_cast<int>(::getpid());

    // Seed an empty file with the header so the tier is loadable as
    // an ordinary ResultStore CSV. Racing creators both take the
    // exclusive lock and re-check the size, so the header is written
    // once.
    if (tier->lock(true)) {
        struct stat st{};
        if (::fstat(fd, &st) == 0 && st.st_size == 0)
            writeAll(fd, std::string(ResultStore::kCsvHeader) + "\n");
        tier->unlock();
    }
    return tier;
}

SharedTierFile::~SharedTierFile()
{
    if (fd >= 0)
        ::close(fd);
}

bool
SharedTierFile::lock(bool exclusive)
{
    int op = exclusive ? LOCK_EX : LOCK_SH;
    while (::flock(fd, op) != 0) {
        if (errno == EINTR)
            continue;
        warnLimited("sharedtier-lock", 3, "shared tier ", filePath,
                    ": flock failed (", std::strerror(errno),
                    "); proceeding unlocked");
        return false;
    }
    return true;
}

void
SharedTierFile::unlock()
{
    while (::flock(fd, LOCK_UN) != 0 && errno == EINTR) {
    }
}

bool
SharedTierFile::reopenIfForked()
{
    int pid = static_cast<int>(::getpid());
    if (pid == ownerPid)
        return true;
    // flock identity lives on the open file description, which
    // fork() shares: re-open so this process locks independently of
    // its parent.
    int fresh =
        ::open(filePath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fresh < 0) {
        warnLimited("sharedtier-reopen", 3, "shared tier ", filePath,
                    ": reopen after fork failed (",
                    std::strerror(errno), ")");
        return false;
    }
    ::close(fd);
    fd = fresh;
    ownerPid = pid;
    return true;
}

bool
SharedTierFile::maybeGrown() const
{
    struct stat st{};
    if (::fstat(fd, &st) != 0)
        return false;
    return static_cast<std::int64_t>(st.st_size) != consumed;
}

void
SharedTierFile::absorbNewLocked(const Sink &sink)
{
    ++tierStats.refreshes;
    struct stat st{};
    if (::fstat(fd, &st) != 0)
        return;
    auto size = static_cast<std::int64_t>(st.st_size);
    if (size < consumed) {
        // The file shrank under us (external truncation or
        // replacement): restart the scan. Re-absorbing entries the
        // sink has already seen is harmless — same key, same values.
        consumed = 0;
        knownKeys.clear();
    }
    if (size == consumed)
        return;

    // Only whole lines are consumed; a trailing partial row (a writer
    // killed mid-append) and the rest of its entry wait for the
    // remaining bytes — or get diagnosed as a malformed merged row if
    // another writer appends after the torn tail.
    const ResultStore::RowScan scan = ResultStore::decodeCsvFile(
        fd, static_cast<std::size_t>(consumed), "shared tier " + filePath,
        [&](std::string_view key, Fields *fields) {
            knownKeys.insert(ResultStore::fnv1a(key));
            if (fields != nullptr && sink) {
                sink(key, std::move(*fields));
                ++tierStats.absorbed;
            }
        });
    if (scan.badHeader) {
        warnLimited("sharedtier-header", 3, "shared tier ", filePath,
                    ": first line is not the '", ResultStore::kCsvHeader,
                    "' header; nothing absorbed");
    }
    consumed += static_cast<std::int64_t>(scan.consumed);
}

std::size_t
SharedTierFile::refresh(const Sink &sink)
{
    reopenIfForked();
    std::uint64_t before = tierStats.absorbed;
    bool locked = lock(false);
    absorbNewLocked(sink);
    if (locked)
        unlock();
    return static_cast<std::size_t>(tierStats.absorbed - before);
}

bool
SharedTierFile::publish(const std::string &key, const Fields &fields,
                        const Sink &sink)
{
    reopenIfForked();
    bool locked = lock(true);
    // Absorb first: a key another process published since our last
    // look must win over a duplicate append.
    absorbNewLocked(sink);
    std::uint64_t hash = ResultStore::fnv1a(key);
    if (knownKeys.count(hash) != 0) {
        ++tierStats.deduped;
        if (locked)
            unlock();
        return false;
    }

    // Append the whole entry — every field row — as one write while
    // holding the exclusive lock, so readers never see a torn group.
    std::string rows;
    ResultStore::appendCsvRows(rows, key, fields);
    off_t end = ::lseek(fd, 0, SEEK_END);
    bool wrote = end >= 0 && writeAll(fd, rows);
    if (wrote) {
        knownKeys.insert(hash);
        ++tierStats.published;
        // Skip re-reading our own append on the next scan.
        if (static_cast<std::int64_t>(end) == consumed)
            consumed += static_cast<std::int64_t>(rows.size());
    } else {
        warnLimited("sharedtier-append", 3, "shared tier ", filePath,
                    ": append failed (", std::strerror(errno), ")");
    }
    if (locked)
        unlock();
    return wrote;
}

} // namespace gemstone::exec
