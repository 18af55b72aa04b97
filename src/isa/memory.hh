/**
 * @file
 * Flat data memory and the exclusive-access monitor.
 */

#ifndef GEMSTONE_ISA_MEMORY_HH
#define GEMSTONE_ISA_MEMORY_HH

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace gemstone::isa {

/**
 * Byte-addressable data memory shared by all threads of a workload.
 *
 * Addresses wrap modulo the (power-of-two) size, so workload kernels
 * can use unbounded strides without bounds bookkeeping — the wrap is
 * part of the workload semantics on both platforms.
 */
class Memory
{
  public:
    /** Allocate zeroed memory; size is rounded up to a power of two. */
    explicit Memory(std::uint64_t size_bytes);

    std::uint64_t size() const { return addrMask + 1; }

    /** Mask an address into range. */
    std::uint64_t mask(std::uint64_t addr) const
    {
        return addr & addrMask;
    }

    /**
     * Read an unsigned little-endian value of 1 or 8 bytes.
     *
     * Inline fast path: on a little-endian host a non-wrapping 8-byte
     * access is a single (unaligned) memcpy — byte-for-byte the same
     * value the generic per-byte loop assembles, which stays in
     * readSlow() for the wrap-around case and other hosts. Every
     * simulated load funnels through here, so the loop was one of the
     * hottest scalar paths in both execution engines.
     */
    std::uint64_t read(std::uint64_t addr, unsigned size)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::uint64_t a = mask(addr);
            if (size == 8 && a + 8 <= addrMask + 1) [[likely]] {
                std::uint64_t value;
                std::memcpy(&value, bytes.get() + a, 8);
                return value;
            }
            if (size == 1)
                return bytes[a];
        }
        return readSlow(addr, size);
    }

    /** Write a little-endian value of 1 or 8 bytes. */
    void write(std::uint64_t addr, std::uint64_t value, unsigned size)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::uint64_t a = mask(addr);
            if (size == 8 && a + 8 <= addrMask + 1) [[likely]] {
                std::memcpy(bytes.get() + a, &value, 8);
                return;
            }
            if (size == 1) {
                bytes[a] = static_cast<std::uint8_t>(value);
                return;
            }
        }
        writeSlow(addr, value, size);
    }

    /** Convenience 64-bit accessors. */
    std::uint64_t read64(std::uint64_t addr) { return read(addr, 8); }
    void write64(std::uint64_t addr, std::uint64_t value)
    {
        write(addr, value, 8);
    }

    /** Zero the whole memory. */
    void clear();

    /**
     * Replace the contents with zeroed memory of the size a fresh
     * Memory(size_bytes) has.
     */
    void resize(std::uint64_t size_bytes);

    /**
     * Zeroed buffers allocated by every Memory of the process so far:
     * one per construction, resize() and clear().
     */
    static std::uint64_t allocations();

  private:
    /** Generic byte loop: wrap-around accesses, size checks. */
    std::uint64_t readSlow(std::uint64_t addr, unsigned size);
    void writeSlow(std::uint64_t addr, std::uint64_t value,
                   unsigned size);

    struct FreeBytes
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    /** calloc'd (see resize()); size() bytes long. */
    std::unique_ptr<std::uint8_t[], FreeBytes> bytes;
    std::uint64_t addrMask = 0;
};

/**
 * Global exclusive monitor for LDREX/STREX, one reservation per
 * hardware thread. A store by any thread to a reserved address clears
 * other threads' reservations, giving the usual lock-free CAS loop
 * semantics the multithreaded workloads rely on.
 */
class ExclusiveMonitor
{
  public:
    /** Reset all reservations (e.g. between benchmark runs). */
    void reset();

    /** Record a reservation for a thread. */
    void setReservation(unsigned thread_id, std::uint64_t addr);

    /**
     * Attempt the exclusive store.
     * @return true (and consume the reservation) if still valid.
     */
    bool tryStore(unsigned thread_id, std::uint64_t addr);

    /**
     * Invalidate other threads' reservations on a plain store.
     *
     * Inline early-out: with no live reservation (the common case —
     * every plain store of every thread calls this) the slot scan is
     * skipped entirely. validCount tracks the live reservations, so
     * skipping the scan when it is zero clears exactly the same
     * (empty) set of slots the scan would.
     */
    void observeStore(unsigned thread_id, std::uint64_t addr)
    {
        (void)thread_id;
        if (validCount == 0)
            return;
        observeStoreSlow(addr);
    }

    /** True if the thread currently holds a valid reservation. */
    bool holds(unsigned thread_id) const;

  private:
    static constexpr unsigned maxThreads = 8;
    struct Reservation
    {
        bool valid = false;
        std::uint64_t addr = 0;
    };

    void observeStoreSlow(std::uint64_t addr);

    Reservation slots[maxThreads];
    /** Number of slots with valid == true. */
    unsigned validCount = 0;
};

} // namespace gemstone::isa

#endif // GEMSTONE_ISA_MEMORY_HH
