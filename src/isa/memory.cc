/**
 * @file
 * Memory and exclusive-monitor implementation.
 */

#include "isa/memory.hh"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

namespace gemstone::isa {

namespace {

std::atomic<std::uint64_t> bufferAllocations{0};

} // namespace

Memory::Memory(std::uint64_t size_bytes)
{
    resize(size_bytes);
}

void
Memory::resize(std::uint64_t size_bytes)
{
    panic_if(size_bytes == 0, "memory size must be non-zero");
    std::uint64_t rounded = std::bit_ceil(size_bytes);
    // calloc rather than a zero fill: a large buffer comes straight
    // from fresh zero pages, so the part of a rounded-up size that a
    // workload never touches is never made resident, and a memory
    // reused for a smaller workload gives the larger one's pages back.
    bytes.reset(static_cast<std::uint8_t *>(std::calloc(rounded, 1)));
    fatal_if(!bytes, "cannot allocate ", rounded,
             " bytes of workload memory");
    addrMask = rounded - 1;
    bufferAllocations.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Memory::allocations()
{
    return bufferAllocations.load(std::memory_order_relaxed);
}

std::uint64_t
Memory::readSlow(std::uint64_t addr, unsigned size)
{
    panic_if(size != 1 && size != 8, "unsupported access size ", size);
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i)
        value |= static_cast<std::uint64_t>(bytes[mask(addr + i)])
            << (8 * i);
    return value;
}

void
Memory::writeSlow(std::uint64_t addr, std::uint64_t value,
                  unsigned size)
{
    panic_if(size != 1 && size != 8, "unsupported access size ", size);
    for (unsigned i = 0; i < size; ++i)
        bytes[mask(addr + i)] =
            static_cast<std::uint8_t>(value >> (8 * i));
}

void
Memory::clear()
{
    resize(size());
}

void
ExclusiveMonitor::reset()
{
    for (auto &slot : slots)
        slot.valid = false;
    validCount = 0;
}

void
ExclusiveMonitor::setReservation(unsigned thread_id, std::uint64_t addr)
{
    panic_if(thread_id >= maxThreads, "thread id out of range");
    if (!slots[thread_id].valid)
        ++validCount;
    slots[thread_id] = {true, addr};
}

bool
ExclusiveMonitor::tryStore(unsigned thread_id, std::uint64_t addr)
{
    panic_if(thread_id >= maxThreads, "thread id out of range");
    Reservation &slot = slots[thread_id];
    if (!slot.valid || slot.addr != addr)
        return false;
    slot.valid = false;
    --validCount;
    // A successful exclusive store also invalidates everyone else's
    // reservation on the same address.
    observeStore(thread_id, addr);
    return true;
}

void
ExclusiveMonitor::observeStoreSlow(std::uint64_t addr)
{
    // A plain store clears every reservation on that address,
    // including the storing thread's own (matching the common ARM
    // implementation choice).
    for (auto &slot : slots) {
        if (slot.valid && slot.addr == addr) {
            slot.valid = false;
            --validCount;
        }
    }
}

bool
ExclusiveMonitor::holds(unsigned thread_id) const
{
    panic_if(thread_id >= maxThreads, "thread id out of range");
    return slots[thread_id].valid;
}

} // namespace gemstone::isa
