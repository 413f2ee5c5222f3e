/**
 * @file
 * Per-component pool of recycled operation slots.
 *
 * A component that runs many short operations (a fabric transfer, a
 * ring hop, a kernel on a comm lane) keeps each operation's state in a
 * slot of its own pool. The continuations it hands to the event queue,
 * the fabric or a gate capture only {this, slot}, which fits
 * std::function's inline buffer, so once the pool has grown to the
 * component's peak concurrency an operation allocates nothing.
 *
 * Slots are addressed by index, never held by reference across a call
 * that may start another operation: acquiring a slot can grow the pool
 * and move every slot. A recycled slot keeps whatever its last user
 * left (a vector's capacity, a moved-from callback), so the code that
 * acquires one assigns every field it later reads.
 */

#ifndef DGXSIM_SIM_SLOT_POOL_HH
#define DGXSIM_SIM_SLOT_POOL_HH

#include <cstdint>
#include <vector>

namespace dgxsim::sim {

/** Growable array of T slots with a LIFO free list. */
template <typename T>
class SlotPool
{
  public:
    using Slot = std::uint32_t;

    /** @return a free slot, growing the pool when none is left. */
    Slot
    acquire()
    {
        if (free_.empty()) {
            slots_.emplace_back();
            return static_cast<Slot>(slots_.size() - 1);
        }
        const Slot slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /** Return @p slot to the free list; its contents stay as they are. */
    void release(Slot slot) { free_.push_back(slot); }

    T &operator[](Slot slot) { return slots_[slot]; }
    const T &operator[](Slot slot) const { return slots_[slot]; }

  private:
    std::vector<T> slots_;
    std::vector<Slot> free_;
};

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_SLOT_POOL_HH
