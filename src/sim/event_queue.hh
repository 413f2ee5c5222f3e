/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in scheduling order
 * (FIFO by sequence number), which keeps the whole simulation
 * deterministic and reproducible.
 *
 * Storage is a slab/free-list arena: event records are pooled and
 * recycled instead of heap-allocated per event. The pending set is an
 * indexed 4-ary min-heap ordered by (tick, sequence) that holds
 * exactly the pending events: every record knows its heap slot, so
 * cancel() removes the entry at once and recycles its record, and
 * reschedule() moves a pending event to a new tick in place. Flow
 * completions move on every rate change, so the in-place move is the
 * simulator's hottest queue operation. A rescheduled event takes a
 * fresh sequence number exactly as a cancel-then-schedule would, so
 * every (tick, sequence) key, and with it the execution order, is the
 * same either way. Handles carry a generation counter so a handle to a
 * fired, cancelled or recycled event is inert — but a handle must not
 * outlive the queue it came from (records live in the queue's slabs).
 */

#ifndef DGXSIM_SIM_EVENT_QUEUE_HH
#define DGXSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace dgxsim::sim {

class EventQueue;

/** Opaque handle identifying a scheduled event; used for cancellation. */
class EventHandle
{
  public:
    EventHandle() = default;

    /** @return true if this handle refers to a still-pending event. */
    bool valid() const;

  private:
    friend class EventQueue;
    struct Record
    {
        std::function<void()> callback;
        /** Bumped every time the record is recycled; a handle whose
         * generation no longer matches refers to a dead event. */
        std::uint64_t gen = 0;
        /** Index of this event's heap entry while it is pending. */
        std::size_t slot = 0;
    };
    EventHandle(Record *r, std::uint64_t gen) : record_(r), gen_(gen) {}
    Record *record_ = nullptr;
    std::uint64_t gen_ = 0;
};

/**
 * The event queue at the heart of the simulator. Single-threaded;
 * callbacks may schedule further events.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return curTick_; }

    /**
     * Schedule a callback at an absolute tick.
     * @param when Absolute tick; must be >= now().
     * @param cb Callback to run.
     * @return a handle that can cancel the event.
     */
    EventHandle schedule(Tick when, Callback cb);

    /** Schedule a callback @p delay ticks from now. */
    EventHandle scheduleAfter(Tick delay, Callback cb)
    {
        return schedule(checkedTick(curTick_, delay, "event scheduled at"),
                        std::move(cb));
    }

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventHandle &handle);

    /**
     * Move a pending event to tick @p when, keeping its callback. The
     * event takes a fresh sequence number, so it runs after every
     * event already scheduled for @p when — the order a cancel plus
     * schedule would give.
     * @param when Absolute tick; must be >= now().
     * @return false (and nothing changes) if the handle's event has
     * already fired or been cancelled.
     */
    bool reschedule(EventHandle &handle, Tick when);

    /** Run events until the queue is empty. @return the final tick. */
    Tick run();

    /**
     * Run events with time <= @p limit. Time advances to @p limit if
     * the queue drains early.
     * @return the current tick after running.
     */
    Tick runUntil(Tick limit);

    /** Execute the single next event. @return false if queue empty. */
    bool step();

    /** @return true when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** @return the number of pending events. */
    std::size_t pendingEvents() const { return heap_.size(); }

    /** @return the total number of events executed so far. */
    std::uint64_t executedEvents() const { return executed_; }

    /** @return pooled records currently allocated (arena telemetry). */
    std::size_t arenaRecords() const
    {
        return slabs_.size() * kSlabSize;
    }

  private:
    using Record = EventHandle::Record;

    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        Record *record;

        bool
        operator<(const HeapEntry &other) const
        {
            return when != other.when ? when < other.when
                                      : seq < other.seq;
        }
    };

    static constexpr std::size_t kSlabSize = 512;

    /** Take the entry at @p i out of the heap and recycle its record. */
    void remove(std::size_t i);

    /** Move @p entry up from slot @p i into place. */
    void siftUp(std::size_t i, HeapEntry entry);

    /** Move @p entry down from slot @p i into place. */
    void siftDown(std::size_t i, HeapEntry entry);

    /** Place @p entry at slot @p i, sifting whichever way it must. */
    void resift(std::size_t i, HeapEntry entry);

    Record *allocRecord();
    void recycle(Record *rec);

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    /** 4-ary min-heap ordered by (when, seq): exactly the pending
     * events, each record holding its entry's slot. */
    std::vector<HeapEntry> heap_;
    std::vector<std::unique_ptr<Record[]>> slabs_;
    std::vector<Record *> freeList_;
};

inline bool
EventHandle::valid() const
{
    return record_ && record_->gen == gen_;
}

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_EVENT_QUEUE_HH
