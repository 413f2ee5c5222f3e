#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dgxsim::sim {

EventQueue::Record *
EventQueue::allocRecord()
{
    if (freeList_.empty()) {
        slabs_.push_back(std::make_unique<Record[]>(kSlabSize));
        Record *slab = slabs_.back().get();
        freeList_.reserve(freeList_.size() + kSlabSize);
        // Every pending event holds a record, so a heap with room for
        // every record never reallocates between slab allocations.
        if (heap_.capacity() < arenaRecords())
            heap_.reserve(std::max(arenaRecords(), 2 * heap_.capacity()));
        // Reverse order so the first allocation serves slab[0].
        for (std::size_t i = kSlabSize; i-- > 0;)
            freeList_.push_back(&slab[i]);
    }
    Record *rec = freeList_.back();
    freeList_.pop_back();
    return rec;
}

void
EventQueue::recycle(Record *rec)
{
    // Invalidate every outstanding handle to this incarnation, then
    // make the record reusable. The callback is released eagerly so
    // captured resources do not linger on the free list.
    ++rec->gen;
    rec->callback = nullptr;
    freeList_.push_back(rec);
}

void
EventQueue::siftUp(std::size_t i, HeapEntry entry)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!(entry < heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_[i].record->slot = i;
        i = parent;
    }
    heap_[i] = entry;
    entry.record->slot = i;
}

void
EventQueue::siftDown(std::size_t i, HeapEntry entry)
{
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (heap_[c] < heap_[best])
                best = c;
        }
        if (!(heap_[best] < entry))
            break;
        heap_[i] = heap_[best];
        heap_[i].record->slot = i;
        i = best;
    }
    heap_[i] = entry;
    entry.record->slot = i;
}

void
EventQueue::resift(std::size_t i, HeapEntry entry)
{
    if (i > 0 && entry < heap_[(i - 1) / 4])
        siftUp(i, entry);
    else
        siftDown(i, entry);
}

void
EventQueue::remove(std::size_t i)
{
    Record *rec = heap_[i].record;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size())
        resift(i, last);
    recycle(rec);
}

EventHandle
EventQueue::schedule(Tick when, Callback cb)
{
    if (when < curTick_)
        fatal("event scheduled in the past: ", when, " < ", curTick_);
    Record *rec = allocRecord();
    rec->callback = std::move(cb);
    const HeapEntry entry{when, nextSeq_++, rec};
    heap_.push_back(entry);
    siftUp(heap_.size() - 1, entry);
    return EventHandle(rec, rec->gen);
}

bool
EventQueue::cancel(EventHandle &handle)
{
    if (!handle.valid())
        return false;
    remove(handle.record_->slot);
    return true;
}

bool
EventQueue::reschedule(EventHandle &handle, Tick when)
{
    if (when < curTick_)
        fatal("event rescheduled into the past: ", when, " < ", curTick_);
    if (!handle.valid())
        return false;
    Record *rec = handle.record_;
    resift(rec->slot, HeapEntry{when, nextSeq_++, rec});
    return true;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const HeapEntry top = heap_.front();
    curTick_ = top.when;
    ++executed_;
    // Move the callback out and recycle before invoking: the callback
    // may schedule new events (reusing this record is fine — any
    // handle to the fired event went stale at the generation bump).
    Callback cb = std::move(top.record->callback);
    remove(0);
    cb();
    return true;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return curTick_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit)
        step();
    if (curTick_ < limit)
        curTick_ = limit;
    return curTick_;
}

} // namespace dgxsim::sim
