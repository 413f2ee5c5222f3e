/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation, in-place rescheduling and bounded runs, plus a seeded
 * differential test against an ordered-set reference queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace {

using dgxsim::sim::EventHandle;
using dgxsim::sim::EventQueue;
using dgxsim::sim::Tick;

TEST(EventQueueTest, StartsAtTickZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, SameTickEventsRunInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CallbackCanScheduleFurtherEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleAfter(4, [&] {
            ++fired;
            q.scheduleAfter(5, [&] { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueueTest, SchedulingInThePastIsFatal)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_THROW(q.schedule(50, [] {}), dgxsim::sim::FatalError);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(h.valid());
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(h.valid());
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executedEvents(), 0u);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueueTest, CancelAfterFiringReturnsFalse)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(h.valid());
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueueTest, CancelledEventDoesNotBlockQueueDrain)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.cancel(h);
    EXPECT_EQ(q.pendingEvents(), 1u);
    q.run();
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.executedEvents(), 1u);
}

TEST(EventQueueTest, RunUntilStopsAtLimit)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(10, [&] { fired.push_back(10); });
    q.schedule(20, [&] { fired.push_back(20); });
    q.schedule(30, [&] { fired.push_back(30); });
    q.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(q.now(), 20u);
    q.run();
    EXPECT_EQ(fired.back(), 30u);
}

TEST(EventQueueTest, RunUntilAdvancesTimeWhenQueueDrains)
{
    EventQueue q;
    q.schedule(5, [] {});
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, StepExecutesExactlyOneEvent)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 1u);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, ExecutedEventsCounterCounts)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(i + 1, [] {});
    q.run();
    EXPECT_EQ(q.executedEvents(), 7u);
}

TEST(EventQueueTest, ArenaRecyclesRecordsInsteadOfGrowing)
{
    // Sequential schedule/fire churn far beyond one slab must keep
    // reusing the free list: the arena stays at its first slab.
    EventQueue q;
    for (int i = 0; i < 10000; ++i) {
        q.schedule(q.now() + 1, [] {});
        q.step();
    }
    EXPECT_EQ(q.executedEvents(), 10000u);
    EXPECT_LE(q.arenaRecords(), 512u) << "free list not reused";
}

TEST(EventQueueTest, ArenaGrowsBySlabUnderLivePressure)
{
    EventQueue q;
    for (int i = 0; i < 1000; ++i)
        q.schedule(10, [] {});
    EXPECT_GE(q.arenaRecords(), 1000u);
    EXPECT_EQ(q.arenaRecords() % 512u, 0u) << "slab granularity";
    const std::size_t peak = q.arenaRecords();
    q.run();
    // Slabs are retained for reuse, never returned mid-simulation.
    EXPECT_EQ(q.arenaRecords(), peak);
}

TEST(EventQueueTest, StaleHandleCannotCancelARecycledRecord)
{
    // After a record is recycled its generation advances, so a
    // handle from the previous occupant must not cancel (or even
    // report valid for) the new event sharing the same slot.
    EventQueue q;
    EventHandle old = q.schedule(1, [] {});
    q.run(); // fires; record returns to the free list
    bool ran = false;
    EventHandle fresh = q.schedule(2, [&] { ran = true; });
    EXPECT_FALSE(old.valid());
    EXPECT_FALSE(q.cancel(old));
    EXPECT_TRUE(fresh.valid());
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueueTest, CancelHeavyChurnKeepsCountsConsistent)
{
    // The FlowNetwork pattern: every round cancels K handles and
    // reschedules them. Counters and drain behavior must match the
    // naive queue's semantics exactly.
    EventQueue q;
    const int K = 8;
    std::vector<EventHandle> handles(K);
    long fired = 0;
    for (int round = 0; round < 200; ++round) {
        for (int k = 0; k < K; ++k) {
            q.cancel(handles[k]);
            handles[k] = q.schedule(q.now() + 1 + (k * 7 + round) % 5,
                                    [&fired] { ++fired; });
        }
        q.step();
    }
    q.run();
    EXPECT_EQ(q.executedEvents(), static_cast<std::uint64_t>(fired));
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelReleasesItsRecordImmediately)
{
    // The measureEqChurn pattern: 64 live handles cancelled and
    // re-scheduled per step(). A cancelled record returns to the free
    // list at once, so the arena never outgrows one slab.
    EventQueue q;
    const int K = 64;
    std::vector<EventHandle> handles(K);
    std::uint64_t x = 7;
    for (int round = 0; round < 10000; ++round) {
        for (int k = 0; k < K; ++k) {
            q.cancel(handles[k]);
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            handles[k] = q.schedule(q.now() + 1 + (x >> 33) % 64, [] {});
        }
        EXPECT_EQ(q.pendingEvents(), static_cast<std::size_t>(K));
        q.step();
    }
    EXPECT_EQ(q.arenaRecords(), 512u);
    EXPECT_EQ(q.executedEvents(), 10000u);
}

TEST(EventQueueTest, RescheduledEventRunsAfterEarlierSameTickEvents)
{
    // A reschedule takes a fresh sequence number, exactly like a
    // cancel plus schedule: it queues behind everything already
    // scheduled for its new tick, even events scheduled after it.
    EventQueue q;
    std::vector<int> order;
    EventHandle first = q.schedule(10, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(2); });
    EventHandle late = q.schedule(20, [&] { order.push_back(3); });
    EXPECT_TRUE(q.reschedule(first, 10));
    EXPECT_TRUE(q.reschedule(late, 10));
    EXPECT_TRUE(first.valid());
    EXPECT_EQ(q.pendingEvents(), 3u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueueTest, RescheduleKeepsTheCallback)
{
    EventQueue q;
    Tick fired_at = 0;
    int runs = 0;
    EventHandle h = q.schedule(50, [&] {
        fired_at = q.now();
        ++runs;
    });
    q.schedule(5, [] {});
    EXPECT_TRUE(q.reschedule(h, 70)); // later
    EXPECT_TRUE(q.reschedule(h, 30)); // earlier
    q.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(fired_at, 30u);
    EXPECT_EQ(q.executedEvents(), 2u);
}

TEST(EventQueueTest, RescheduleRejectsDeadHandles)
{
    EventQueue q;
    EventHandle none;
    EXPECT_FALSE(q.reschedule(none, 1));

    EventHandle fired = q.schedule(1, [] {});
    q.run();
    EXPECT_FALSE(q.reschedule(fired, 5));

    EventHandle cancelled = q.schedule(2, [] {});
    EXPECT_TRUE(q.cancel(cancelled));
    EXPECT_FALSE(q.reschedule(cancelled, 5));

    // The fired and cancelled records are reused; their old handles
    // must not move the new occupants.
    bool ran = false;
    EventHandle a = q.schedule(3, [&] { ran = true; });
    EventHandle b = q.schedule(4, [] {});
    EXPECT_FALSE(q.reschedule(fired, 9));
    EXPECT_FALSE(q.reschedule(cancelled, 9));
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    q.runUntil(4);
    EXPECT_TRUE(ran);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executedEvents(), 3u);
}

TEST(EventQueueTest, RescheduleIntoThePastIsFatal)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EventHandle h = q.schedule(200, [] {});
    EXPECT_THROW(q.reschedule(h, 50), dgxsim::sim::FatalError);
    EXPECT_TRUE(h.valid());
    EXPECT_TRUE(q.reschedule(h, 100));
    q.run();
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, ScheduleAfterPastTheTickHorizonIsFatal)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    try {
        q.scheduleAfter(~Tick(0) - 5, [] {});
        FAIL() << "a wrapped tick was scheduled";
    } catch (const dgxsim::sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("2^64-tick horizon"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(q.empty());
    q.scheduleAfter(~Tick(0) - 10, [] {}); // exactly the last tick
    q.run();
    EXPECT_EQ(q.now(), ~Tick(0));
}

/**
 * Differential test: random schedule/cancel/reschedule/step/runUntil
 * sequences through the EventQueue and through an ordered set of
 * (when, seq, id) in which a reschedule is an erase plus an insert
 * with a fresh seq. Fire order, now(), pendingEvents() and
 * executedEvents() must agree after every operation.
 */
TEST(EventQueueTest, MatchesOrderedSetReferenceUnderRandomOps)
{
    using Key = std::tuple<Tick, std::uint64_t, int>;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::mt19937_64 rng(seed);
        EventQueue q;
        std::vector<EventHandle> handles;
        std::vector<int> fired;

        std::set<Key> ref;
        std::vector<std::set<Key>::iterator> ref_pos; // per id
        std::vector<bool> ref_pending;
        std::vector<int> ref_fired;
        Tick ref_now = 0;
        std::uint64_t ref_seq = 0;
        std::uint64_t ref_executed = 0;

        auto ref_pop = [&] {
            const auto it = ref.begin();
            ref_now = std::get<0>(*it);
            ref_fired.push_back(std::get<2>(*it));
            ref_pending[std::get<2>(*it)] = false;
            ref.erase(it);
            ++ref_executed;
        };

        for (int op = 0; op < 3000; ++op) {
            const std::uint64_t r = rng();
            const int kind = static_cast<int>(r % 100);
            // Small tick offsets force plenty of same-tick ties.
            const Tick when = q.now() + (r >> 8) % 40;
            if (kind < 40 || handles.empty()) {
                const int id = static_cast<int>(handles.size());
                handles.push_back(
                    q.schedule(when, [&fired, id] { fired.push_back(id); }));
                ref_pos.push_back(ref.insert({when, ref_seq++, id}).first);
                ref_pending.push_back(true);
            } else if (kind < 55) {
                const int id = static_cast<int>((r >> 20) % handles.size());
                const bool was = ref_pending[id];
                if (was) {
                    ref.erase(ref_pos[id]);
                    ref_pending[id] = false;
                }
                ASSERT_EQ(q.cancel(handles[id]), was) << "seed " << seed;
            } else if (kind < 80) {
                const int id = static_cast<int>((r >> 20) % handles.size());
                const bool was = ref_pending[id];
                if (was) {
                    ref.erase(ref_pos[id]);
                    ref_pos[id] = ref.insert({when, ref_seq++, id}).first;
                }
                ASSERT_EQ(q.reschedule(handles[id], when), was)
                    << "seed " << seed;
            } else if (kind < 97) {
                const bool ran = q.step();
                ASSERT_EQ(ran, !ref.empty()) << "seed " << seed;
                if (!ref.empty())
                    ref_pop();
            } else {
                const Tick limit = q.now() + (r >> 8) % 20;
                q.runUntil(limit);
                while (!ref.empty() && std::get<0>(*ref.begin()) <= limit)
                    ref_pop();
                ref_now = std::max(ref_now, limit);
            }
            ASSERT_EQ(fired, ref_fired) << "seed " << seed << " op " << op;
            ASSERT_EQ(q.now(), ref_now) << "seed " << seed;
            ASSERT_EQ(q.pendingEvents(), ref.size()) << "seed " << seed;
            ASSERT_EQ(q.executedEvents(), ref_executed) << "seed " << seed;
            for (std::size_t id = 0; id < handles.size(); ++id)
                ASSERT_EQ(handles[id].valid(), ref_pending[id]);
        }
        q.run();
        while (!ref.empty())
            ref_pop();
        EXPECT_EQ(fired, ref_fired) << "seed " << seed;
        EXPECT_EQ(q.now(), ref_now) << "seed " << seed;
    }
}

/** Deterministic interleave: a self-rescheduling pair of processes. */
TEST(EventQueueTest, InterleavedProcessesAreDeterministic)
{
    auto run_once = [] {
        EventQueue q;
        std::vector<int> trace;
        std::function<void(int, Tick)> proc = [&](int id, Tick period) {
            trace.push_back(id);
            if (q.now() < 100) {
                q.scheduleAfter(period,
                                [&proc, id, period] { proc(id, period); });
            }
        };
        q.schedule(0, [&] { proc(1, 7); });
        q.schedule(0, [&] { proc(2, 11); });
        q.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
