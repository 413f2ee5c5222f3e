/**
 * @file
 * Tests for CUDA-stream semantics: in-order execution, cross-stream
 * event synchronization, drain notification, and copy integration.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cuda/stream.hh"
#include "hw/fabric.hh"
#include "sim/event_queue.hh"

namespace {

using namespace dgxsim;
using cuda::CudaEvent;
using cuda::Stream;
using profiling::Name;

class StreamTest : public ::testing::Test
{
  protected:
    sim::EventQueue queue;
    profiling::Profiler prof;
};

TEST_F(StreamTest, KernelsRunInOrder)
{
    Stream s(queue, &prof, 0, "s0");
    s.enqueueKernel(Name("a"), 100);
    s.enqueueKernel(Name("b"), 50);
    s.enqueueKernel(Name("c"), 25);
    queue.run();
    ASSERT_EQ(prof.kernels().size(), 3u);
    EXPECT_EQ(prof.kernels()[0].name, "a");
    EXPECT_EQ(prof.kernels()[0].start, 0u);
    EXPECT_EQ(prof.kernels()[0].end, 100u);
    EXPECT_EQ(prof.kernels()[1].name, "b");
    EXPECT_EQ(prof.kernels()[1].start, 100u);
    EXPECT_EQ(prof.kernels()[2].end, 175u);
    EXPECT_EQ(s.kernelBusyTicks(), 175u);
}

TEST_F(StreamTest, DistinctStreamsRunConcurrently)
{
    Stream s0(queue, &prof, 0, "s0");
    Stream s1(queue, &prof, 1, "s1");
    s0.enqueueKernel(Name("k0"), 1000);
    s1.enqueueKernel(Name("k1"), 1000);
    queue.run();
    EXPECT_EQ(queue.now(), 1000u);
}

TEST_F(StreamTest, DrainedReflectsState)
{
    Stream s(queue, &prof, 0, "s0");
    EXPECT_TRUE(s.drained());
    s.enqueueKernel(Name("k"), 10);
    EXPECT_FALSE(s.drained());
    queue.run();
    EXPECT_TRUE(s.drained());
}

TEST_F(StreamTest, NotifyDrainedFiresWhenQueueEmpties)
{
    Stream s(queue, &prof, 0, "s0");
    s.enqueueKernel(Name("k"), 100);
    sim::Tick drained_at = 0;
    s.notifyDrained([&] { drained_at = queue.now(); });
    queue.run();
    EXPECT_EQ(drained_at, 100u);
}

TEST_F(StreamTest, NotifyDrainedFiresImmediatelyWhenIdle)
{
    Stream s(queue, &prof, 0, "s0");
    bool fired = false;
    s.notifyDrained([&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST_F(StreamTest, EventSynchronizesTwoStreams)
{
    Stream producer(queue, &prof, 0, "p");
    Stream consumer(queue, &prof, 1, "c");
    auto evt = std::make_shared<CudaEvent>();
    producer.enqueueKernel(Name("produce"), 500);
    producer.enqueueSignal(evt);
    consumer.enqueueWait(evt);
    consumer.enqueueKernel(Name("consume"), 100);
    queue.run();
    ASSERT_EQ(prof.kernels().size(), 2u);
    const auto &consume = prof.kernels()[1];
    EXPECT_EQ(consume.name, "consume");
    EXPECT_EQ(consume.start, 500u);
    EXPECT_EQ(consume.end, 600u);
}

TEST_F(StreamTest, SatisfiedWaitBecomesADepOfTheNextRecord)
{
    Stream producer(queue, &prof, 0, "p");
    Stream consumer(queue, &prof, 1, "c");
    auto evt = std::make_shared<CudaEvent>();
    consumer.enqueueKernel(Name("before"), 100);
    producer.enqueueKernel(Name("produce"), 500);
    producer.enqueueSignal(evt);
    consumer.enqueueWait(evt);
    consumer.enqueueKernel(Name("consume"), 100);
    queue.run();
    ASSERT_EQ(prof.kernels().size(), 3u);
    const profiling::RecordId before = prof.kernels()[0].id;
    const profiling::RecordId produce = prof.kernels()[1].id;
    const profiling::RecordId consume = prof.kernels()[2].id;
    // Program order on the consumer plus the producer that satisfied
    // the wait, sorted.
    const auto deps = prof.deps(consume);
    EXPECT_EQ(std::vector<profiling::RecordId>(deps.begin(), deps.end()),
              (std::vector<profiling::RecordId>{before, produce}));
}

TEST_F(StreamTest, WaitOnAlreadySignaledEventDoesNotBlock)
{
    Stream s(queue, &prof, 0, "s0");
    auto evt = std::make_shared<CudaEvent>();
    evt->signal();
    s.enqueueWait(evt);
    s.enqueueKernel(Name("k"), 10);
    queue.run();
    EXPECT_EQ(prof.kernels()[0].start, 0u);
}

TEST_F(StreamTest, HostFnRunsInStreamOrder)
{
    Stream s(queue, &prof, 0, "s0");
    std::vector<int> order;
    s.enqueueKernel(Name("k1"), 100);
    s.enqueueHostFn([&] { order.push_back(1); });
    s.enqueueKernel(Name("k2"), 100);
    s.enqueueHostFn([&] { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(StreamTest, CopyOccupiesStreamUntilDelivery)
{
    hw::Fabric fabric(queue, hw::Topology::dgx1Volta());
    Stream s(queue, &prof, 0, "s0");
    s.enqueueCopy(fabric, Name("PtoP"), 0, 3, 25u * 1000 * 1000);
    s.enqueueKernel(Name("after-copy"), 100);
    queue.run();
    ASSERT_EQ(prof.kernels().size(), 1u);
    // 25 MB over 25 GB/s == 1 ms (+1 us latency); kernel starts after.
    EXPECT_NEAR(sim::ticksToMs(prof.kernels()[0].start), 1.0, 0.01);
    ASSERT_EQ(prof.copies().size(), 1u);
    EXPECT_EQ(prof.copies()[0].kind, "PtoP");
    EXPECT_EQ(prof.copies()[0].bytes, 25u * 1000 * 1000);
}

TEST_F(StreamTest, ChainedEventsAcrossThreeStreams)
{
    Stream a(queue, &prof, 0, "a");
    Stream b(queue, &prof, 1, "b");
    Stream c(queue, &prof, 2, "c");
    auto e1 = std::make_shared<CudaEvent>();
    auto e2 = std::make_shared<CudaEvent>();
    a.enqueueKernel(Name("ka"), 100);
    a.enqueueSignal(e1);
    b.enqueueWait(e1);
    b.enqueueKernel(Name("kb"), 100);
    b.enqueueSignal(e2);
    c.enqueueWait(e2);
    c.enqueueKernel(Name("kc"), 100);
    queue.run();
    EXPECT_EQ(queue.now(), 300u);
}

TEST_F(StreamTest, WorksWithoutProfiler)
{
    Stream s(queue, nullptr, 0, "s0");
    s.enqueueKernel(Name("k"), 100);
    queue.run();
    EXPECT_EQ(queue.now(), 100u);
}

} // namespace
