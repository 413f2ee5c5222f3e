/**
 * @file
 * Tests for the host API-issuing thread: serialization, overhead
 * accounting, and blocking-synchronization attribution (the mechanism
 * behind the paper's Table III).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cuda/host_thread.hh"
#include "cuda/stream.hh"
#include "sim/event_queue.hh"

namespace {

using namespace dgxsim;
using cuda::CudaEvent;
using cuda::HostThread;
using cuda::Stream;
using profiling::Name;

class HostThreadTest : public ::testing::Test
{
  protected:
    sim::EventQueue queue;
    profiling::Profiler prof;
};

TEST_F(HostThreadTest, CallsSerializeAndChargeOverhead)
{
    HostThread t(queue, &prof, "worker0");
    int done = 0;
    t.call(Name("apiA"), 100, [&] { ++done; });
    t.call(Name("apiB"), 50, [&] { ++done; });
    queue.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(queue.now(), 150u);
    EXPECT_EQ(t.apiBusyTicks(), 150u);
    ASSERT_EQ(prof.apis().size(), 2u);
    EXPECT_EQ(prof.apis()[0].name, "apiA");
    EXPECT_EQ(prof.apis()[0].duration(), 100u);
    EXPECT_EQ(prof.apis()[1].start, 100u);
}

TEST_F(HostThreadTest, SyncStreamBlocksUntilDrain)
{
    HostThread t(queue, &prof, "worker0");
    Stream s(queue, &prof, 0, "s0");
    // Launch a 10'000-tick kernel via the thread (100-tick API), then
    // synchronize (50-tick entry cost + blocked time).
    t.call(Name("cudaLaunchKernel"), 100,
           [&] { s.enqueueKernel(Name("k"), 10000); });
    t.syncStream(s, 50);
    bool after_sync = false;
    t.call(Name("post"), 10, [&] { after_sync = true; });
    queue.run();
    EXPECT_TRUE(after_sync);
    // Kernel starts at 100, ends at 10100; sync spans 100..10100.
    const sim::Tick sync_time = prof.apiTime("cudaStreamSynchronize");
    EXPECT_EQ(sync_time, 10000u);
    EXPECT_EQ(queue.now(), 10110u);
}

TEST_F(HostThreadTest, SyncOnDrainedStreamCostsOnlyOverhead)
{
    HostThread t(queue, &prof, "worker0");
    Stream s(queue, &prof, 0, "s0");
    t.syncStream(s, 50);
    queue.run();
    EXPECT_EQ(prof.apiTime("cudaStreamSynchronize"), 50u);
}

TEST_F(HostThreadTest, SyncEventBlocksUntilSignal)
{
    HostThread t(queue, &prof, "worker0");
    auto evt = std::make_shared<CudaEvent>();
    t.syncEvent(evt, 10, Name("cudaEventSynchronize"));
    queue.schedule(5000, [&] { evt->signal(); });
    queue.run();
    EXPECT_EQ(prof.apiTime("cudaEventSynchronize"), 5000u);
}

TEST_F(HostThreadTest, PostActionsHaveZeroCost)
{
    HostThread t(queue, &prof, "worker0");
    bool ran = false;
    t.post([&] { ran = true; });
    queue.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(queue.now(), 0u);
    EXPECT_TRUE(prof.apis().empty());
}

TEST_F(HostThreadTest, OnIdleFiresWhenQueueDrains)
{
    HostThread t(queue, &prof, "worker0");
    sim::Tick idle_at = 0;
    t.call(Name("api"), 100);
    t.onIdle([&] { idle_at = queue.now(); });
    queue.run();
    EXPECT_EQ(idle_at, 100u);
}

TEST_F(HostThreadTest, OnIdleFiresImmediatelyWhenIdle)
{
    HostThread t(queue, &prof, "worker0");
    bool fired = false;
    t.onIdle([&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST_F(HostThreadTest, TwoThreadsProgressConcurrently)
{
    HostThread t0(queue, &prof, "w0");
    HostThread t1(queue, &prof, "w1");
    t0.call(Name("a"), 1000);
    t1.call(Name("b"), 1000);
    queue.run();
    EXPECT_EQ(queue.now(), 1000u);
    EXPECT_EQ(t0.apiBusyTicks(), 1000u);
    EXPECT_EQ(t1.apiBusyTicks(), 1000u);
}

TEST_F(HostThreadTest, PipelinedLaunchesOverlapKernelAndApi)
{
    // The host can launch kernel N+1 while kernel N executes; total
    // time is launch + sum(kernels), not sum(launch + kernel).
    HostThread t(queue, &prof, "w0");
    Stream s(queue, &prof, 0, "s0");
    for (int i = 0; i < 5; ++i)
        t.call(Name("cudaLaunchKernel"), 100,
               [&] { s.enqueueKernel(Name("k"), 1000); });
    t.syncStream(s, 10);
    queue.run();
    // First kernel starts at 100; kernels run back to back, so the
    // stream drains at 100 + 5000 and the sync returns then.
    EXPECT_EQ(queue.now(), 5100u);
}

} // namespace
