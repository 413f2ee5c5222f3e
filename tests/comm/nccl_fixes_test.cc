/**
 * @file
 * Regression tests for NCCL edge cases: sub-2-byte dual-ring
 * collectives must not run an empty reversed-ring pass, and copy
 * records must expose the protocol-inflated wire bytes alongside the
 * payload so durations and byte counts stay consistent.
 */

#include <gtest/gtest.h>

#include "comm/nccl_communicator.hh"
#include "profiling/profiler.hh"
#include "sim/auditor.hh"

namespace {

using namespace dgxsim;
using comm::CommConfig;
using comm::CommContext;

struct Bench
{
    sim::EventQueue q;
    hw::Fabric fabric{q, hw::Topology::dgx1Volta()};
    profiling::Profiler prof;
    std::unique_ptr<comm::NcclCommunicator> nccl;

    explicit Bench(int gpus, CommConfig cfg = {})
    {
        CommContext c;
        c.queue = &q;
        c.fabric = &fabric;
        c.gpus = fabric.topology().gpuSet(gpus);
        c.gpuSpec = hw::GpuSpec::voltaV100();
        c.profiler = &prof;
        prof.setAuditor(fabric.enableAudit());
        nccl = std::make_unique<comm::NcclCommunicator>(c, cfg);
    }
};

std::size_t
kernelCount(const Bench &b, const std::string &name)
{
    std::size_t n = 0;
    for (const auto &k : b.prof.kernels())
        n += k.name == name;
    return n;
}

TEST(NcclFixesTest, TinyDualRingReduceSkipsEmptyHalf)
{
    // bytes/2 == 0: the reversed ring would carry nothing, yet the
    // old code ran a full pass of hop latencies and kernels for it.
    for (sim::Bytes bytes : {sim::Bytes(0), sim::Bytes(1)}) {
        CommConfig cfg;
        cfg.ncclRings = 2;
        Bench b(4, cfg);
        bool done = false;
        b.nccl->reduce(bytes, [&] { done = true; });
        b.q.run();
        EXPECT_TRUE(done);
        // One single-direction pass over a 4-GPU ring: one kernel
        // per hop, path length 4 -> 3 hops (one chunk).
        EXPECT_EQ(kernelCount(b, "ncclReduceKernel"), 3u)
            << bytes << " bytes";
    }
}

TEST(NcclFixesTest, TinyDualRingBroadcastSkipsEmptyHalf)
{
    CommConfig cfg;
    cfg.ncclRings = 2;
    Bench b(4, cfg);
    bool done = false;
    b.nccl->broadcast(1, [&] { done = true; });
    b.q.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(kernelCount(b, "ncclBroadcastKernel"), 3u);
}

TEST(NcclFixesTest, TinyDualRingMatchesSingleRingTiming)
{
    auto timed = [](int rings) {
        CommConfig cfg;
        cfg.ncclRings = rings;
        Bench b(8, cfg);
        sim::Tick end = 0;
        b.nccl->reduce(1, [&] { end = b.q.now(); });
        b.q.run();
        return end;
    };
    // With the empty half skipped, a 1-byte dual-ring reduce costs
    // exactly what the single-ring one does.
    EXPECT_EQ(timed(2), timed(1));
}

TEST(NcclFixesTest, CopyRecordsCarryWireBytes)
{
    CommConfig cfg;
    cfg.ncclLinkEfficiency = 0.75;
    Bench b(4, cfg);
    const sim::Bytes payload = 3 << 20;
    bool done = false;
    b.nccl->reduce(payload, [&] { done = true; });
    b.q.run();
    ASSERT_TRUE(done);

    const auto nccl_payload = b.prof.copiedBytes("NCCL");
    const auto nccl_wire = b.prof.copiedWireBytes("NCCL");
    // Payload accounting is unchanged: 3 hops x payload.
    EXPECT_EQ(nccl_payload, 3u * payload);
    // Wire bytes reflect the protocol inflation of 1/efficiency.
    EXPECT_GT(nccl_wire, nccl_payload);
    const double ratio = static_cast<double>(nccl_wire) /
                         static_cast<double>(nccl_payload);
    EXPECT_NEAR(ratio, 1.0 / 0.75, 0.01);
    // Every record is self-consistent (also enforced by the auditor
    // the fixture attaches).
    for (const auto &c : b.prof.copies()) {
        EXPECT_GE(c.wireBytes, c.bytes);
        EXPECT_GE(c.end, c.start);
    }
}

TEST(NcclFixesTest, AllReduceRecordsWireBytes)
{
    CommConfig cfg;
    cfg.ncclLinkEfficiency = 0.8;
    Bench b(4, cfg);
    bool done = false;
    b.nccl->allReduce(8 << 20, [&] { done = true; });
    b.q.run();
    ASSERT_TRUE(done);
    const auto payload = b.prof.copiedBytes("NCCL");
    const auto wire = b.prof.copiedWireBytes("NCCL");
    ASSERT_GT(payload, 0u);
    EXPECT_NEAR(static_cast<double>(wire) /
                    static_cast<double>(payload),
                1.0 / 0.8, 0.01);
}

TEST(NcclFixesTest, AuditedCollectivesRunCleanly)
{
    // Large dual-ring collectives under the strict auditor: the run
    // completing is the assertion (violations throw).
    CommConfig cfg;
    cfg.ncclRings = 2;
    Bench b(8, cfg);
    int done = 0;
    b.nccl->reduce(32 << 20, [&] { ++done; });
    b.nccl->broadcast(32 << 20, [&] { ++done; });
    b.nccl->allReduce(32 << 20, [&] { ++done; });
    b.q.run();
    EXPECT_EQ(done, 3);
    ASSERT_NE(b.fabric.auditor(), nullptr);
    EXPECT_GT(b.fabric.auditor()->checksPerformed(), 0u);
    EXPECT_EQ(b.fabric.auditor()->violationCount(), 0u);
}

} // namespace
