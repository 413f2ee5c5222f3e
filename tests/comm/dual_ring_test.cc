/**
 * @file
 * Tests for the dual-ring NCCL extension: both NVLink directions
 * carry traffic, collectives speed up, and results stay correct.
 */

#include <gtest/gtest.h>

#include "comm/nccl_communicator.hh"
#include "core/trainer_base.hh"

namespace {

using namespace dgxsim;
using comm::CommConfig;
using comm::CommContext;

double
timedCollective(int gpus, int rings, sim::Bytes bytes, bool reduce)
{
    sim::EventQueue q;
    hw::Fabric f(q, hw::Topology::dgx1Volta());
    CommContext c;
    c.queue = &q;
    c.fabric = &f;
    c.gpus = f.topology().gpuSet(gpus);
    c.gpuSpec = hw::GpuSpec::voltaV100();
    CommConfig cfg;
    cfg.ncclRings = rings;
    comm::NcclCommunicator nccl(c, cfg);
    sim::Tick end = 0;
    if (reduce)
        nccl.reduce(bytes, [&] { end = q.now(); });
    else
        nccl.broadcast(bytes, [&] { end = q.now(); });
    q.run();
    return sim::ticksToSec(end);
}

TEST(DualRingTest, TwoRingsSpeedUpLargeReduces)
{
    const sim::Bytes bytes = 128u << 20;
    for (int gpus : {4, 8}) {
        const double one = timedCollective(gpus, 1, bytes, true);
        const double two = timedCollective(gpus, 2, bytes, true);
        EXPECT_LT(two, 0.65 * one) << gpus;
    }
}

TEST(DualRingTest, TwoRingsSpeedUpBroadcasts)
{
    const sim::Bytes bytes = 128u << 20;
    const double one = timedCollective(8, 1, bytes, false);
    const double two = timedCollective(8, 2, bytes, false);
    EXPECT_LT(two, 0.65 * one);
}

TEST(DualRingTest, SmallMessagesGainLittle)
{
    // Hop latency dominates tiny collectives; splitting them buys
    // almost nothing (and the paper-era NCCL used one ring).
    const sim::Bytes bytes = 64 << 10;
    const double one = timedCollective(8, 1, bytes, true);
    const double two = timedCollective(8, 2, bytes, true);
    EXPECT_GT(two, 0.8 * one);
}

TEST(DualRingTest, OddByteCountsSplitCleanly)
{
    const double secs = timedCollective(4, 2, (1 << 20) + 1, true);
    EXPECT_GT(secs, 0.0);
}

TEST(DualRingTest, TrainerLevelGainForBigNetworks)
{
    core::TrainConfig cfg;
    cfg.model = "vgg-16";
    cfg.numGpus = 8;
    cfg.batchPerGpu = 32;
    cfg.method = comm::CommMethod::NCCL;
    const double one_ring = core::TrainerBase::simulate(cfg).epochSeconds;
    cfg.commConfig.ncclRings = 2;
    const double two_rings = core::TrainerBase::simulate(cfg).epochSeconds;
    EXPECT_LT(two_rings, one_ring);
}

} // namespace
