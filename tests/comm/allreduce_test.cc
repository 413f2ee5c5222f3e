/**
 * @file
 * Tests for the fused AllReduce extension: timing behavior of the
 * ring all-reduce, data-plane correctness, and the trainer-level
 * allreduce + gradient-fusion modes.
 */

#include <gtest/gtest.h>

#include "comm/nccl_communicator.hh"
#include "comm/p2p_parameter_server.hh"
#include "core/trainer_base.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using comm::CommContext;

class AllReduceTest : public ::testing::Test
{
  protected:
    sim::EventQueue queue;
    hw::Fabric fabric{queue, hw::Topology::dgx1Volta()};

    CommContext
    ctx(int gpus)
    {
        CommContext c;
        c.queue = &queue;
        c.fabric = &fabric;
        c.gpus = fabric.topology().gpuSet(gpus);
        c.gpuSpec = hw::GpuSpec::voltaV100();
        return c;
    }

    double
    timedAllReduce(comm::Communicator &comm, sim::Bytes bytes)
    {
        sim::Tick end = 0;
        comm.allReduce(bytes, [&] { end = queue.now(); });
        queue.run();
        return sim::ticksToSec(end);
    }
};

TEST_F(AllReduceTest, SingleGpuRunsOneKernel)
{
    comm::NcclCommunicator nccl(ctx(1));
    EXPECT_GT(timedAllReduce(nccl, 64 << 20), 0.0);
}

TEST_F(AllReduceTest, RingAllReduceBeatsReducePlusBroadcast)
{
    // 2(N-1)/N x S per GPU beats 2 full ring passes of S.
    const sim::Bytes bytes = 100u * 1000 * 1000;
    double fused, two_pass;
    {
        sim::EventQueue q;
        hw::Fabric f(q, hw::Topology::dgx1Volta());
        CommContext c;
        c.queue = &q;
        c.fabric = &f;
        c.gpus = f.topology().gpuSet(8);
        c.gpuSpec = hw::GpuSpec::voltaV100();
        comm::NcclCommunicator nccl(c);
        sim::Tick end = 0;
        nccl.allReduce(bytes, [&] { end = q.now(); });
        q.run();
        fused = sim::ticksToSec(end);
    }
    {
        sim::EventQueue q;
        hw::Fabric f(q, hw::Topology::dgx1Volta());
        CommContext c;
        c.queue = &q;
        c.fabric = &f;
        c.gpus = f.topology().gpuSet(8);
        c.gpuSpec = hw::GpuSpec::voltaV100();
        comm::NcclCommunicator nccl(c);
        sim::Tick end = 0;
        nccl.reduce(bytes, nullptr);
        nccl.broadcast(bytes, [&] { end = q.now(); });
        q.run();
        two_pass = sim::ticksToSec(end);
    }
    EXPECT_LT(fused, two_pass);
}

TEST_F(AllReduceTest, P2pFallsBackToReduceThenBroadcast)
{
    comm::P2pParameterServer p2p(ctx(4));
    const double fused = timedAllReduce(p2p, 50 << 20);
    EXPECT_GT(fused, 0.0);
}

TEST_F(AllReduceTest, AllReduceOpsSerializeAndComplete)
{
    comm::NcclCommunicator nccl(ctx(4));
    int done = 0;
    for (int i = 0; i < 5; ++i)
        nccl.allReduce(4 << 20, [&] { ++done; });
    queue.run();
    EXPECT_EQ(done, 5);
    EXPECT_TRUE(nccl.idle());
}

TEST_F(AllReduceTest, DataPlaneProducesSumEverywhere)
{
    for (int gpus : {2, 4, 8}) {
        comm::NcclCommunicator nccl(ctx(gpus));
        comm::P2pParameterServer p2p(ctx(gpus));
        for (int method = 0; method < 2; ++method) {
            std::vector<std::vector<float>> bufs(gpus);
            std::vector<float> want(17, 0.0f);
            for (int w = 0; w < gpus; ++w) {
                for (int i = 0; i < 17; ++i) {
                    bufs[w].push_back(0.5f * w - 0.25f * i);
                    want[i] += bufs[w][i];
                }
            }
            if (method == 0)
                nccl.allReduceData(bufs);
            else
                p2p.allReduceData(bufs);
            for (int w = 0; w < gpus; ++w) {
                for (int i = 0; i < 17; ++i)
                    EXPECT_NEAR(bufs[w][i], want[i], 1e-3)
                        << gpus << " gpus, method " << method;
            }
        }
    }
}

TEST(AllReduceTrainerTest, AllReduceHelpsBigBucketsHurtsSmallOnes)
{
    // AlexNet (8 huge buckets) gains from the fused collective;
    // ResNet (107 small ones) loses to lock-step latency unless the
    // buckets are fused — the modern-stack bucketing lesson.
    core::TrainConfig cfg;
    cfg.numGpus = 8;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::NCCL;

    cfg.model = "alexnet";
    const double alex_base =
        core::TrainerBase::simulate(cfg).epochSeconds;
    cfg.useAllReduce = true;
    const double alex_ar = core::TrainerBase::simulate(cfg).epochSeconds;
    EXPECT_LT(alex_ar, alex_base);

    cfg.model = "resnet-50";
    cfg.useAllReduce = false;
    const double res_base = core::TrainerBase::simulate(cfg).epochSeconds;
    cfg.useAllReduce = true;
    const double res_ar = core::TrainerBase::simulate(cfg).epochSeconds;
    EXPECT_GT(res_ar, res_base);
    cfg.bucketFusionMB = 16.0;
    const double res_fused = core::TrainerBase::simulate(cfg).epochSeconds;
    EXPECT_LT(res_fused, res_ar);
    EXPECT_LT(res_fused, res_base);
}

TEST(AllReduceTrainerTest, FusionReducesMessageCount)
{
    core::TrainConfig cfg;
    cfg.model = "inception-v3";
    cfg.numGpus = 4;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::NCCL;
    cfg.measuredIterations = 1;

    const auto fine = core::TrainerBase::make(cfg);
    fine->run();
    const auto fine_calls =
        fine->profiler().apiSummary(); // ncclReduce per bucket
    std::uint64_t fine_reduces = 0;
    for (const auto &row : fine_calls) {
        if (row.name == "ncclReduce")
            fine_reduces = row.calls;
    }

    cfg.bucketFusionMB = 8.0;
    const auto fused = core::TrainerBase::make(cfg);
    fused->run();
    std::uint64_t fused_reduces = 0;
    for (const auto &row : fused->profiler().apiSummary()) {
        if (row.name == "ncclReduce")
            fused_reduces = row.calls;
    }
    EXPECT_GT(fine_reduces, 100u);
    EXPECT_LT(fused_reduces, 20u);
    EXPECT_GT(fused_reduces, 0u);
}

TEST(AllReduceTrainerTest, FusionPreservesTotalBytes)
{
    core::TrainConfig cfg;
    cfg.model = "resnet-50";
    cfg.numGpus = 2;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::P2P;
    cfg.measuredIterations = 1;

    const double fine_bytes =
        core::TrainerBase::simulate(cfg).interGpuBytesPerIter;

    cfg.bucketFusionMB = 32.0;
    const double fused_bytes =
        core::TrainerBase::simulate(cfg).interGpuBytesPerIter;
    // Same gradient volume moves either way (fusion only batches it).
    EXPECT_NEAR(fused_bytes, fine_bytes, 0.01 * fine_bytes);
}

} // namespace
