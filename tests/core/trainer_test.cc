/**
 * @file
 * Tests for the training simulator: stage accounting, scaling
 * behavior, memory model, and OOM probing.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/trainer_base.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using namespace dgxsim::core;
using comm::CommMethod;

TrainConfig
makeConfig(const std::string &model, int gpus, int batch,
           CommMethod method)
{
    TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = batch;
    cfg.method = method;
    return cfg;
}

TEST(TrainerTest, ReportAccountsForAllStages)
{
    TrainReport r =
        TrainerBase::simulate(makeConfig("lenet", 2, 16, CommMethod::P2P));
    EXPECT_FALSE(r.oom);
    EXPECT_GT(r.iterationSeconds, 0);
    EXPECT_GT(r.fpBpSeconds, 0);
    EXPECT_GT(r.wuSeconds, 0);
    EXPECT_EQ(r.iterations, 256000u / 32u);
    EXPECT_NEAR(r.epochSeconds,
                r.fpBpSeconds + r.wuSeconds + r.setupSeconds,
                1e-6 * r.epochSeconds);
}

TEST(TrainerTest, IterationCountsFollowBatchAndGpus)
{
    auto cfg = makeConfig("lenet", 4, 32, CommMethod::P2P);
    EXPECT_EQ(cfg.iterationsPerEpoch(), 2000u);
    cfg.batchPerGpu = 64;
    EXPECT_EQ(cfg.iterationsPerEpoch(), 1000u);
    cfg.datasetImages = 100;
    EXPECT_EQ(cfg.iterationsPerEpoch(), 1u);
}

TEST(TrainerTest, DeterministicAcrossRuns)
{
    const auto cfg = makeConfig("googlenet", 4, 16, CommMethod::NCCL);
    TrainReport a = TrainerBase::simulate(cfg);
    TrainReport b = TrainerBase::simulate(cfg);
    EXPECT_DOUBLE_EQ(a.epochSeconds, b.epochSeconds);
    EXPECT_DOUBLE_EQ(a.wuSeconds, b.wuSeconds);
    EXPECT_EQ(a.gpu0.training, b.gpu0.training);
}

TEST(TrainerTest, MoreGpusReduceEpochTime)
{
    for (CommMethod m : {CommMethod::P2P, CommMethod::NCCL}) {
        double prev = 1e18;
        for (int gpus : {1, 2, 4, 8}) {
            TrainReport r =
                TrainerBase::simulate(makeConfig("resnet-50", gpus, 16, m));
            EXPECT_LT(r.epochSeconds, prev)
                << gpus << " gpus, " << comm::commMethodName(m);
            prev = r.epochSeconds;
        }
    }
}

TEST(TrainerTest, LargerBatchReducesEpochTime)
{
    double prev = 1e18;
    for (int batch : {16, 32, 64}) {
        TrainReport r = TrainerBase::simulate(
            makeConfig("inception-v3", 4, batch, CommMethod::NCCL));
        EXPECT_LT(r.epochSeconds, prev) << "batch " << batch;
        prev = r.epochSeconds;
    }
}

TEST(TrainerTest, SingleGpuWuIsTiny)
{
    // Paper: for a single GPU the WU stage is nearly two orders of
    // magnitude smaller than FP+BP (no inter-GPU communication).
    TrainReport r = TrainerBase::simulate(
        makeConfig("resnet-50", 1, 16, CommMethod::P2P));
    EXPECT_LT(r.wuSeconds, 0.05 * r.fpBpSeconds);
}

TEST(TrainerTest, WuGrowsWithGpuCountPerIteration)
{
    // Exposed communication per iteration grows with GPU count for
    // the P2P parameter server (tree depth + staged hops).
    double prev = 0;
    for (int gpus : {2, 4, 8}) {
        TrainReport r = TrainerBase::simulate(
            makeConfig("alexnet", gpus, 16, CommMethod::P2P));
        const double wu_per_iter =
            r.wuSeconds / static_cast<double>(r.iterations);
        EXPECT_GT(wu_per_iter, prev) << gpus;
        prev = wu_per_iter;
    }
}

TEST(TrainerTest, SyncFractionGrowsWithGpus)
{
    // Paper Table III trend.
    double prev = 0;
    for (int gpus : {1, 2, 4, 8}) {
        TrainReport r = TrainerBase::simulate(
            makeConfig("lenet", gpus, 16, CommMethod::NCCL));
        EXPECT_GT(r.syncApiFraction, prev) << gpus;
        prev = r.syncApiFraction;
    }
}

TEST(TrainerTest, MemoryGpu0ExceedsWorkers)
{
    TrainReport r = TrainerBase::simulate(
        makeConfig("alexnet", 4, 16, CommMethod::NCCL));
    EXPECT_GT(r.gpu0.training, r.gpux.training);
    EXPECT_EQ(r.gpu0.preTraining, r.gpux.preTraining);
    // GPU0's extra is batch-independent, so its share shrinks with
    // batch (Table IV trend).
    TrainReport r64 = TrainerBase::simulate(
        makeConfig("alexnet", 4, 64, CommMethod::NCCL));
    const double extra16 =
        double(r.gpu0.training - r.gpux.training) / r.gpux.training;
    const double extra64 =
        double(r64.gpu0.training - r64.gpux.training) /
        r64.gpux.training;
    EXPECT_LT(extra64, extra16);
}

TEST(TrainerTest, MemoryGrowsWithBatch)
{
    sim::Bytes prev = 0;
    for (int batch : {16, 32, 64}) {
        TrainReport r = TrainerBase::simulate(
            makeConfig("inception-v3", 4, batch, CommMethod::NCCL));
        EXPECT_GT(r.gpu0.training, prev);
        prev = r.gpu0.training;
    }
}

TEST(TrainerTest, PaperBatchSizeCapsHold)
{
    // Paper Sec. V-D: batch 64 caps Inception-v3 and ResNet; 128
    // caps GoogLeNet.
    const std::vector<int> candidates = {16, 32, 64, 128, 256};
    TrainConfig cfg = makeConfig("inception-v3", 4, 16,
                                 CommMethod::NCCL);
    EXPECT_EQ(TrainerBase::maxBatchPerGpu(cfg, candidates), 64);
    cfg.model = "resnet-50";
    EXPECT_EQ(TrainerBase::maxBatchPerGpu(cfg, candidates), 64);
    cfg.model = "googlenet";
    EXPECT_EQ(TrainerBase::maxBatchPerGpu(cfg, candidates), 128);
    cfg.model = "lenet";
    EXPECT_EQ(TrainerBase::maxBatchPerGpu(cfg, candidates), 256);
}

TEST(TrainerTest, OomReportedNotThrown)
{
    TrainReport r = TrainerBase::simulate(
        makeConfig("inception-v3", 4, 256, CommMethod::NCCL));
    EXPECT_TRUE(r.oom);
    EXPECT_FALSE(r.oomDetail.empty());
    EXPECT_EQ(r.epochSeconds, 0);
}

TEST(TrainerTest, InvalidConfigsAreFatal)
{
    EXPECT_THROW(
        TrainerBase::simulate(makeConfig("lenet", 0, 16, CommMethod::P2P)),
        sim::FatalError);
    EXPECT_THROW(
        TrainerBase::simulate(makeConfig("lenet", 9, 16, CommMethod::P2P)),
        sim::FatalError);
    EXPECT_THROW(
        TrainerBase::simulate(makeConfig("lenet", 1, 0, CommMethod::P2P)),
        sim::FatalError);
    EXPECT_THROW(
        TrainerBase::simulate(makeConfig("vgg", 1, 16, CommMethod::P2P)),
        sim::FatalError);
}

TEST(TrainerTest, CustomTopologySlowsCommunication)
{
    TrainConfig cfg = makeConfig("alexnet", 4, 16, CommMethod::P2P);
    const TrainReport fast = TrainerBase::simulate(cfg);
    const TrainReport slow =
        TrainerBase::make(cfg, std::nullopt, hw::Topology::pcieOnly8Gpu())
            ->run();
    EXPECT_GT(slow.wuSeconds, 2.0 * fast.wuSeconds);
}

TEST(TrainerTest, TensorCoresSpeedUpCompute)
{
    TrainConfig cfg = makeConfig("resnet-50", 1, 32, CommMethod::P2P);
    const TrainReport fp32 = TrainerBase::simulate(cfg);
    cfg.useTensorCores = true;
    const TrainReport fp16 = TrainerBase::simulate(cfg);
    EXPECT_LT(fp16.fpBpSeconds, 0.7 * fp32.fpBpSeconds);
}

TEST(TrainerTest, OverlapAblationReducesExposedWu)
{
    TrainConfig cfg = makeConfig("resnet-50", 4, 16, CommMethod::NCCL);
    const TrainReport serial = TrainerBase::simulate(cfg);
    cfg.overlapBpWu = true;
    const TrainReport overlapped = TrainerBase::simulate(cfg);
    EXPECT_LT(overlapped.wuSeconds, 0.6 * serial.wuSeconds);
    EXPECT_LE(overlapped.epochSeconds, serial.epochSeconds);
}

TEST(TrainerTest, OneLineMentionsConfig)
{
    TrainReport r =
        TrainerBase::simulate(makeConfig("lenet", 2, 16, CommMethod::NCCL));
    const std::string line = r.oneLine();
    EXPECT_NE(line.find("lenet"), std::string::npos);
    EXPECT_NE(line.find("nccl"), std::string::npos);
    EXPECT_NE(line.find("x2 gpus"), std::string::npos);
}

TEST(TrainerTest, ProfilerSeesExpectedKernels)
{
    TrainConfig cfg = makeConfig("lenet", 2, 16, CommMethod::NCCL);
    cfg.measuredIterations = 1;
    const auto trainer = TrainerBase::make(cfg);
    trainer->run();
    const auto &prof = trainer->profiler();
    bool conv_fwd = false, conv_bwd = false, nccl_kernel = false,
         sgd = false;
    for (const auto &row : prof.kernelSummary()) {
        conv_fwd |= row.name == "conv_fwd";
        conv_bwd |= row.name == "conv_bwd";
        nccl_kernel |= row.name == "ncclReduceKernel";
        sgd |= row.name == "sgdUpdate";
    }
    EXPECT_TRUE(conv_fwd);
    EXPECT_TRUE(conv_bwd);
    EXPECT_TRUE(nccl_kernel);
    EXPECT_TRUE(sgd);
    EXPECT_GT(prof.apiTime("cudaStreamSynchronize"), 0u);
    EXPECT_GT(prof.apiTime("ncclGroupOps"), 0u);
}

/**
 * Property sweep: every (model, gpus, method) combination runs. The model
 * is a std::string, not a const char *, so gtest prints the parameter as
 * its text rather than as a pointer whose address changes every run; the
 * test names stay the same from build to build.
 */
class TrainerMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(TrainerMatrix, CompletesWithConsistentStages)
{
    const auto [model, gpus] = GetParam();
    for (CommMethod m : {CommMethod::P2P, CommMethod::NCCL}) {
        TrainConfig cfg = makeConfig(model, gpus, 16, m);
        cfg.measuredIterations = 1;
        TrainReport r = TrainerBase::simulate(cfg);
        ASSERT_FALSE(r.oom) << model;
        EXPECT_GT(r.epochSeconds, 0) << model;
        EXPECT_GE(r.fpBpSeconds, 0) << model;
        EXPECT_GE(r.wuSeconds, 0) << model;
        EXPECT_NEAR(r.epochSeconds,
                    r.fpBpSeconds + r.wuSeconds + r.setupSeconds,
                    1e-6 * r.epochSeconds)
            << model;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TrainerMatrix,
    ::testing::Combine(::testing::Values("lenet", "alexnet",
                                         "googlenet", "inception-v3",
                                         "resnet-50"),
                       ::testing::Values(1, 2, 4, 8)));

} // namespace
