/**
 * @file
 * Tests for the model-parallel extension: partitioning, pipelining,
 * and the paper's Sec. I parallelism-choice claim.
 */

#include <gtest/gtest.h>

#include "core/model_parallel_trainer.hh"
#include "core/trainer.hh"
#include "dnn/models.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using namespace dgxsim::core;

TrainConfig
makeConfig(const std::string &model, int gpus, int microbatches = 0)
{
    TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::NCCL;
    cfg.mode = ParallelismMode::ModelParallel;
    cfg.microbatches = microbatches;
    return cfg;
}

TEST(ModelParallelTest, PartitionCoversEveryLayerOnce)
{
    ModelParallelTrainer trainer(makeConfig("resnet-50", 4));
    const auto &stages = trainer.stages();
    ASSERT_EQ(stages.size(), 4u);
    std::size_t next = 0;
    const std::size_t layers =
        dnn::buildResNet50().layers().size();
    for (const auto &[first, last] : stages) {
        EXPECT_EQ(first, next);
        EXPECT_GE(last, first);
        next = last + 1;
    }
    EXPECT_EQ(next, layers);
}

TEST(ModelParallelTest, PartitionBalancesFlops)
{
    const auto r = TrainerBase::simulate(makeConfig("inception-v3", 4));
    ASSERT_EQ(r.stageFlopsShare.size(), 4u);
    double total = 0;
    for (double share : r.stageFlopsShare) {
        EXPECT_GT(share, 0.10);
        EXPECT_LT(share, 0.45);
        total += share;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ModelParallelTest, MicrobatchingShrinksTheBubble)
{
    const auto ub1 = TrainerBase::simulate(makeConfig("resnet-50", 4, 1));
    const auto ub4 = TrainerBase::simulate(makeConfig("resnet-50", 4, 4));
    const auto ub16 = TrainerBase::simulate(makeConfig("resnet-50", 4, 16));
    // A single microbatch leaves (S-1)/S of the pipeline idle.
    EXPECT_GT(ub1.bubbleFraction, 0.6);
    EXPECT_LT(ub4.bubbleFraction, ub1.bubbleFraction);
    EXPECT_LT(ub16.bubbleFraction, ub4.bubbleFraction);
    EXPECT_LT(ub4.epochSeconds, ub1.epochSeconds);
}

TEST(ModelParallelTest, PaperParallelismChoiceClaim)
{
    // Paper Sec. I: data parallelism suits conv-heavy networks;
    // model parallelism suits FC-heavy ones. Compare at equal global
    // batch on 4 GPUs.
    const auto alex_cfg = makeConfig("alexnet", 4, 4);
    const double alex_dp = Trainer::simulate(alex_cfg).epochSeconds;
    const double alex_mp = TrainerBase::simulate(alex_cfg).epochSeconds;
    EXPECT_LT(alex_mp, alex_dp) << "FC-heavy AlexNet";

    const auto res_cfg = makeConfig("resnet-50", 4, 4);
    const double res_dp = Trainer::simulate(res_cfg).epochSeconds;
    const double res_mp = TrainerBase::simulate(res_cfg).epochSeconds;
    EXPECT_GT(res_mp, res_dp) << "conv-heavy ResNet-50";
}

TEST(ModelParallelTest, WeightPlacementFollowsLayers)
{
    const auto r = TrainerBase::simulate(makeConfig("alexnet", 4));
    ASSERT_EQ(r.stageParamBytes.size(), 4u);
    sim::Bytes total = 0;
    for (sim::Bytes b : r.stageParamBytes)
        total += b;
    EXPECT_EQ(total, dnn::buildAlexNet().paramBytes());
    // AlexNet's FC head concentrates most parameters in the last
    // stage — the memory-imbalance cost of model parallelism.
    EXPECT_GT(r.stageParamBytes.back(), total / 2);
}

TEST(ModelParallelTest, ActivationTrafficFlowsBothDirections)
{
    ModelParallelTrainer trainer(makeConfig("resnet-50", 4, 4));
    const auto r = trainer.run();
    // 3 boundaries x 2 directions x 4 microbatches of traffic.
    EXPECT_GT(r.activationBytesPerIter, 0);
}

TEST(ModelParallelTest, DeterministicAcrossRuns)
{
    const auto cfg = makeConfig("googlenet", 4, 4);
    const auto a = TrainerBase::simulate(cfg);
    const auto b = TrainerBase::simulate(cfg);
    EXPECT_DOUBLE_EQ(a.epochSeconds, b.epochSeconds);
    EXPECT_DOUBLE_EQ(a.bubbleFraction, b.bubbleFraction);
}

TEST(ModelParallelTest, InvalidConfigsAreFatal)
{
    auto cfg = makeConfig("lenet", 4, 8);
    cfg.batchPerGpu = 7; // global batch 28 not divisible by 8 ubatches
    EXPECT_THROW(TrainerBase::simulate(cfg), sim::FatalError);
    EXPECT_THROW(TrainerBase::simulate(makeConfig("lenet", 0)),
                 sim::FatalError);
}

TEST(ModelParallelTest, OneLineMentionsBubble)
{
    const auto r = TrainerBase::simulate(makeConfig("alexnet", 2, 2));
    EXPECT_NE(r.oneLine().find("bubble"), std::string::npos);
}

} // namespace
