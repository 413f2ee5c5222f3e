/**
 * @file
 * Regression tests pinning the paper's quantitative claims (with
 * tolerances). These are the "shape" targets of the reproduction;
 * EXPERIMENTS.md records the exact measured values.
 */

#include <gtest/gtest.h>

#include "core/scaling.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"

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

double
epoch(const std::string &model, int gpus, int batch, CommMethod m)
{
    return TrainerBase::simulate(makeConfig(model, gpus, batch, m))
        .epochSeconds;
}

TEST(PaperClaims, LeNetP2pStrongScalingSpeedups)
{
    // Paper Sec. V-A: "With P2P we can speed up the training time by
    // factors of 1.62, 2.37 and 3.36 for 2, 4 and 8 GPUs".
    const double base = epoch("lenet", 1, 16, CommMethod::P2P);
    EXPECT_NEAR(base / epoch("lenet", 2, 16, CommMethod::P2P), 1.62,
                0.25);
    EXPECT_NEAR(base / epoch("lenet", 4, 16, CommMethod::P2P), 2.37,
                0.35);
    EXPECT_NEAR(base / epoch("lenet", 8, 16, CommMethod::P2P), 3.36,
                0.45);
}

TEST(PaperClaims, LeNetNcclSpeedupsAreLowerThanP2p)
{
    // Paper: NCCL speedups 1.56, 2.27, 2.77 — consistently below the
    // P2P ones, and NCCL absolute time is worse at every GPU count.
    for (int gpus : {1, 2, 4, 8}) {
        EXPECT_LT(epoch("lenet", gpus, 16, CommMethod::P2P),
                  epoch("lenet", gpus, 16, CommMethod::NCCL))
            << gpus;
    }
}

TEST(PaperClaims, LeNetBatchSizeScaling)
{
    // Paper: for 4 GPUs with P2P, batch 16->32 and 16->64 cut epoch
    // time by 1.92x and 3.67x.
    const double b16 = epoch("lenet", 4, 16, CommMethod::P2P);
    EXPECT_NEAR(b16 / epoch("lenet", 4, 32, CommMethod::P2P), 1.92,
                0.3);
    EXPECT_NEAR(b16 / epoch("lenet", 4, 64, CommMethod::P2P), 3.67,
                0.6);
}

TEST(PaperClaims, TwoGpuSpeedupAtMostAboutOnePointEight)
{
    // Paper: "As we increase the number of GPUs from 1 to 2, for all
    // the workloads, we observe up to a 1.8x speedup".
    for (const char *model : {"lenet", "alexnet", "googlenet",
                              "resnet-50", "inception-v3"}) {
        const double speedup = epoch(model, 1, 16, CommMethod::P2P) /
                               epoch(model, 2, 16, CommMethod::P2P);
        EXPECT_LE(speedup, 1.95) << model;
    }
}

TEST(PaperClaims, NcclWinsForBigNetworksAtFourAndEightGpus)
{
    // Paper: GoogLeNet 1.1x/1.2x and ResNet/Inception-v3 1.1x/1.25x
    // faster with NCCL at 4/8 GPUs.
    for (const char *model :
         {"googlenet", "resnet-50", "inception-v3"}) {
        const double r4 = epoch(model, 4, 16, CommMethod::P2P) /
                          epoch(model, 4, 16, CommMethod::NCCL);
        const double r8 = epoch(model, 8, 16, CommMethod::P2P) /
                          epoch(model, 8, 16, CommMethod::NCCL);
        EXPECT_GT(r4, 1.0) << model;
        EXPECT_LT(r4, 1.25) << model;
        EXPECT_GT(r8, 1.1) << model;
        EXPECT_LT(r8, 1.45) << model;
        EXPECT_GT(r8, r4) << model; // pipelining pays off more at 8
    }
}

TEST(PaperClaims, P2pWinsForSmallNetworksAtTwoAndFourGpus)
{
    for (const char *model : {"lenet", "alexnet"}) {
        for (int gpus : {2, 4}) {
            EXPECT_LT(epoch(model, gpus, 16, CommMethod::P2P),
                      epoch(model, gpus, 16, CommMethod::NCCL))
                << model << " x" << gpus;
        }
    }
}

TEST(PaperClaims, TableIINcclOverheadOnOneGpu)
{
    // Paper Table II: ~21.8% for LeNet b16; large networks stay
    // small and vary by less than 3.6 points across batch sizes.
    auto overhead = [](const char *model, int batch) {
        const double p2p = epoch(model, 1, batch, CommMethod::P2P);
        const double nccl = epoch(model, 1, batch, CommMethod::NCCL);
        return 100.0 * (nccl - p2p) / p2p;
    };
    EXPECT_NEAR(overhead("lenet", 16), 21.8, 6.0);
    for (const char *model :
         {"googlenet", "resnet-50", "inception-v3"}) {
        double min_oh = 1e9, max_oh = -1e9;
        for (int batch : {16, 32, 64}) {
            const double oh = overhead(model, batch);
            EXPECT_LT(oh, 5.0) << model << " b" << batch;
            EXPECT_GT(oh, 0.0) << model << " b" << batch;
            min_oh = std::min(min_oh, oh);
            max_oh = std::max(max_oh, oh);
        }
        EXPECT_LT(max_oh - min_oh, 3.6) << model;
    }
}

TEST(PaperClaims, FpBpDominatesTrainingTime)
{
    // Paper Sec. V-C insight: computation dominates as GPUs scale
    // for the compute-intensive workloads.
    for (const char *model :
         {"googlenet", "resnet-50", "inception-v3"}) {
        for (int gpus : {2, 4, 8}) {
            TrainReport r = TrainerBase::simulate(
                makeConfig(model, gpus, 16, CommMethod::NCCL));
            EXPECT_GT(r.fpBpSeconds, r.wuSeconds)
                << model << " x" << gpus;
        }
    }
}

TEST(PaperClaims, WuStageScalesAcrossGpusForLeNet)
{
    // Paper Fig. 4: LeNet's WU epoch time decreases from 2 to 4 to 8
    // GPUs (iterations halve). In our model the decrease is
    // sublinear because ring hop latency grows with the GPU count;
    // EXPERIMENTS.md records the measured ratios.
    TrainReport r2 =
        TrainerBase::simulate(makeConfig("lenet", 2, 16, CommMethod::NCCL));
    TrainReport r4 =
        TrainerBase::simulate(makeConfig("lenet", 4, 16, CommMethod::NCCL));
    TrainReport r8 =
        TrainerBase::simulate(makeConfig("lenet", 8, 16, CommMethod::NCCL));
    EXPECT_GT(r2.wuSeconds / r4.wuSeconds, 1.05);
    EXPECT_GT(r4.wuSeconds / r8.wuSeconds, 1.05);
}

TEST(PaperClaims, TableIVInceptionMemory)
{
    // Paper Table IV: Inception-v3 batch 64 needs ~11 GB on GPU0 and
    // grows ~1.83x from batch 16.
    TrainReport b16 = TrainerBase::simulate(
        makeConfig("inception-v3", 4, 16, CommMethod::NCCL));
    TrainReport b64 = TrainerBase::simulate(
        makeConfig("inception-v3", 4, 64, CommMethod::NCCL));
    EXPECT_NEAR(b64.gpu0.trainingGB(), 11.0, 1.5);
    EXPECT_NEAR(b64.gpu0.trainingGB() / b16.gpu0.trainingGB(), 1.83,
                0.35);
    // AlexNet batch 64 on GPU0: ~2.37 GB in the paper.
    TrainReport alex = TrainerBase::simulate(
        makeConfig("alexnet", 4, 64, CommMethod::NCCL));
    EXPECT_NEAR(alex.gpu0.trainingGB(), 2.37, 1.0);
}

TEST(PaperClaims, ActivationsDominateModelMemoryForBigNets)
{
    // Paper: "the memory required for intermediate outputs far
    // exceeds the memory required for the network model".
    for (const char *model :
         {"googlenet", "resnet-50", "inception-v3"}) {
        TrainReport r = TrainerBase::simulate(
            makeConfig(model, 4, 64, CommMethod::NCCL));
        const double model_gb =
            dnn::buildByName(model).paramBytes() / 1e9;
        EXPECT_GT(r.gpux.trainingGB(), 10.0 * model_gb) << model;
    }
}

TEST(PaperClaims, WeakScalingBeatsStrongScalingForLeNet)
{
    // Paper Sec. V-E: LeNet's weak-scaling speedup exceeds strong
    // scaling for all batch sizes and both methods.
    for (CommMethod m : {CommMethod::P2P, CommMethod::NCCL}) {
        TrainConfig cfg = makeConfig("lenet", 1, 16, m);
        auto strong = strongScaling(cfg, {1, 8});
        auto weak = weakScaling(cfg, {1, 8});
        EXPECT_GT(weak[1].speedup, strong[1].speedup)
            << comm::commMethodName(m);
    }
}

TEST(PaperClaims, WeakScalingGainIsSmallForBigNetworks)
{
    // Paper: for ResNet/GoogLeNet/Inception-v3 the weak-scaling
    // speedups are less than 17% higher than strong scaling (NCCL).
    for (const char *model :
         {"googlenet", "resnet-50", "inception-v3"}) {
        TrainConfig cfg = makeConfig(model, 1, 16, CommMethod::NCCL);
        auto strong = strongScaling(cfg, {1, 8});
        auto weak = weakScaling(cfg, {1, 8});
        const double gain = weak[1].speedup / strong[1].speedup;
        EXPECT_GE(gain, 0.99) << model;
        EXPECT_LT(gain, 1.17) << model;
    }
}

} // namespace
