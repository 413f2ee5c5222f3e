/**
 * @file
 * Tests for the asynchronous-SGD extension: throughput, staleness,
 * and protocol invariants (paper Sec. II-B).
 */

#include <gtest/gtest.h>

#include "core/trainer_base.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using namespace dgxsim::core;

TrainConfig
makeConfig(const std::string &model, int gpus)
{
    TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::P2P;
    cfg.mode = ParallelismMode::AsyncPs;
    return cfg;
}

TEST(AsyncTrainerTest, SingleGpuHasZeroStaleness)
{
    const TrainReport r = TrainerBase::simulate(makeConfig("lenet", 1));
    EXPECT_DOUBLE_EQ(r.avgStaleness, 0.0);
    EXPECT_EQ(r.maxStaleness, 0);
    EXPECT_GT(r.throughputImagesPerSec, 0);
}

TEST(AsyncTrainerTest, AllPushesAccounted)
{
    TrainConfig cfg = makeConfig("lenet", 4);
    cfg.asyncItersPerWorker = 25;
    const TrainReport r = TrainerBase::simulate(cfg);
    EXPECT_EQ(r.pushes, 4u * 25u);
}

TEST(AsyncTrainerTest, StalenessGrowsWithWorkers)
{
    double prev = -1;
    for (int gpus : {2, 4, 8}) {
        const TrainReport r =
            TrainerBase::simulate(makeConfig("resnet-50", gpus));
        EXPECT_GT(r.avgStaleness, prev) << gpus;
        // Mean staleness cannot exceed a full round of other workers
        // by much in steady state.
        EXPECT_LE(r.avgStaleness, 2.0 * gpus) << gpus;
        prev = r.avgStaleness;
    }
}

TEST(AsyncTrainerTest, StalenessApproachesWorkerCountForShortIterations)
{
    // With homogeneous workers, each pull-to-push window sees about
    // one update from every other worker.
    const TrainReport r = TrainerBase::simulate(makeConfig("lenet", 8));
    EXPECT_NEAR(r.avgStaleness, 7.0, 2.0);
}

TEST(AsyncTrainerTest, AsyncBeatsSyncForStragglerBoundWorkloads)
{
    // Removing the barrier + per-bucket serialization helps the
    // short-iteration workloads most (the engine-dispatch straggling
    // the paper blames for LeNet's scaling).
    for (const char *model : {"lenet", "resnet-50"}) {
        const TrainConfig cfg = makeConfig(model, 8);
        TrainConfig sync_cfg = cfg;
        sync_cfg.mode = ParallelismMode::SyncDp;
        const double sync = TrainerBase::simulate(sync_cfg).epochSeconds;
        const double async = TrainerBase::simulate(cfg).epochSeconds;
        EXPECT_LT(async, sync) << model;
    }
}

TEST(AsyncTrainerTest, ThroughputScalesWithWorkers)
{
    double prev = 0;
    for (int gpus : {1, 2, 4, 8}) {
        const TrainReport r =
            TrainerBase::simulate(makeConfig("resnet-50", gpus));
        EXPECT_GT(r.throughputImagesPerSec, prev) << gpus;
        prev = r.throughputImagesPerSec;
    }
}

TEST(AsyncTrainerTest, DeterministicAcrossRuns)
{
    const TrainConfig cfg = makeConfig("alexnet", 4);
    const TrainReport a = TrainerBase::simulate(cfg);
    const TrainReport b = TrainerBase::simulate(cfg);
    EXPECT_DOUBLE_EQ(a.epochSeconds, b.epochSeconds);
    EXPECT_DOUBLE_EQ(a.avgStaleness, b.avgStaleness);
}

TEST(AsyncTrainerTest, OneLineMentionsStaleness)
{
    const TrainReport r = TrainerBase::simulate(makeConfig("lenet", 2));
    const std::string line = r.oneLine();
    EXPECT_NE(line.find("async"), std::string::npos);
    EXPECT_NE(line.find("staleness"), std::string::npos);
}

TEST(AsyncTrainerTest, InvalidConfigsAreFatal)
{
    EXPECT_THROW(TrainerBase::simulate(makeConfig("lenet", 0)),
                 sim::FatalError);
    TrainConfig cfg = makeConfig("lenet", 1);
    cfg.asyncItersPerWorker = 0;
    EXPECT_THROW(TrainerBase::simulate(cfg), sim::FatalError);
}

} // namespace
