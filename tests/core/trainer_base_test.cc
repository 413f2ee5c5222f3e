/**
 * @file
 * TrainerBase strategy-dispatch tests: make() constructs the right
 * strategy per ParallelismMode, an explicit network and topology
 * replay the ones cfg names, every strategy self-describes its mode
 * in the report, memory probing and the OOM verdict work uniformly
 * across modes (async and pipeline configurations that cannot fit
 * must report oom instead of pretending to run).
 */

#include <gtest/gtest.h>

#include <string>

#include "core/async_trainer.hh"
#include "core/model_parallel_trainer.hh"
#include "core/parallelism.hh"
#include "core/trainer.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"
#include "hw/platform.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using core::ParallelismMode;
using core::TrainConfig;
using core::TrainerBase;
using core::TrainReport;

TrainConfig
lenet2(ParallelismMode mode)
{
    TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 2;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::P2P;
    cfg.mode = mode;
    return cfg;
}

TEST(TrainerBaseTest, MakeDispatchesOnMode)
{
    const auto sync = TrainerBase::make(lenet2(ParallelismMode::SyncDp));
    EXPECT_NE(dynamic_cast<core::Trainer *>(sync.get()), nullptr);
    const auto async =
        TrainerBase::make(lenet2(ParallelismMode::AsyncPs));
    EXPECT_NE(dynamic_cast<core::AsyncTrainer *>(async.get()), nullptr);
    const auto mp =
        TrainerBase::make(lenet2(ParallelismMode::ModelParallel));
    EXPECT_NE(dynamic_cast<core::ModelParallelTrainer *>(mp.get()),
              nullptr);
    const auto pipe = TrainerBase::make(lenet2(ParallelismMode::Pipeline));
    EXPECT_NE(dynamic_cast<core::ModelParallelTrainer *>(pipe.get()),
              nullptr);
    try {
        TrainerBase::make(lenet2(static_cast<ParallelismMode>(42)));
        ADD_FAILURE() << "a mode outside the enum must be fatal";
    } catch (const sim::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("mode 42"),
                  std::string::npos)
            << err.what();
    }
}

TEST(TrainerBaseTest, ExplicitNetAndTopologyReplayTheDefaults)
{
    // make(cfg) and make(cfg, net, topology) with the network and
    // topology cfg names must build the same machine: equal digests
    // and epoch times in every mode.
    for (ParallelismMode mode : core::allParallelismModes()) {
        for (const char *model : {"lenet", "alexnet"}) {
            for (int gpus : {2, 4}) {
                TrainConfig cfg = lenet2(mode);
                cfg.model = model;
                cfg.numGpus = gpus;
                const TrainReport named = TrainerBase::simulate(cfg);
                const TrainReport given =
                    TrainerBase::make(cfg, dnn::buildByName(cfg.model),
                                      hw::makePlatform("dgx1v").topology)
                        ->run();
                ASSERT_FALSE(named.oom);
                EXPECT_EQ(named.digest, given.digest)
                    << parallelismModeName(mode) << " " << model
                    << " x" << gpus;
                EXPECT_EQ(named.epochSeconds, given.epochSeconds)
                    << parallelismModeName(mode) << " " << model
                    << " x" << gpus;
            }
        }
    }
}

TEST(TrainerBaseTest, SimulateRunsEveryMode)
{
    for (ParallelismMode mode : core::allParallelismModes()) {
        const TrainReport r = TrainerBase::simulate(lenet2(mode));
        EXPECT_FALSE(r.oom) << parallelismModeName(mode);
        EXPECT_GT(r.epochSeconds, 0) << parallelismModeName(mode);
        EXPECT_NE(r.digest, 0u) << parallelismModeName(mode);
        EXPECT_EQ(r.config.mode, mode);
    }
}

TEST(TrainerBaseTest, MemoryProbeSkipsIterations)
{
    for (ParallelismMode mode : core::allParallelismModes()) {
        TrainConfig cfg = lenet2(mode);
        cfg.measuredIterations = 0;
        const TrainReport r = TrainerBase::simulate(cfg);
        EXPECT_FALSE(r.oom) << parallelismModeName(mode);
        EXPECT_EQ(r.epochSeconds, 0) << parallelismModeName(mode);
        EXPECT_GT(r.gpu0.training, 0u) << parallelismModeName(mode);
    }
}

TEST(TrainerBaseTest, AsyncOversizedBatchReportsOom)
{
    // Regression: the async strategy used to skip device allocation
    // entirely, so impossible configurations silently "fit".
    TrainConfig cfg = lenet2(ParallelismMode::AsyncPs);
    cfg.model = "resnet-50";
    cfg.batchPerGpu = 4096;
    const TrainReport r = TrainerBase::simulate(cfg);
    EXPECT_TRUE(r.oom);
    EXPECT_FALSE(r.oomDetail.empty());
}

TEST(TrainerBaseTest, ModelParallelOversizedBatchReportsOom)
{
    // Regression companion: the pipeline strategy also never
    // allocated stage memory before this refactor.
    TrainConfig cfg = lenet2(ParallelismMode::ModelParallel);
    cfg.model = "resnet-50";
    cfg.batchPerGpu = 8192;
    const TrainReport r = TrainerBase::simulate(cfg);
    EXPECT_TRUE(r.oom);
    EXPECT_FALSE(r.oomDetail.empty());
}

TEST(TrainerBaseTest, MaxBatchPerGpuWorksPerMode)
{
    for (ParallelismMode mode : core::allParallelismModes()) {
        TrainConfig cfg = lenet2(mode);
        const auto best =
            TrainerBase::maxBatchPerGpu(cfg, {16, 32, 64});
        ASSERT_TRUE(best.has_value()) << parallelismModeName(mode);
        EXPECT_EQ(*best, 64) << parallelismModeName(mode);
    }
    TrainConfig big = lenet2(ParallelismMode::AsyncPs);
    big.model = "resnet-50";
    EXPECT_FALSE(
        TrainerBase::maxBatchPerGpu(big, {4096}).has_value());
}

TEST(TrainerBaseTest, ParallelismModeNamesRoundTrip)
{
    for (ParallelismMode mode : core::allParallelismModes())
        EXPECT_EQ(core::parseParallelismMode(
                      core::parallelismModeName(mode)),
                  mode);
    EXPECT_EQ(core::parseParallelismMode("sync"),
              ParallelismMode::SyncDp);
    EXPECT_EQ(core::parseParallelismMode("async"),
              ParallelismMode::AsyncPs);
    EXPECT_EQ(core::parseParallelismMode("mp"),
              ParallelismMode::ModelParallel);
    EXPECT_THROW(core::parseParallelismMode("bogus"),
                 sim::FatalError);
}

} // namespace
