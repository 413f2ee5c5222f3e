/**
 * @file
 * Machine/TrainerBase refactor parity suite.
 *
 * The refactor moved the substrate (event queue, devices, streams,
 * memory planner, auditor, digest) out of the trainers into
 * core::Machine. These tests pin the synchronous trainer to values
 * recorded by the pre-refactor implementation (the committed
 * results/baseline.json): identical digests and %.17g-exact epoch
 * times prove the refactored code replays the same event history
 * bit-for-bit, and the sync JSON encoding proves campaign output
 * stays byte-identical (no "mode" key leaks into sync records).
 */

#include <gtest/gtest.h>

#include <string>

#include "campaign/record.hh"
#include "core/trainer_base.hh"

namespace {

using namespace dgxsim;
using core::ParallelismMode;
using core::TrainConfig;
using core::TrainerBase;
using core::TrainReport;

TrainConfig
config(const std::string &model, int gpus, int batch,
       comm::CommMethod method)
{
    TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = batch;
    cfg.method = method;
    return cfg;
}

// Golden values from the pre-refactor results/baseline.json.

TEST(RefactorParity, LenetSingleGpuMatchesPreRefactorBaseline)
{
    const TrainReport r = TrainerBase::simulate(
        config("lenet", 1, 16, comm::CommMethod::P2P));
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(r.digest, 0x919782d29091d3f9ull);
    EXPECT_EQ(r.epochSeconds, 21.852700431999999);
    EXPECT_EQ(r.iterations, 16000u);
    EXPECT_EQ(r.syncApiFraction, 0.20210990661019007);
    EXPECT_EQ(r.gpu0.training, 620610080u);
}

TEST(RefactorParity, ResnetNcclEightGpuMatchesPreRefactorBaseline)
{
    const TrainReport r = TrainerBase::simulate(
        config("resnet-50", 8, 64, comm::CommMethod::NCCL));
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(r.digest, 0xd3c567332fa561a6ull);
    EXPECT_EQ(r.epochSeconds, 113.81398063500001);
    EXPECT_EQ(r.interGpuBytesPerIter, 1432681152.0);
    EXPECT_EQ(r.gpu0.training, 10669003443u);
    EXPECT_EQ(r.gpux.training, 10464334707u);
}

TEST(RefactorParity, SyncJsonStaysByteIdentical)
{
    // Sync records must serialize exactly as before the mode axis
    // existed: no "mode" key, same field order.
    const TrainReport r = TrainerBase::simulate(
        config("lenet", 1, 16, comm::CommMethod::P2P));
    const std::string json =
        campaign::recordsToJson({campaign::recordFromReport(r)});
    EXPECT_EQ(json.find("\"mode\""), std::string::npos);
    EXPECT_NE(json.find("\"digest\": \"919782d29091d3f9\""),
              std::string::npos);
    EXPECT_NE(json.find("\"epoch_s\": 21.852700431999999"),
              std::string::npos);
}

TEST(RefactorParity, NonSyncJsonCarriesModeKey)
{
    TrainConfig cfg = config("lenet", 2, 16, comm::CommMethod::P2P);
    cfg.mode = ParallelismMode::AsyncPs;
    const std::string json = campaign::recordsToJson(
        {campaign::recordFromReport(TrainerBase::simulate(cfg))});
    EXPECT_NE(json.find("\"mode\": \"async_ps\""), std::string::npos);
    EXPECT_NE(json.find("\"avg_staleness\""), std::string::npos);
}

} // namespace
