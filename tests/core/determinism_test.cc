/**
 * @file
 * Determinism harness tests: identical configurations must yield
 * identical event-history digests run after run, and fully audited
 * paper-configuration runs must finish with zero violations.
 */

#include <gtest/gtest.h>

#include "core/determinism.hh"
#include "core/trainer_base.hh"

namespace {

using namespace dgxsim;
using core::TrainConfig;

TrainConfig
lenetP2p4()
{
    TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 4;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::P2P;
    return cfg;
}

TrainConfig
alexnetNccl8()
{
    TrainConfig cfg;
    cfg.model = "alexnet";
    cfg.numGpus = 8;
    cfg.batchPerGpu = 32;
    cfg.method = comm::CommMethod::NCCL;
    return cfg;
}

TEST(DeterminismTest, LenetP2pDigestsMatch)
{
    const auto check = core::checkDeterminism(lenetP2p4());
    EXPECT_FALSE(check.oom);
    EXPECT_TRUE(check.deterministic) << check.summary();
    EXPECT_NE(check.firstDigest, 0u);
}

TEST(DeterminismTest, AlexnetNcclDigestsMatch)
{
    const auto check = core::checkDeterminism(alexnetNccl8());
    EXPECT_FALSE(check.oom);
    EXPECT_TRUE(check.deterministic) << check.summary();
}

TEST(DeterminismTest, DifferentConfigsDiffer)
{
    // The digest actually discriminates histories: changing the
    // workload or the communicator changes the digest.
    EXPECT_NE(core::runDigest(lenetP2p4()),
              core::runDigest(alexnetNccl8()));
    TrainConfig nccl = lenetP2p4();
    nccl.method = comm::CommMethod::NCCL;
    EXPECT_NE(core::runDigest(lenetP2p4()), core::runDigest(nccl));
}

TEST(DeterminismTest, AsyncModeDigestsMatch)
{
    TrainConfig cfg = lenetP2p4();
    cfg.mode = core::ParallelismMode::AsyncPs;
    const auto check = core::checkDeterminism(cfg);
    EXPECT_FALSE(check.oom);
    EXPECT_TRUE(check.deterministic) << check.summary();
    EXPECT_NE(check.firstDigest, 0u);
}

TEST(DeterminismTest, ModelParallelModeDigestsMatch)
{
    TrainConfig cfg = alexnetNccl8();
    cfg.mode = core::ParallelismMode::ModelParallel;
    cfg.method = comm::CommMethod::P2P;
    const auto check = core::checkDeterminism(cfg);
    EXPECT_FALSE(check.oom);
    EXPECT_TRUE(check.deterministic) << check.summary();
}

TEST(DeterminismTest, ModesReplayDistinctHistories)
{
    // The three strategies schedule different events over the same
    // machine, so their digests must all differ.
    TrainConfig sync = lenetP2p4();
    TrainConfig async = sync;
    async.mode = core::ParallelismMode::AsyncPs;
    TrainConfig mp = sync;
    mp.mode = core::ParallelismMode::ModelParallel;
    const std::uint64_t ds = core::runDigest(sync);
    const std::uint64_t da = core::runDigest(async);
    const std::uint64_t dm = core::runDigest(mp);
    EXPECT_NE(ds, da);
    EXPECT_NE(ds, dm);
    EXPECT_NE(da, dm);
}

TEST(DeterminismTest, AuditDoesNotPerturbTheSimulation)
{
    // The auditor is a pure observer: digests with and without it
    // must be identical.
    TrainConfig plain = lenetP2p4();
    TrainConfig audited = plain;
    audited.audit = true;
    EXPECT_EQ(core::runDigest(plain), core::runDigest(audited));
}

TEST(DeterminismTest, AuditedPaperConfigsRunClean)
{
    for (TrainConfig cfg : {lenetP2p4(), alexnetNccl8()}) {
        cfg.audit = true;
        const auto report = core::TrainerBase::simulate(cfg);
        ASSERT_FALSE(report.oom) << cfg.model;
        EXPECT_TRUE(report.audited) << cfg.model;
        EXPECT_GT(report.auditChecks, 0u) << cfg.model;
        EXPECT_EQ(report.auditViolations, 0u) << cfg.model;
        EXPECT_NE(report.digest, 0u) << cfg.model;
    }
}

TEST(DeterminismTest, AuditedDualRingOverlapRunsClean)
{
    // The busiest scheduling mix: NCCL dual rings with BP/WU overlap
    // and a fused all-reduce, all under the strict auditor.
    TrainConfig cfg = alexnetNccl8();
    cfg.audit = true;
    cfg.overlapBpWu = true;
    cfg.useAllReduce = true;
    cfg.commConfig.ncclRings = 2;
    const auto report = core::TrainerBase::simulate(cfg);
    ASSERT_FALSE(report.oom);
    EXPECT_TRUE(report.audited);
    EXPECT_EQ(report.auditViolations, 0u);
    const auto again = core::TrainerBase::simulate(cfg);
    EXPECT_EQ(report.digest, again.digest);
}

} // namespace
