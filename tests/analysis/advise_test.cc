/**
 * @file
 * Tests for the advise strategy search: the README answer and its
 * search cost, the winner being simulation-backed, models too
 * shallow to split into the requested number of stages, and one
 * warning per distinct message.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/advise.hh"
#include "campaign/campaign.hh"
#include "core/cli.hh"
#include "core/parallelism.hh"
#include "dnn/models.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;

/** The config `dgxprof advise` builds from @p tokens. */
core::TrainConfig
adviseConfig(const std::vector<std::string> &tokens)
{
    return core::cli::configFromArgs(core::cli::Args::parse(tokens));
}

bool
isStaged(const core::TrainConfig &cfg)
{
    return cfg.mode == core::ParallelismMode::ModelParallel ||
           cfg.mode == core::ParallelismMode::Pipeline;
}

TEST(AdviseTest, ReadmeAnswer)
{
    // README: advise --model bert-base --gpus 8 --batch 128
    // --platform pcie8.
    const analysis::AdviseResult r = analysis::adviseStrategies(
        adviseConfig({"--model", "bert-base", "--gpus", "8", "--batch",
                      "128", "--platform", "pcie8"}));
    ASSERT_FALSE(r.ranked.empty());
    const analysis::StrategyRow &winner = r.ranked.front();
    EXPECT_EQ(winner.label, "pipeline ub32");
    EXPECT_TRUE(winner.simulated);
    EXPECT_EQ(std::llround(winner.epochSeconds * 100), 38764);
    EXPECT_EQ(r.probes, 8u);
    EXPECT_EQ(r.projections, 1u);
    EXPECT_EQ(r.fullSims, 2u);
    EXPECT_EQ(r.ranked.size() + r.dropped.size(), r.probes);
    // The search simulates timing-only copies; the rows it hands out
    // stay full configs, so re-simulating one yields a digest.
    for (const analysis::StrategyRow &row : r.ranked)
        EXPECT_FALSE(row.cfg.timingOnly) << row.label;
    for (const analysis::StrategyRow &row : r.dropped)
        EXPECT_FALSE(row.cfg.timingOnly) << row.label;
}

TEST(AdviseTest, FallbackRingWarnsOnce)
{
    // pcie8 has no NVLink ring, so every NCCL candidate warns that it
    // falls back to routed hops: once in the README query, twice in
    // the two-platform resnet-50 query. The sink sees the message
    // once across both.
    campaign::clearSimulationCache();
    std::vector<std::string> lines;
    const sim::WarnSink previous = sim::setWarnSink(
        [&lines](const std::string &line) { lines.push_back(line); });
    analysis::adviseStrategies(
        adviseConfig({"--model", "bert-base", "--gpus", "8", "--batch",
                      "128", "--platform", "pcie8"}));
    analysis::AdviseOptions opts;
    opts.platforms = {"dgx1v", "pcie8"};
    analysis::adviseStrategies(
        adviseConfig({"--model", "resnet-50", "--gpus", "8", "--batch",
                      "32", "--platform", "pcie8"}),
        opts);
    sim::setWarnSink(previous);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines.front(),
              "warn: no NVLink ring over the requested GPUs; falling "
              "back to the given order with routed hops");
}

TEST(AdviseTest, ShallowModelDropsStagedCandidates)
{
    // lstm has 7 layers: 8 stages cannot be cut from it, so only the
    // data-parallel candidates remain instead of a fatal error.
    ASSERT_EQ(dnn::buildByName("lstm").layers().size(), 7u);
    const analysis::AdviseResult r = analysis::adviseStrategies(
        adviseConfig({"--model", "lstm", "--gpus", "8", "--batch", "16"}));
    ASSERT_EQ(r.ranked.size(), 2u);
    for (const analysis::StrategyRow &row : r.ranked) {
        EXPECT_EQ(row.cfg.mode, core::ParallelismMode::SyncDp);
        EXPECT_TRUE(row.simulated);
    }
    EXPECT_TRUE(r.dropped.empty());
    EXPECT_EQ(r.probes, 2u);

    // At 4 stages the same model still gets its staged candidates.
    const analysis::AdviseResult four = analysis::adviseStrategies(
        adviseConfig({"--model", "lstm", "--gpus", "4", "--batch", "16"}));
    std::size_t staged = 0;
    for (const analysis::StrategyRow &row : four.ranked)
        staged += isStaged(row.cfg);
    for (const analysis::StrategyRow &row : four.dropped)
        staged += isStaged(row.cfg);
    EXPECT_GT(staged, 0u);
}

} // namespace
