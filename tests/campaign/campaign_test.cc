/**
 * @file
 * Campaign runner tests: grid expansion order, thread-pool result
 * determinism regardless of --jobs, the memo cache, and the
 * parallelFor primitive itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>

#include "campaign/campaign.hh"
#include "campaign/thread_pool.hh"
#include "core/cli.hh"
#include "core/trainer_base.hh"
#include "sim/logging.hh"

namespace dgxsim::campaign {
namespace {

using core::cli::Axis;

CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec[Axis::Model] = {"lenet", "alexnet"};
    spec[Axis::Gpus] = {"1", "2"};
    spec[Axis::Batch] = {"16"};
    spec[Axis::Method] = {"p2p", "nccl"};
    return spec;
}

TEST(CampaignSpec, ExpandsModelMajorWithMethodInnermost)
{
    const auto configs = smallSpec().expand();
    ASSERT_EQ(configs.size(), 8u);
    EXPECT_EQ(configs[0].model, "lenet");
    EXPECT_EQ(configs[0].numGpus, 1);
    EXPECT_EQ(configs[0].method, comm::CommMethod::P2P);
    EXPECT_EQ(configs[1].method, comm::CommMethod::NCCL);
    EXPECT_EQ(configs[2].numGpus, 2);
    EXPECT_EQ(configs[4].model, "alexnet");
    EXPECT_EQ(configs[7].model, "alexnet");
    EXPECT_EQ(configs[7].numGpus, 2);
    EXPECT_EQ(configs[7].method, comm::CommMethod::NCCL);
}

TEST(CampaignSpec, BaseKnobsPropagateToEveryCell)
{
    CampaignSpec spec = smallSpec();
    spec.base.datasetImages = 64000;
    spec.base.overlapBpWu = true;
    for (const auto &cfg : spec.expand()) {
        EXPECT_EQ(cfg.datasetImages, 64000u);
        EXPECT_TRUE(cfg.overlapBpWu);
    }
}

TEST(Campaign, RecordOrderIsIndependentOfJobs)
{
    const auto configs = smallSpec().expand();
    const auto serial = runCampaign(configs, 1);
    const auto parallel4 = runCampaign(configs, 4);
    const auto parallel13 = runCampaign(configs, 13);
    ASSERT_EQ(serial.size(), configs.size());
    EXPECT_EQ(serial, parallel4);
    EXPECT_EQ(serial, parallel13);
    // And the serialized forms are byte-identical (the CI baseline
    // contract).
    EXPECT_EQ(recordsToJson(serial), recordsToJson(parallel4));
    EXPECT_EQ(recordsToCsv(serial), recordsToCsv(parallel13));
}

TEST(Campaign, RecordsMatchDirectSimulation)
{
    CampaignSpec spec = smallSpec();
    spec[Axis::Model] = {"lenet"};
    spec[Axis::Gpus] = {"2"};
    const auto records = runCampaign(spec.expand(), 2);
    ASSERT_EQ(records.size(), 2u);
    const core::TrainReport direct =
        core::TrainerBase::simulate(spec.expand()[0]);
    EXPECT_EQ(records[0].model, "lenet");
    EXPECT_EQ(records[0].method, "p2p");
    EXPECT_DOUBLE_EQ(records[0].epochSeconds, direct.epochSeconds);
    EXPECT_EQ(records[0].digest, direct.digest);
    EXPECT_EQ(records[0].gpu0TrainingBytes, direct.gpu0.training);
}

TEST(Campaign, ProgressReportsEveryRunExactlyOnce)
{
    const auto configs = smallSpec().expand();
    std::set<std::string> seen;
    std::size_t calls = 0;
    runCampaign(configs, 3,
                [&](std::size_t done, std::size_t total,
                    const RunRecord &r) {
                    EXPECT_EQ(total, configs.size());
                    EXPECT_EQ(done, calls + 1);
                    seen.insert(r.key());
                    ++calls;
                });
    EXPECT_EQ(calls, configs.size());
    EXPECT_EQ(seen.size(), configs.size());
}

TEST(Campaign, CachedSimulateReturnsStableReference)
{
    core::TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 2;
    cfg.batchPerGpu = 16;
    const core::TrainReport &a = cachedSimulate(cfg);
    const core::TrainReport &b = cachedSimulate(cfg);
    EXPECT_EQ(&a, &b) << "second lookup must hit the cache";
    cfg.batchPerGpu = 32;
    const core::TrainReport &c = cachedSimulate(cfg);
    EXPECT_NE(&a, &c);
}

TEST(Campaign, ConfigKeySeparatesEveryCliAxis)
{
    core::TrainConfig cfg;
    const std::string base = configKey(cfg);
    auto differs = [&](auto mutate) {
        core::TrainConfig copy;
        mutate(copy);
        return configKey(copy) != base;
    };
    EXPECT_TRUE(differs([](auto &c) { c.model = "lenet"; }));
    EXPECT_TRUE(differs([](auto &c) { c.numGpus = 8; }));
    EXPECT_TRUE(differs([](auto &c) { c.batchPerGpu = 64; }));
    EXPECT_TRUE(
        differs([](auto &c) { c.method = comm::CommMethod::P2P; }));
    EXPECT_TRUE(differs([](auto &c) { c.datasetImages = 1; }));
    EXPECT_TRUE(differs([](auto &c) { c.overlapBpWu = true; }));
    EXPECT_TRUE(differs([](auto &c) { c.useTensorCores = true; }));
    EXPECT_TRUE(differs([](auto &c) { c.useAllReduce = true; }));
    EXPECT_TRUE(differs([](auto &c) { c.bucketFusionMB = 4; }));
    EXPECT_TRUE(differs([](auto &c) { c.commConfig.ncclRings = 2; }));
    EXPECT_TRUE(
        differs([](auto &c) { c.gpuSpec = hw::GpuSpec::pascalP100(); }));
    EXPECT_TRUE(differs([](auto &c) { c.platform = "dgx2"; }));
    EXPECT_TRUE(differs([](auto &c) { c.timingOnly = true; }));
}

TEST(Campaign, TimingOnlyEntryNeverServesAFullRun)
{
    clearSimulationCache();
    core::TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 2;
    cfg.batchPerGpu = 16;
    core::TrainConfig timing = cfg;
    timing.timingOnly = true;
    const core::TrainReport &fast = cachedSimulate(timing);
    EXPECT_EQ(fast.digest, 0u);
    EXPECT_EQ(simulationCacheStats().misses, 1u);
    const core::TrainReport &full = cachedSimulate(cfg);
    EXPECT_EQ(simulationCacheStats().misses, 2u)
        << "a full request must not hit the timing-only entry";
    EXPECT_NE(full.digest, 0u);
    EXPECT_EQ(full.epochSeconds, fast.epochSeconds);
}

TEST(Campaign, ConfigKeyNeverTruncatesLongNames)
{
    // Regression test: configKey used to snprintf into a fixed
    // 768-byte buffer without checking the return value, so two
    // configs whose keys differed only past the truncation point
    // collided in the memo cache and returned each other's reports.
    const std::string pad(800, 'x');
    core::TrainConfig a;
    a.model = pad + "-alpha";
    core::TrainConfig b;
    b.model = pad + "-beta";
    const std::string ka = configKey(a);
    const std::string kb = configKey(b);
    EXPECT_NE(ka, kb);
    EXPECT_NE(ka.find("alpha"), std::string::npos)
        << "key must contain the full model name";
    // The differing axis can sit past the old buffer size on any
    // field, not just the model.
    core::TrainConfig c = a;
    core::TrainConfig d = a;
    d.platform = "dgx2";
    EXPECT_NE(configKey(c), configKey(d));
}

TEST(Campaign, CacheClearDropsEntriesAndResetsStats)
{
    clearSimulationCache();
    core::TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 1;
    cfg.batchPerGpu = 16;
    cachedSimulate(cfg);
    cachedSimulate(cfg);
    SimulationCacheStats stats = simulationCacheStats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    clearSimulationCache();
    stats = simulationCacheStats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    // After a clear the same config re-simulates (fresh miss).
    cachedSimulate(cfg);
    EXPECT_EQ(simulationCacheStats().misses, 1u);
}

TEST(Campaign, CacheLimitEvictsOldestEntriesFirst)
{
    clearSimulationCache();
    setSimulationCacheLimit(2);
    core::TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 1;
    for (int batch : {16, 32, 64})
        (void)cachedSimulate(
            [&] {
                cfg.batchPerGpu = batch;
                return cfg;
            }());
    EXPECT_EQ(simulationCacheStats().entries, 3u)
        << "trim is explicit, not per-insert";
    trimSimulationCache();
    EXPECT_EQ(simulationCacheStats().entries, 2u);
    // FIFO: the first-inserted config (b16) was evicted, so asking
    // for it again is a miss while b64 is still a hit.
    const auto missesBefore = simulationCacheStats().misses;
    cfg.batchPerGpu = 64;
    cachedSimulate(cfg);
    EXPECT_EQ(simulationCacheStats().misses, missesBefore);
    cfg.batchPerGpu = 16;
    cachedSimulate(cfg);
    EXPECT_EQ(simulationCacheStats().misses, missesBefore + 1);
    // Restore defaults for the rest of the suite: unbounded.
    setSimulationCacheLimit(0);
    clearSimulationCache();
}

TEST(Campaign, UnboundedDefaultMakesTrimANoOp)
{
    clearSimulationCache();
    setSimulationCacheLimit(0);
    core::TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 1;
    for (int batch : {16, 32, 64})
        (void)cachedSimulate([&] {
            cfg.batchPerGpu = batch;
            return cfg;
        }());
    trimSimulationCache(); // what runCampaign calls between grids
    EXPECT_EQ(simulationCacheStats().entries, 3u)
        << "single-grid behavior must not change at the default";
    clearSimulationCache();
}

TEST(CampaignSpec, PlatformAxisIsOutermost)
{
    CampaignSpec spec = smallSpec();
    spec[Axis::Platform] = {"dgx1v", "dgx2"};
    const auto configs = spec.expand();
    ASSERT_EQ(configs.size(), 16u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(configs[i].platform, "dgx1v") << i;
        EXPECT_EQ(configs[i + 8].platform, "dgx2") << i;
        // Inner ordering is unchanged between the platform blocks.
        EXPECT_EQ(configs[i].model, configs[i + 8].model);
        EXPECT_EQ(configs[i].numGpus, configs[i + 8].numGpus);
        EXPECT_EQ(configs[i].method, configs[i + 8].method);
    }
}

TEST(CampaignSpec, EmptyPlatformsMeansTheBasePlatform)
{
    CampaignSpec spec = smallSpec();
    spec.base.platform = "dgx1p";
    for (const auto &cfg : spec.expand())
        EXPECT_EQ(cfg.platform, "dgx1p");
}

TEST(CampaignSpec, InvalidPlatformAxisIsFatal)
{
    CampaignSpec bad = smallSpec();
    bad[Axis::Platform] = {"dgx1v", "dgx3"};
    EXPECT_THROW(bad.expand(), sim::FatalError);
    // A GPU request beyond a listed platform's capacity fails the
    // whole grid up front, not mid-campaign on a worker thread.
    CampaignSpec wide = smallSpec();
    wide[Axis::Platform] = {"dgx1v"};
    wide[Axis::Gpus] = {"8", "16"};
    EXPECT_THROW(wide.expand(), sim::FatalError);
    wide[Axis::Platform] = {"dgx2"};
    EXPECT_EQ(wide.expand().size(), 8u);
}

/** `dgxprof campaign --model lenet --gpus 2 --batches 16` with two
 * values on every other axis (four modes): 90 cells. */
CampaignSpec
everyAxisSpec()
{
    return campaignSpecFromArgs(core::cli::Args::parse(
        {"--model", "lenet", "--gpus", "2", "--batches", "16", "--method",
         "p2p,nccl", "--mode", "sync_dp,async_ps,model_parallel,pipeline",
         "--platform", "dgx1v,dgx1p", "--nodes", "1,2", "--interconnect",
         "ib100,ib200", "--netalgo", "ring,tree", "--scheduler",
         "fifo,priority", "--compression", "none,dgc", "--microbatches",
         "2,4"}));
}

TEST(CampaignSpec, EveryAxisGridKeepsItsCellsInOrder)
{
    // Per platform: at one node, 8 sync cells (method x scheduler x
    // compression), 1 async_ps and 2 + 2 staged (microbatches); at two
    // nodes, 2 x 2 (interconnect x netalgo) x 8 sync cells only.
    const auto cells = everyAxisSpec().expand();
    ASSERT_EQ(cells.size(), 90u);
    // FNV-1a over the ordered configKeys, one per line, pinned from
    // the expansion that predates the axis table.
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const core::TrainConfig &cell : cells) {
        for (char c : configKey(cell) + "\n") {
            digest ^= static_cast<unsigned char>(c);
            digest *= 0x100000001b3ull;
        }
    }
    EXPECT_EQ(digest, 0xa8ca1035361a85dfull);
}

TEST(CampaignSpec, OneValueListReadsLikeTheScalarOption)
{
    // Each row's values, the first one good, in a context where no
    // cell pins the row: nodes 2 for the inter-node rows, a pipeline
    // for microbatches, and method p2p, which non-sync cells pin.
    struct Row
    {
        Axis axis;
        std::vector<std::string> values;
        std::map<std::string, std::string> context = {};
    };
    const std::vector<Row> rows = {
        {Axis::Platform, {"dgx1p", "pcie8", "dgx3", ""}},
        {Axis::Nodes, {"2", "1", "0", "-1", "x"}},
        {Axis::Interconnect, {"ib200", "ib100", "ib999"}, {{"nodes", "2"}}},
        {Axis::NetAlgo, {"tree", "ring", "star"}, {{"nodes", "2"}}},
        {Axis::Mode, {"async", "mp", "1f1b", "sync_dp", "hybrid"}},
        {Axis::Model, {"alexnet", "bert-base"}},
        {Axis::Gpus, {"8", "1", "0", "9", "x", "4294967300"}},
        {Axis::Batch, {"32", "x"}},
        {Axis::Microbatches,
         {"8", "0", "-1", "x"},
         {{"mode", "pipeline"}}},
        {Axis::Method, {"nccl", "device", "mpi"}},
        {Axis::Scheduler, {"priority", "partitioned", "lifo"}},
        {Axis::Compression, {"dgc", "onebit", "zip"}},
    };
    ASSERT_EQ(rows.size(), core::cli::kAxisCount);
    const auto outcome = [](auto build) -> std::string {
        try {
            return configKey(build());
        } catch (const sim::FatalError &) {
            return "rejected";
        }
    };
    for (const Row &row : rows) {
        const char *option = core::cli::axisRow(row.axis).option;
        for (const std::string &value : row.values) {
            std::map<std::string, std::string> options = {
                {"model", "lenet"},
                {"gpus", "2"},
                {"batch", "16"},
                {"method", "p2p"}};
            for (const auto &[k, v] : row.context)
                options[k] = v;
            options[option] = value;
            std::vector<std::string> tokens;
            for (const auto &[k, v] : options) {
                tokens.push_back("--" + k);
                tokens.push_back(v);
            }
            const core::cli::Args args = core::cli::Args::parse(tokens);
            const std::string scalar =
                outcome([&] { return core::cli::configFromArgs(args); });
            const std::string grid = outcome([&] {
                const auto cells = campaignSpecFromArgs(args).expand();
                EXPECT_EQ(cells.size(), 1u) << option << " " << value;
                return cells.front();
            });
            EXPECT_EQ(scalar, grid) << "--" << option << " " << value;
            if (value == row.values.front()) {
                EXPECT_NE(scalar, "rejected") << "--" << option;
            }
        }
    }
}

TEST(CampaignSpec, RecordsGiveBackEveryAxis)
{
    for (const core::TrainConfig &cell : everyAxisSpec().expand()) {
        core::TrainReport report;
        report.config = cell;
        // The depth a run reports: each staged cell names its own.
        report.microbatches = cell.microbatches;
        EXPECT_EQ(configKey(recordFromReport(report).toConfig()),
                  configKey(cell));
    }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    parallelFor(kCount, 7,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, PropagatesTheFirstException)
{
    EXPECT_THROW(
        parallelFor(100, 4,
                    [](std::size_t i) {
                        if (i == 42)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // Inline path too.
    EXPECT_THROW(parallelFor(3, 1,
                             [](std::size_t) {
                                 throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, ZeroCountAndInlineFallbackWork)
{
    int calls = 0;
    parallelFor(0, 8, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(5, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 5);
}

} // namespace
} // namespace dgxsim::campaign
