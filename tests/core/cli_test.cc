/**
 * @file
 * Tests for the dgxprof argument parser and config mapping.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/cli.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using core::cli::Args;

TEST(CliArgsTest, ParsesPositionalAndOptions)
{
    const Args args = Args::parse(
        {"train", "--model", "lenet", "--gpus=8", "--report"});
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "train");
    EXPECT_EQ(args.get("model"), "lenet");
    EXPECT_EQ(args.getInt("gpus", 1), 8);
    EXPECT_TRUE(args.has("report"));
    EXPECT_FALSE(args.has("trace"));
}

TEST(CliArgsTest, FlagFollowedByOptionStaysBoolean)
{
    const Args args =
        Args::parse({"--overlap", "--batch", "32", "--tensor-cores"});
    EXPECT_TRUE(args.has("overlap"));
    EXPECT_EQ(args.get("overlap"), "");
    EXPECT_EQ(args.getInt("batch", 0), 32);
    EXPECT_TRUE(args.has("tensor-cores"));
}

TEST(CliArgsTest, DefaultsWhenMissing)
{
    const Args args = Args::parse({});
    EXPECT_EQ(args.get("model", "resnet-50"), "resnet-50");
    EXPECT_EQ(args.getInt("gpus", 4), 4);
    EXPECT_DOUBLE_EQ(args.getDouble("fusion-mb", 2.5), 2.5);
    EXPECT_EQ(args.getIntList("gpus", {1, 2}),
              (std::vector<int>{1, 2}));
}

TEST(CliArgsTest, NamesListsEveryOptionAndWithoutDropsOne)
{
    const Args args = Args::parse(
        {"train", "--model", "lenet", "--overlap", "--gpus=8"});
    EXPECT_EQ(args.names(),
              (std::vector<std::string>{"gpus", "model", "overlap"}));
    const Args rest = args.without("model");
    EXPECT_EQ(rest.names(),
              (std::vector<std::string>{"gpus", "overlap"}));
    EXPECT_EQ(rest.getInt("gpus", 1), 8);
    EXPECT_EQ(rest.positional(), args.positional());
}

TEST(CliArgsTest, IntListParsing)
{
    const Args args = Args::parse({"--gpus", "1,2,4,8"});
    EXPECT_EQ(args.getIntList("gpus", {}),
              (std::vector<int>{1, 2, 4, 8}));
}

TEST(CliArgsTest, GarbageNumbersAreFatal)
{
    const Args args =
        Args::parse({"--gpus", "four", "--fusion-mb", "lots",
                     "--batches", "16,x"});
    EXPECT_THROW(args.getInt("gpus", 1), sim::FatalError);
    EXPECT_THROW(args.getDouble("fusion-mb", 0), sim::FatalError);
    EXPECT_THROW(args.getIntList("batches", {}), sim::FatalError);

    // Integers past their type's range fail naming the option instead
    // of wrapping to a different run.
    const auto error = [](std::vector<std::string> tokens, auto read) {
        try {
            read(Args::parse(tokens));
        } catch (const sim::FatalError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    const auto config = [](const Args &a) {
        return core::cli::configFromArgs(a);
    };
    EXPECT_NE(error({"--gpus", "4294967300"}, config).find("--gpus"),
              std::string::npos);
    EXPECT_NE(error({"--batch", "4294967312"}, config).find("--batch"),
              std::string::npos);
    EXPECT_NE(error({"--images", "-1"}, config).find("--images"),
              std::string::npos);
    EXPECT_NE(error({"--images", "0"}, config).find("--images"),
              std::string::npos);
    EXPECT_NE(error({"--partition-bytes", "-1"}, config)
                  .find("--partition-bytes"),
              std::string::npos);
    EXPECT_NE(error({"--partition-bytes", "17179869185g"}, config)
                  .find("--partition-bytes"),
              std::string::npos);
    EXPECT_NE(error({"--gpus", "1,4294967297"},
                    [](const Args &a) { return a.getIntList("gpus", {}); })
                  .find("--gpus"),
              std::string::npos);
    // --images is a 64-bit count, read whole.
    EXPECT_EQ(config(Args::parse({"--images", "5000000000"})).datasetImages,
              5000000000u);
    EXPECT_EQ(Args::parse({"--partition-bytes", "17179869183g"})
                  .getBytes("partition-bytes", 0),
              17179869183ull << 30);

    // A double is all of its text, and finite: NaN slips past every
    // range check (it compares false), inf and 1e400 (read as inf)
    // overflow the integer casts downstream, and trailing text would
    // run a different value.
    const auto real = [](const Args &a) {
        return a.getDouble("max-error", 0);
    };
    for (const char *bad : {"nan", "inf", "-inf", "1e400", "2abc", "+2",
                            " 2", ""}) {
        EXPECT_NE(error({"--max-error", bad}, real)
                      .find("--max-error expects a finite number"),
                  std::string::npos)
            << bad;
    }
    EXPECT_DOUBLE_EQ(real(Args::parse({"--max-error", "2.5e-1"})), 0.25);
    EXPECT_DOUBLE_EQ(real(Args::parse({"--max-error", "-3"})), -3.0);

    // Ranged doubles hold their range: the fusion threshold becomes a
    // 64-bit byte count, and the kept-element ratio is in (0, 1].
    for (const char *bad : {"-1", "-0.5", "1e30", "nan"}) {
        EXPECT_NE(error({"--fusion-mb", bad}, config).find("--fusion-mb"),
                  std::string::npos)
            << bad;
    }
    EXPECT_EQ(error({"--fusion-mb", "18446744"}, config), "");
    for (const char *bad : {"-1", "0", "1.0000001", "5", "nan", "1e400"}) {
        EXPECT_NE(error({"--compress-ratio", bad}, config)
                      .find("--compress-ratio"),
                  std::string::npos)
            << bad;
    }
    EXPECT_EQ(error({"--compress-ratio", "1"}, config), "");
}

TEST(CliConfigTest, MapsAllTrainingOptions)
{
    const Args args = Args::parse(
        {"--model", "vgg-16", "--gpus", "8", "--batch", "32",
         "--method", "p2p", "--images", "512000", "--tensor-cores",
         "--overlap", "--allreduce", "--fusion-mb", "16",
         "--rings", "2"});
    const core::TrainConfig cfg = core::cli::configFromArgs(args);
    EXPECT_EQ(cfg.model, "vgg-16");
    EXPECT_EQ(cfg.numGpus, 8);
    EXPECT_EQ(cfg.batchPerGpu, 32);
    EXPECT_EQ(cfg.method, comm::CommMethod::P2P);
    EXPECT_EQ(cfg.datasetImages, 512000u);
    EXPECT_TRUE(cfg.useTensorCores);
    EXPECT_TRUE(cfg.overlapBpWu);
    EXPECT_TRUE(cfg.useAllReduce);
    EXPECT_DOUBLE_EQ(cfg.bucketFusionMB, 16.0);
    EXPECT_EQ(cfg.commConfig.ncclRings, 2);
}

TEST(CliConfigTest, EveryBaseOptionIsRead)
{
    // dgxprof accepts exactly baseOptions() on top of the axes, so
    // each must steer the config.
    const std::map<std::string, std::string> values = {
        {"images", "1000"},        {"fusion-mb", "4"},
        {"async-iters", "7"},      {"rings", "2"},
        {"partition-bytes", "1m"}, {"credit-bytes", "1m"},
        {"compress-ratio", "0.5"}};
    const core::TrainConfig plain =
        core::cli::baseConfigFromArgs(Args::parse({}));
    for (const std::string &name : core::cli::baseOptions()) {
        const auto it = values.find(name);
        const Args args = Args::parse(
            {"--" + name, it == values.end() ? "" : it->second});
        EXPECT_TRUE(core::cli::baseConfigFromArgs(args) != plain)
            << "--" << name;
    }
}

TEST(CliConfigTest, AxesDefaultToTheTrainConfigButFourGpus)
{
    core::TrainConfig expected;
    expected.numGpus = 4;
    EXPECT_TRUE(core::cli::configFromArgs(Args::parse({})) == expected);
}

TEST(CliConfigTest, P100FlagSwapsTheGpu)
{
    const Args args = Args::parse({"--p100"});
    const core::TrainConfig cfg = core::cli::configFromArgs(args);
    EXPECT_EQ(cfg.gpuSpec.name, hw::GpuSpec::pascalP100().name);
}

TEST(CliConfigTest, BadMethodIsFatal)
{
    const Args args = Args::parse({"--method", "mpi"});
    EXPECT_THROW(core::cli::configFromArgs(args), sim::FatalError);
}

TEST(CliConfigTest, MapsParallelismMode)
{
    const Args args = Args::parse(
        {"--mode", "async_ps", "--async-iters", "12",
         "--microbatches", "6"});
    const core::TrainConfig cfg = core::cli::configFromArgs(args);
    EXPECT_EQ(cfg.mode, core::ParallelismMode::AsyncPs);
    EXPECT_EQ(cfg.asyncItersPerWorker, 12);
    EXPECT_EQ(cfg.microbatches, 6);
}

TEST(CliConfigTest, ModeDefaultsToSyncAndAcceptsAliases)
{
    // The deprecated *subcommand* aliases (dgxprof async/modelpar/mp)
    // are gone — see the dgxprof_alias_*_removed ctest entries — but
    // the --mode *value* aliases are supported spelling, not
    // deprecation, and must keep working.
    EXPECT_EQ(core::cli::configFromArgs(Args::parse({})).mode,
              core::ParallelismMode::SyncDp);
    EXPECT_EQ(core::cli::configFromArgs(
                  Args::parse({"--mode", "mp"}))
                  .mode,
              core::ParallelismMode::ModelParallel);
    EXPECT_EQ(core::cli::configFromArgs(
                  Args::parse({"--mode", "sync"}))
                  .mode,
              core::ParallelismMode::SyncDp);
}

TEST(CliConfigTest, BadModeIsFatal)
{
    const Args args = Args::parse({"--mode", "hybrid"});
    EXPECT_THROW(core::cli::configFromArgs(args), sim::FatalError);
}

TEST(CliConfigTest, BaseConfigIgnoresModeForGridCommands)
{
    // Campaign passes list-valued --mode; the scalar parser must not
    // touch it (it would fatal on "async_ps,model_parallel").
    const Args args =
        Args::parse({"--mode", "async_ps,model_parallel"});
    const core::TrainConfig cfg = core::cli::baseConfigFromArgs(args);
    EXPECT_EQ(cfg.mode, core::ParallelismMode::SyncDp);
}

TEST(CliConfigTest, MapsPlatformAndDefaultsToDgx1v)
{
    EXPECT_EQ(core::cli::configFromArgs(Args::parse({})).platform,
              "dgx1v");
    const Args args = Args::parse(
        {"--platform", "dgx2", "--gpus", "16"});
    const core::TrainConfig cfg = core::cli::configFromArgs(args);
    EXPECT_EQ(cfg.platform, "dgx2");
    EXPECT_EQ(cfg.numGpus, 16);
}

TEST(CliConfigTest, BadPlatformIsFatal)
{
    const Args args = Args::parse({"--platform", "dgx3"});
    EXPECT_THROW(core::cli::configFromArgs(args), sim::FatalError);
}

TEST(CliConfigTest, GpusBeyondThePlatformAreFatal)
{
    // 16 GPUs fit the DGX-2 but not the DGX-1; the parser validates
    // the pair up front instead of failing deep in Machine setup.
    EXPECT_THROW(core::cli::configFromArgs(
                     Args::parse({"--gpus", "16"})),
                 sim::FatalError);
    EXPECT_THROW(core::cli::configFromArgs(
                     Args::parse({"--gpus", "0"})),
                 sim::FatalError);
    EXPECT_NO_THROW(core::cli::configFromArgs(Args::parse(
        {"--platform", "dgx2", "--gpus", "16"})));
}

TEST(CliConfigTest, BaseConfigIgnoresPlatformForGridCommands)
{
    // Campaign passes list-valued --platform; the scalar parser must
    // not touch it (makePlatform would fatal on "dgx1p,dgx2").
    const Args args = Args::parse({"--platform", "dgx1p,dgx2"});
    const core::TrainConfig cfg = core::cli::baseConfigFromArgs(args);
    EXPECT_EQ(cfg.platform, "dgx1v");
}

} // namespace
