/**
 * @file
 * Regression-gate tests: a clean baseline passes against its own
 * re-run, injected drift fails (and is tolerated when within the
 * requested percentage), digest corruption fails regardless of the
 * timing tolerance, and mismatched baselines are rejected loudly.
 */

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "campaign/check.hh"
#include "sim/logging.hh"

namespace dgxsim::campaign {
namespace {

using core::cli::Axis;

std::vector<RunRecord>
freshBaseline()
{
    CampaignSpec spec;
    spec[Axis::Model] = {"lenet"};
    spec[Axis::Gpus] = {"1", "2"};
    spec[Axis::Batch] = {"16"};
    spec[Axis::Method] = {"p2p", "nccl"};
    return runCampaign(spec.expand(), 2);
}

TEST(Check, CleanBaselinePassesAtZeroTolerance)
{
    const auto baseline = freshBaseline();
    CheckOptions options;
    options.tolerancePct = 0.0;
    options.jobs = 2;
    const CheckReport report =
        checkAgainstBaseline(baseline, options);
    EXPECT_TRUE(report.pass);
    EXPECT_EQ(report.failures, 0u);
    ASSERT_EQ(report.deltas.size(), baseline.size());
    for (const RunDelta &d : report.deltas) {
        EXPECT_TRUE(d.digestMatch);
        EXPECT_EQ(d.maxDriftPct, 0.0);
    }
}

TEST(Check, InjectedDriftFailsAndToleranceForgives)
{
    auto baseline = freshBaseline();
    baseline[1].epochSeconds *= 1.10; // 10% drift on one run
    CheckOptions tight;
    tight.tolerancePct = 1.0;
    tight.jobs = 2;
    const CheckReport failed = checkAgainstBaseline(baseline, tight);
    EXPECT_FALSE(failed.pass);
    EXPECT_EQ(failed.failures, 1u);
    EXPECT_FALSE(failed.deltas[1].pass);
    EXPECT_EQ(failed.deltas[1].worstMetric, "epoch_s");
    EXPECT_NEAR(failed.deltas[1].maxDriftPct, 100.0 * (1 - 1 / 1.10),
                0.01);

    CheckOptions loose = tight;
    loose.tolerancePct = 15.0;
    EXPECT_TRUE(checkAgainstBaseline(baseline, loose).pass);

    // Every serialized outcome is gated, not only the timings: the
    // memory peaks, iteration count, setup time and the async
    // throughput and staleness each fail the check on their own.
    CampaignSpec async;
    async[Axis::Model] = {"lenet"};
    async[Axis::Gpus] = {"2"};
    async[Axis::Batch] = {"16"};
    async[Axis::Method] = {"p2p"};
    async[Axis::Mode] = {"async_ps"};
    const RunRecord asyncRun = runCampaign(async.expand(), 1).front();
    CheckOptions exact;
    exact.skipDigest = true;
    CheckOptions forgiving = exact;
    forgiving.tolerancePct = 1e9;
    const auto tamper = [&](const RunRecord &clean, const char *metric,
                            auto edit) {
        RunRecord r = clean;
        edit(r);
        const CheckReport report = checkAgainstBaseline({r}, exact);
        EXPECT_FALSE(report.pass) << metric;
        EXPECT_EQ(report.deltas[0].worstMetric, metric);
        EXPECT_TRUE(checkAgainstBaseline({r}, forgiving).pass) << metric;
    };
    const RunRecord sync = freshBaseline()[1];
    tamper(sync, "mem_gpux_bytes",
           [](RunRecord &r) { r.gpuxTrainingBytes *= 3; });
    tamper(sync, "mem_pre_bytes",
           [](RunRecord &r) { r.preTrainingBytes *= 3; });
    tamper(sync, "iterations", [](RunRecord &r) { r.iterations += 7; });
    tamper(sync, "setup_s", [](RunRecord &r) { r.setupSeconds *= 10; });
    tamper(asyncRun, "throughput_img_s",
           [](RunRecord &r) { r.throughputImagesPerSec *= 2; });
    tamper(asyncRun, "max_staleness",
           [](RunRecord &r) { r.maxStaleness += 5; });
}

TEST(Check, DigestCorruptionFailsAtAnyTolerance)
{
    auto baseline = freshBaseline();
    baseline[0].digest ^= 1;
    CheckOptions options;
    options.tolerancePct = 1e9;
    options.jobs = 1;
    const CheckReport report =
        checkAgainstBaseline(baseline, options);
    EXPECT_FALSE(report.pass);
    EXPECT_FALSE(report.deltas[0].digestMatch);
    // --no-digest downgrades the gate to timing-only.
    options.skipDigest = true;
    EXPECT_TRUE(checkAgainstBaseline(baseline, options).pass);
}

TEST(Check, OomVerdictMustMatch)
{
    auto baseline = freshBaseline();
    baseline[0].oom = true; // lenet x1 cannot really OOM
    CheckOptions options;
    options.tolerancePct = 1e9;
    options.skipDigest = true;
    const CheckReport report =
        checkAgainstBaseline(baseline, options);
    EXPECT_FALSE(report.pass);
    EXPECT_FALSE(report.deltas[0].oomMatch);
}

TEST(Check, CompareRejectsMismatchedBaselines)
{
    const auto baseline = freshBaseline();
    auto truncated = baseline;
    truncated.pop_back();
    EXPECT_THROW(compareRecords(baseline, truncated, {}),
                 sim::FatalError);
    auto reordered = baseline;
    std::swap(reordered[0], reordered[1]);
    EXPECT_THROW(compareRecords(baseline, reordered, {}),
                 sim::FatalError);
}

TEST(Check, SummaryNamesTheVerdict)
{
    const auto baseline = freshBaseline();
    CheckOptions options;
    options.jobs = 2;
    const CheckReport report =
        checkAgainstBaseline(baseline, options);
    const std::string text = report.summary(options.tolerancePct);
    EXPECT_NE(text.find("check PASS"), std::string::npos);
    EXPECT_NE(text.find("lenet x1 b16 p2p"), std::string::npos);
}

} // namespace
} // namespace dgxsim::campaign
