/**
 * @file
 * Tests for the chrome://tracing export.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "campaign/record.hh"
#include "core/trainer_base.hh"
#include "profiling/profiler.hh"

namespace {

using namespace dgxsim;
using profiling::Name;
using profiling::Profiler;

TEST(ChromeTraceTest, EmitsCompleteEvents)
{
    Profiler p;
    p.recordKernel(Name("conv_fwd"), 2, sim::usToTicks(10),
                   sim::usToTicks(25));
    p.recordApi(Name("cudaStreamSynchronize"), Name("worker0"), 0,
                sim::usToTicks(5));
    p.recordCopy(Name("PtoP"), 0, 1, 4096, sim::usToTicks(1),
                 sim::usToTicks(3));
    const std::string json = p.chromeTrace();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"conv_fwd\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\": \"GPU2\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\": \"worker0\""), std::string::npos);
    EXPECT_NE(json.find("PtoP 4096B"), std::string::npos);
    // Duration of the kernel is 15 us.
    EXPECT_NE(json.find("\"dur\": 15"), std::string::npos);
}

/** Count non-overlapping occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle);
         pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(ChromeTraceTest, EmitsFlowEventsForCrossTrackDeps)
{
    Profiler p;
    const profiling::RecordId k = p.recordKernel(
        Name("producer"), 0, sim::usToTicks(1), sim::usToTicks(5), Name("s0"));
    // Copy depends on a kernel: different track, so the edge becomes
    // a flow-arrow pair ("s" at the producer, "f" at the consumer).
    p.recordCopy(Name("PtoP"), 0, 1, 4096, sim::usToTicks(5),
                 sim::usToTicks(9), 0, {k});
    const std::string json = p.chromeTrace();
    EXPECT_EQ(countOf(json, "\"ph\": \"s\""), 1u);
    EXPECT_EQ(countOf(json, "\"ph\": \"f\""), 1u);
    // Both halves carry the same flow id and category.
    EXPECT_EQ(countOf(json, "\"id\": 1,"), 2u);
    EXPECT_EQ(countOf(json, "\"cat\": \"dep\""), 2u);
}

TEST(ChromeTraceTest, NoFlowEventsForSameTrackDeps)
{
    Profiler p;
    const profiling::RecordId a =
        p.recordKernel(Name("a"), 0, 0, sim::usToTicks(10), Name("s0"));
    // Same (device, stream) track: program order is already visible
    // in the timeline, so no arrow is drawn.
    p.recordKernel(Name("b"), 0, sim::usToTicks(10), sim::usToTicks(20),
                   Name("s0"), {a});
    const std::string json = p.chromeTrace();
    EXPECT_EQ(countOf(json, "\"ph\": \"s\""), 0u);
    EXPECT_EQ(countOf(json, "\"ph\": \"f\""), 0u);
}

TEST(ChromeTraceTest, BlockingApiFlowArrowBindsToRecordEnd)
{
    Profiler p;
    // Kernel ends at 30us; the blocking sync started at 10us and
    // returns at 32us — the wait is the covered interval, so the
    // arrow must land at the API record's end, not its start.
    const profiling::RecordId k = p.recordKernel(
        Name("slow"), 1, sim::usToTicks(5), sim::usToTicks(30), Name("s0"));
    p.recordApi(Name("cudaStreamSynchronize"), Name("worker1"),
                sim::usToTicks(10), sim::usToTicks(32),
                sim::usToTicks(2), /*blocking=*/true, {k});
    const std::string json = p.chromeTrace();
    EXPECT_EQ(countOf(json, "\"ph\": \"s\""), 1u);
    EXPECT_EQ(countOf(json, "\"ph\": \"f\""), 1u);
    // The finish half sits at 32us on the API's own track.
    EXPECT_NE(json.find("\"bp\": \"e\", \"pid\": \"host\", "
                        "\"tid\": \"worker1\", \"ts\": 32"),
              std::string::npos);
}

TEST(ChromeTraceTest, EmptyProfilerYieldsValidSkeleton)
{
    Profiler p;
    const std::string json = p.chromeTrace();
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("]}"), std::string::npos);
}

TEST(ChromeTraceTest, EscapesQuotesInNames)
{
    Profiler p;
    p.recordKernel(Name("weird\"name"), 0, 0, 10);
    const std::string json = p.chromeTrace();
    EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
}

TEST(ChromeTraceTest, WritesFile)
{
    Profiler p;
    p.recordKernel(Name("k"), 0, 0, 1000);
    const std::string path = "/tmp/dgxsim_trace_test.json";
    campaign::writeFile(path, p.chromeTrace());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("traceEvents"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ChromeTraceTest, TrainingRunProducesBalancedTrace)
{
    core::TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 2;
    cfg.batchPerGpu = 16;
    cfg.measuredIterations = 1;
    const auto trainer = core::TrainerBase::make(cfg);
    trainer->run();
    const std::string json = trainer->profiler().chromeTrace();
    // Every event object closes; a cheap brace-balance check.
    std::size_t open = 0, close = 0;
    for (char c : json) {
        open += c == '{';
        close += c == '}';
    }
    EXPECT_EQ(open, close);
    EXPECT_GT(open, 50u);
    EXPECT_NE(json.find("mxnetEngineDispatch"), std::string::npos);
}

} // namespace
