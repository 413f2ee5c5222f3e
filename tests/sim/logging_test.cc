/**
 * @file
 * Tests for the warning channel: one sink, each distinct message
 * delivered once (also under concurrent warnings), a fresh sink
 * starting with nothing seen, and the Auditor counting every
 * violation whether or not its warning repeats.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "sim/auditor.hh"
#include "sim/logging.hh"

namespace dgxsim::sim {
namespace {

/** Installs a capturing sink for one test; restores the old one. */
class CapturedWarnings
{
  public:
    CapturedWarnings()
        : previous_(setWarnSink(
              [this](const std::string &line) { lines.push_back(line); }))
    {
    }
    ~CapturedWarnings() { setWarnSink(previous_); }

    std::vector<std::string> lines;

  private:
    WarnSink previous_;
};

TEST(Warn, EachDistinctMessageOnce)
{
    CapturedWarnings captured;
    warn("ring fallback on ", 8, " GPUs");
    warn("ring fallback on ", 8, " GPUs");
    warn("ring fallback on ", 4, " GPUs");
    EXPECT_EQ(captured.lines,
              (std::vector<std::string>{"warn: ring fallback on 8 GPUs",
                                        "warn: ring fallback on 4 GPUs"}));
}

TEST(Warn, ANewSinkStartsWithNothingSeen)
{
    {
        CapturedWarnings first;
        warn("same text");
        EXPECT_EQ(first.lines.size(), 1u);
    }
    CapturedWarnings second;
    warn("same text");
    EXPECT_EQ(second.lines.size(), 1u);
}

TEST(Warn, ConcurrentWarningsDeliverOnce)
{
    CapturedWarnings captured;
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < 50; ++i) {
                warn("shared");
                warn("worker ", t);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    EXPECT_EQ(captured.lines.size(), 5u);
}

TEST(Warn, AuditorCountsRepeatedViolations)
{
    CapturedWarnings captured;
    Auditor auditor(/*strict=*/false);
    auditor.expect(false, 7, "same violation");
    auditor.expect(false, 7, "same violation");
    auditor.expect(false, 9, "same violation");
    EXPECT_EQ(auditor.violationCount(), 3u);
    EXPECT_EQ(captured.lines.size(), 2u);
}

} // namespace
} // namespace dgxsim::sim
