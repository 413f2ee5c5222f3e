/**
 * @file
 * Tests for the nvprof-like profiler: summaries, fractions, report
 * rendering, the running totals and the timing-only mode.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "profiling/profiler.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using profiling::Name;
using profiling::Profiler;

/** Calls and ticks of one name, summed from the records. */
struct SummaryRowFields
{
    std::uint64_t calls = 0;
    sim::Tick ticks = 0;
};

TEST(ProfilerTest, KernelSummaryGroupsAndSorts)
{
    Profiler p;
    p.recordKernel(Name("conv"), 0, 0, 100);
    p.recordKernel(Name("conv"), 0, 100, 300);
    p.recordKernel(Name("gemm"), 1, 0, 50);
    auto rows = p.kernelSummary();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "conv");
    EXPECT_EQ(rows[0].calls, 2u);
    EXPECT_EQ(rows[0].totalTime, 300u);
    EXPECT_EQ(rows[1].name, "gemm");
}

TEST(ProfilerTest, ApiTimeAndFraction)
{
    Profiler p;
    p.recordApi(Name("cudaStreamSynchronize"), Name("w0"), 0, 750);
    p.recordApi(Name("cudaLaunchKernel"), Name("w0"), 750, 1000);
    EXPECT_EQ(p.apiTime("cudaStreamSynchronize"), 750u);
    EXPECT_DOUBLE_EQ(p.apiTimeFraction("cudaStreamSynchronize"), 0.75);
    EXPECT_DOUBLE_EQ(p.apiTimeFraction("missing"), 0.0);
}

TEST(ProfilerTest, DeviceKernelTimeFilters)
{
    Profiler p;
    p.recordKernel(Name("a"), 0, 0, 100);
    p.recordKernel(Name("b"), 1, 0, 999);
    p.recordKernel(Name("c"), 0, 100, 150);
    EXPECT_EQ(p.deviceKernelTime(0), 150u);
    EXPECT_EQ(p.deviceKernelTime(1), 999u);
    EXPECT_EQ(p.deviceKernelTime(7), 0u);
}

TEST(ProfilerTest, CopiedBytesFiltersByKind)
{
    Profiler p;
    p.recordCopy(Name("PtoP"), 0, 1, 1000, 0, 10);
    p.recordCopy(Name("DtoH"), 0, 8, 500, 0, 10);
    p.recordCopy(Name("PtoP"), 1, 2, 250, 0, 10);
    EXPECT_EQ(p.copiedBytes(), 1750u);
    EXPECT_EQ(p.copiedBytes("PtoP"), 1250u);
    EXPECT_EQ(p.copiedBytes("DtoH"), 500u);
}

TEST(ProfilerTest, ClearDropsEverything)
{
    Profiler p;
    p.recordKernel(Name("a"), 0, 0, 100);
    p.recordApi(Name("x"), Name("w0"), 0, 10);
    p.recordCopy(Name("PtoP"), 0, 1, 8, 0, 1);
    p.clear();
    EXPECT_TRUE(p.kernels().empty());
    EXPECT_TRUE(p.apis().empty());
    EXPECT_TRUE(p.copies().empty());
}

/** Feed @p p a fixed mix of API calls and copies, some sharing a
 * name or kind, one copy with protocol overhead on the wire. */
void
landMix(Profiler &p)
{
    p.recordApi(Name("cudaLaunchKernel"), Name("w0"), 0, 40);
    p.recordApi(Name("cudaStreamSynchronize"), Name("w0"), 40, 900);
    p.recordApi(Name("cudaLaunchKernel"), Name("w1"), 5, 47);
    p.recordApi(Name("ncclGroupOps"), Name("w1"), 47, 300);
    p.recordApi(Name("cudaStreamSynchronize"), Name("w1"), 300, 301);
    p.recordCopy(Name("PtoP"), 0, 1, 1000, 0, 10);
    p.recordCopy(Name("NCCL"), 1, 2, 4096, 10, 30, 4608);
    p.recordCopy(Name("PtoP"), 2, 3, 24, 30, 31);
    p.recordCopy(Name("DtoH"), 0, 8, 500, 0, 10);
}

TEST(ProfilerTest, TotalsEqualScansOfTheRecords)
{
    Profiler p;
    landMix(p);
    std::map<std::string, SummaryRowFields> scan;
    sim::Tick apiTotal = 0;
    for (const profiling::ApiRecord &a : p.apis()) {
        ++scan[a.name].calls;
        scan[a.name].ticks += a.duration();
        apiTotal += a.duration();
    }
    const auto rows = p.apiSummary();
    ASSERT_EQ(rows.size(), scan.size());
    for (const profiling::SummaryRow &row : rows) {
        EXPECT_EQ(row.calls, scan[row.name].calls) << row.name;
        EXPECT_EQ(row.totalTime, scan[row.name].ticks) << row.name;
        EXPECT_EQ(p.apiTime(row.name), scan[row.name].ticks) << row.name;
        EXPECT_EQ(p.apiTimeFraction(row.name),
                  static_cast<double>(scan[row.name].ticks) /
                      static_cast<double>(apiTotal))
            << row.name;
    }
    EXPECT_EQ(rows.front().name, "cudaStreamSynchronize");
    EXPECT_EQ(p.apiTime("missing"), 0u);

    for (const char *kind : {"", "PtoP", "NCCL", "DtoH", "IB"}) {
        sim::Bytes bytes = 0;
        sim::Bytes wire = 0;
        for (const profiling::CopyRecord &c : p.copies()) {
            if (*kind == '\0' || c.kind == kind) {
                bytes += c.bytes;
                wire += c.wireBytes;
            }
        }
        EXPECT_EQ(p.copiedBytes(kind), bytes) << kind;
        EXPECT_EQ(p.copiedWireBytes(kind), wire) << kind;
    }
    EXPECT_EQ(p.copiedWireBytes("NCCL"), 4608u);

    p.clear();
    EXPECT_TRUE(p.apiSummary().empty());
    EXPECT_EQ(p.apiTime("cudaStreamSynchronize"), 0u);
    EXPECT_EQ(p.apiTimeFraction("cudaStreamSynchronize"), 0.0);
    EXPECT_EQ(p.copiedBytes(), 0u);
    EXPECT_EQ(p.copiedWireBytes(), 0u);
}

TEST(ProfilerTest, TimingOnlyKeepsIdsAndTotalsButNoRecords)
{
    Profiler full;
    Profiler timing(true);
    landMix(full);
    landMix(timing);

    EXPECT_EQ(timing.recordCount(), 0u);
    EXPECT_TRUE(timing.apis().empty());
    EXPECT_TRUE(timing.copies().empty());
    EXPECT_EQ(timing.apiTimeFraction("cudaStreamSynchronize"),
              full.apiTimeFraction("cudaStreamSynchronize"));
    EXPECT_EQ(timing.copiedBytes(), full.copiedBytes());
    EXPECT_EQ(timing.copiedWireBytes("NCCL"),
              full.copiedWireBytes("NCCL"));
    EXPECT_EQ(timing.report(), full.report());

    // Ids advance exactly as in a full profiler; a record with deps
    // stores neither, and a late-bound token still binds.
    const profiling::CauseToken late = timing.lateCause();
    const profiling::RecordId k =
        timing.recordKernel(Name("k"), 0, 0, 10, Name("s0"), {0, 3});
    late.bind(k);
    EXPECT_EQ(k, static_cast<profiling::RecordId>(full.recordCount()));
    EXPECT_EQ(late.id(), k);
    EXPECT_EQ(timing.recordCopy(Name("PtoP"), 0, 1, 8, 10, 11, 0, {k}),
              k + 1);
    EXPECT_EQ(timing.recordCount(), 0u);
    EXPECT_TRUE(timing.kernels().empty());

    // A clear() keeps the ids growing and zeroes the totals.
    timing.clear();
    EXPECT_EQ(timing.firstId(), k + 2);
    EXPECT_EQ(timing.copiedBytes(), 0u);
}

TEST(ProfilerTest, TimingOnlyHandsEveryRecordToTheAuditor)
{
    // The non-strict auditor warns about each violation; keep that
    // off stderr.
    const sim::WarnSink previous =
        sim::setWarnSink([](const std::string &) {});
    for (bool timing_only : {false, true}) {
        sim::Auditor auditor(/*strict=*/false);
        Profiler p(timing_only);
        p.setAuditor(&auditor);
        // One lane overlap, one thread overlap, one copy with fewer
        // wire bytes than payload bytes; two checks per record.
        p.recordKernel(Name("a"), 0, 0, 100, Name("s0"));
        p.recordKernel(Name("b"), 0, 50, 120, Name("s0"));
        p.recordApi(Name("x"), Name("w0"), 0, 10);
        p.recordApi(Name("y"), Name("w0"), 5, 20);
        p.recordCopy(Name("PtoP"), 0, 1, 8, 0, 1, 4);
        EXPECT_EQ(auditor.violationCount(), 3u) << timing_only;
        EXPECT_EQ(auditor.checksPerformed(), 10u) << timing_only;
    }
    sim::setWarnSink(previous);
}

TEST(ProfilerTest, ReportMentionsAllSections)
{
    Profiler p;
    p.recordKernel(Name("volta_scudnn_winograd"), 0, 0, 1000000);
    p.recordApi(Name("cudaStreamSynchronize"), Name("w0"), 0, 500000);
    p.recordCopy(Name("PtoP"), 0, 1, 1 << 20, 0, 1000);
    const std::string report = p.report();
    EXPECT_NE(report.find("GPU kernel summary"), std::string::npos);
    EXPECT_NE(report.find("CUDA API summary"), std::string::npos);
    EXPECT_NE(report.find("volta_scudnn_winograd"), std::string::npos);
    EXPECT_NE(report.find("cudaStreamSynchronize"), std::string::npos);
    EXPECT_NE(report.find("PtoP"), std::string::npos);
}

TEST(ProfilerTest, CsvHasHeaderAndRows)
{
    Profiler p;
    p.recordKernel(Name("k"), 2, 0, 1000);
    p.recordApi(Name("a"), Name("w1"), 0, 2000);
    const std::string csv = p.csv();
    EXPECT_NE(csv.find("kind,name,where,start_us,dur_us,bytes"),
              std::string::npos);
    EXPECT_NE(csv.find("kernel,k,gpu2"), std::string::npos);
    EXPECT_NE(csv.find("api,a,w1"), std::string::npos);
}

TEST(ProfilerTest, SummaryRowAverages)
{
    profiling::SummaryRow row;
    row.calls = 4;
    row.totalTime = sim::usToTicks(100.0);
    EXPECT_DOUBLE_EQ(row.avgUs(), 25.0);
    profiling::SummaryRow empty;
    EXPECT_DOUBLE_EQ(empty.avgUs(), 0.0);
}

} // namespace
