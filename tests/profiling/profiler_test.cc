/**
 * @file
 * Tests for the nvprof-like profiler: summaries, fractions, and
 * report rendering.
 */

#include <gtest/gtest.h>

#include "profiling/profiler.hh"

namespace {

using namespace dgxsim;
using profiling::Name;
using profiling::Profiler;

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
