/**
 * @file
 * Allocation guard for the record path.
 *
 * Timing gates are noisy; allocation counts are not. This binary
 * replaces the global operator new with a counting one and asserts
 * that a simulation's run() stays under 3 heap allocations per landed
 * profiler record. Labels travel interned, cause tokens are values,
 * deps share one flat array and lane closures fit std::function's
 * inline buffer, so what remains is event-queue and flow-network
 * bookkeeping plus the communicators' own closures. A regression that
 * puts a std::string, a shared_ptr or a vector back on the per-record
 * path moves these counts by whole allocations per record.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/trainer_base.hh"
#include "sim/auditor.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

/** Out of line, so no caller sees free() meet a new-expression. */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    release(p);
}

void
operator delete[](void *p) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    release(p);
}

namespace {

using namespace dgxsim;

class RecordAllocations : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RecordAllocations, FewerThanThreePerRecord)
{
    // The auditor keys lanes by std::string on every record.
    if (sim::Auditor::envEnabled())
        GTEST_SKIP() << "DGXSIM_AUDIT attaches the auditor";

    std::vector<std::string> args;
    for (std::string line = GetParam(); !line.empty();) {
        const std::size_t end = line.find(' ');
        args.push_back(line.substr(0, end));
        line = end == std::string::npos ? "" : line.substr(end + 1);
    }
    const core::TrainConfig cfg =
        core::cli::configFromArgs(core::cli::Args::parse(args));
    auto trainer = core::TrainerBase::make(cfg);

    const std::uint64_t before = allocations.load();
    const core::TrainReport report = trainer->run();
    const std::uint64_t used = allocations.load() - before;

    ASSERT_FALSE(report.oom);
    const std::size_t records = trainer->profiler().recordCount();
    ASSERT_GT(records, 0u);
    const double per_record =
        static_cast<double>(used) / static_cast<double>(records);
    std::printf("%s: %llu allocations, %zu records, %.2f per record\n",
                GetParam(), static_cast<unsigned long long>(used),
                records, per_record);
    EXPECT_LT(per_record, 3.0);
}

std::string
cellName(const ::testing::TestParamInfo<const char *> &info)
{
    static const char *const names[] = {"AlexnetG8Nccl", "Resnet50G8P2p",
                                        "LenetG4AsyncPs",
                                        "BertBaseG4NcclDgc"};
    return names[info.index];
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RecordAllocations,
    ::testing::Values(
        "--model alexnet --gpus 8 --batch 16 --method nccl",
        "--model resnet-50 --gpus 8 --batch 16 --method p2p",
        "--model lenet --gpus 4 --batch 16 --mode async_ps",
        "--model bert-base --gpus 4 --batch 16 --method nccl "
        "--compression dgc"),
    cellName);

} // namespace
