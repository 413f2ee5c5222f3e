/**
 * @file
 * Tests of the profiler's string interner: canonical storage, Name
 * semantics, and pointer sharing across records.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "profiling/interner.hh"
#include "profiling/profiler.hh"

namespace {

using namespace dgxsim;
using profiling::Name;

TEST(Interner, SameContentsResolveToOneString)
{
    const std::string &a = profiling::internString("conv2d_fwd");
    const std::string b = "conv2d_" + std::string("fwd");
    const std::string &c = profiling::internString(b);
    EXPECT_EQ(&a, &c);
    EXPECT_EQ(a, "conv2d_fwd");
}

TEST(Interner, DistinctContentsStayDistinct)
{
    const std::size_t before = profiling::internedStringCount();
    const std::string &a = profiling::internString("interner_test_x");
    const std::string &b = profiling::internString("interner_test_y");
    EXPECT_NE(&a, &b);
    EXPECT_GE(profiling::internedStringCount(), before + 2);
}

TEST(Interner, NameComparesByContents)
{
    const Name a("gemm");
    const Name b(std::string_view("gemm"));
    const Name c("gemm2");
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
    EXPECT_EQ(a, "gemm");
    EXPECT_NE(a.find("mm"), std::string::npos);
    EXPECT_EQ(Name("nccl.ring0").rfind("nccl.", 0), 0u);
    EXPECT_TRUE(Name().empty());
    EXPECT_EQ(a.size(), 4u);
}

TEST(Interner, RecordsShareCanonicalStorage)
{
    profiling::Profiler prof;
    prof.recordKernel(Name("interned_kernel"), 0, 0, 10, Name("stream0"));
    prof.recordKernel(Name(std::string("interned_kernel")), 1, 10, 20,
                      Name("stream0"));
    ASSERT_EQ(prof.kernels().size(), 2u);
    const std::string &first = prof.kernels()[0].name;
    const std::string &second = prof.kernels()[1].name;
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(&prof.kernels()[0].stream.str(),
              &prof.kernels()[1].stream.str());
    EXPECT_EQ(first, "interned_kernel");
}

/** The digest's reference fold: byte-serial FNV-1a over s plus NUL. */
std::uint64_t
byteSerialFold(std::uint64_t h, const std::string &s)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kPrime;
    }
    return h * kPrime; // the NUL separator
}

TEST(Interner, FoldMatchesByteSerialFnv)
{
    std::string high;
    for (int b = 0x80; b <= 0xff; ++b)
        high.push_back(static_cast<char>(b));
    const std::vector<std::string> texts = {
        "", "a", "cudaLaunchKernel", "nccl.red.h3", "PtoP 0>1",
        std::string(1, '\xff'), high, std::string(300, 'x')};
    std::mt19937_64 rng(20181001);
    for (const std::string &text : texts) {
        const Name name(text);
        // Every low byte, then random states with random high bits.
        for (std::uint64_t low = 0; low < 256; ++low) {
            const std::uint64_t h = (rng() & ~0xffull) | low;
            ASSERT_EQ(name.fold(h), byteSerialFold(h, text)) << text;
        }
        for (int i = 0; i < 100000; ++i) {
            const std::uint64_t h = rng();
            ASSERT_EQ(name.fold(h), byteSerialFold(h, text)) << text;
        }
    }
    EXPECT_EQ(Name().fold(12345), Name("").fold(12345));
}

TEST(Interner, DefaultNameIsTheInternedEmptyString)
{
    EXPECT_TRUE(Name() == Name(""));
    EXPECT_EQ(&Name().str(), &profiling::internString(""));
}

} // namespace
