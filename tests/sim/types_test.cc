/**
 * @file
 * Unit tests for time/byte unit conversions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/types.hh"

namespace {

using namespace dgxsim::sim;

TEST(TypesTest, TickUnitRatios)
{
    EXPECT_EQ(ticksPerNs, 1000u);
    EXPECT_EQ(ticksPerUs, 1000u * 1000u);
    EXPECT_EQ(ticksPerMs, 1000u * 1000u * 1000u);
    EXPECT_EQ(ticksPerSec, 1000ull * 1000 * 1000 * 1000);
}

TEST(TypesTest, RoundTripSeconds)
{
    EXPECT_DOUBLE_EQ(ticksToSec(secToTicks(1.5)), 1.5);
    EXPECT_DOUBLE_EQ(ticksToMs(msToTicks(2.0)), 2.0);
    EXPECT_DOUBLE_EQ(ticksToUs(usToTicks(7.0)), 7.0);
}

TEST(TypesTest, NsConversion)
{
    EXPECT_EQ(nsToTicks(1.0), 1000u);
    EXPECT_EQ(usToTicks(1.0), 1000000u);
}

TEST(TypesTest, ByteLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(16_GiB, 16ull << 30);
}

TEST(TypesTest, BandwidthConversion)
{
    // 25 GB/s == 0.025 bytes per picosecond tick.
    EXPECT_DOUBLE_EQ(gbpsToBytesPerTick(25.0), 0.025);
    EXPECT_DOUBLE_EQ(bytesPerTickToGbps(gbpsToBytesPerTick(123.0)), 123.0);
}

TEST(TypesTest, BandwidthTimesTimeGivesBytes)
{
    // 25 GB/s for 1 ms should move 25 MB.
    const double bytes = gbpsToBytesPerTick(25.0) *
                         static_cast<double>(msToTicks(1.0));
    EXPECT_NEAR(bytes, 25e6, 1.0);
}

TEST(TypesTest, CheckedTickAcceptsEveryRepresentableTick)
{
    constexpr Tick last = ~Tick(0);
    EXPECT_EQ(checkedTick(5, Tick(7), "t"), 12u);
    EXPECT_EQ(checkedTick(0, 2.9, "t"), 2u); // truncates like a cast
    EXPECT_EQ(checkedTick(10, last - 10, "t"), last);
    EXPECT_EQ(checkedTick(0, 9007199254740992.0, "t"), Tick(1) << 53);
}

TEST(TypesTest, CheckedTickRejectsTicksOutsideTheHorizon)
{
    constexpr Tick last = ~Tick(0);
    EXPECT_THROW(checkedTick(11, last - 10, "t"), FatalError);
    EXPECT_THROW(checkedTick(0, tickHorizon, "t"), FatalError);
    EXPECT_THROW(checkedTick(1, 1e30, "t"), FatalError);
    EXPECT_THROW(checkedTick(0, -1.0, "t"), FatalError);
    EXPECT_THROW(checkedTick(0, std::nan(""), "t"), FatalError);
    EXPECT_THROW(
        checkedTick(0, std::numeric_limits<double>::infinity(), "t"),
        FatalError);
    try {
        checkedTick(3, 1e20, "knob x=", 2, " stretches to");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "fatal: knob x=2 stretches to tick 3 + 1e+20 ticks, "
                     "outside the 2^64-tick horizon of simulated time "
                     "(~213 days)");
    }
}

} // namespace
