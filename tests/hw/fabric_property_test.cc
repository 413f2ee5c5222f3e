/**
 * @file
 * Property tests over the DGX-1 fabric: bandwidth symmetry, route
 * sanity for every pair, and behavior under heavy concurrent load.
 */

#include <gtest/gtest.h>

#include "hw/fabric.hh"
#include "sim/event_queue.hh"

namespace {

using namespace dgxsim;
using namespace dgxsim::hw;

double
transferSecs(Fabric &fabric, sim::EventQueue &q, NodeId a, NodeId b,
             sim::Bytes bytes)
{
    const sim::Tick start = q.now();
    sim::Tick end = 0;
    fabric.transfer(a, b, bytes, [&] { end = q.now(); });
    q.run();
    return sim::ticksToSec(end - start);
}

/** Sweep every ordered GPU pair. */
class PairSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PairSweep, TransferTimeIsSymmetric)
{
    const auto [a, b] = GetParam();
    if (a == b)
        return;
    sim::EventQueue q1, q2;
    Fabric f1(q1, Topology::dgx1Volta());
    Fabric f2(q2, Topology::dgx1Volta());
    const sim::Bytes bytes = 64u << 20;
    const double fwd = transferSecs(f1, q1, a, b, bytes);
    const double rev = transferSecs(f2, q2, b, a, bytes);
    EXPECT_NEAR(fwd, rev, 1e-6) << a << "<->" << b;
}

TEST_P(PairSweep, BandwidthMatchesRouteBottleneckWithinStaging)
{
    const auto [a, b] = GetParam();
    if (a == b)
        return;
    sim::EventQueue q;
    Fabric fabric(q, Topology::dgx1Volta());
    const Topology &topo = fabric.topology();
    const sim::Bytes bytes = 128u << 20;
    const double secs = transferSecs(fabric, q, a, b, bytes);
    // Store-and-forward: the legs run back to back, so the expected
    // time is the sum of per-leg transfer times.
    double expected = 0;
    for (const RouteLeg &leg : topo.findRoute(a, b).legs) {
        expected += static_cast<double>(bytes) /
                    (topo.links()[leg.linkIndex].gbpsPerDir() * 1e9);
    }
    EXPECT_NEAR(secs, expected, 0.02 * expected) << a << ">" << b;
}

INSTANTIATE_TEST_SUITE_P(
    AllGpuPairs, PairSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(0, 3, 4, 7)));

TEST(FabricLoadTest, AllToAllCompletesAndSharesFairly)
{
    sim::EventQueue q;
    Fabric fabric(q, Topology::dgx1Volta());
    int done = 0;
    const sim::Bytes bytes = 8u << 20;
    for (NodeId a = 0; a < 8; ++a) {
        for (NodeId b = 0; b < 8; ++b) {
            if (a != b)
                fabric.transfer(a, b, bytes, [&] { ++done; });
        }
    }
    q.run();
    EXPECT_EQ(done, 56);
    // Aggregate goodput: 56 x 8 MiB over the elapsed window should
    // exceed what a single link could carry alone.
    EXPECT_LT(sim::ticksToSec(q.now()), 0.05);
}

TEST(FabricLoadTest, RepeatedTransfersAccumulateLinkCounters)
{
    sim::EventQueue q;
    Fabric fabric(q, Topology::dgx1Volta());
    auto link = fabric.topology().directLink(0, 1, LinkType::NVLink);
    ASSERT_TRUE(link.has_value());
    int done = 0;
    for (int i = 0; i < 10; ++i)
        fabric.transfer(0, 1, 1 << 20, [&] { ++done; });
    q.run();
    EXPECT_NEAR(fabric.linkBytesMoved(*link), 10.0 * (1 << 20), 16.0);
    EXPECT_EQ(done, 10);
}

TEST(FabricLoadTest, StagedTransferChargesBothLegs)
{
    sim::EventQueue q;
    Fabric fabric(q, Topology::dgx1Volta());
    const Route route = fabric.topology().findRoute(3, 4);
    ASSERT_EQ(route.kind, RouteKind::StagedNvlink);
    fabric.transfer(3, 4, 1 << 20, nullptr);
    q.run();
    for (const RouteLeg &leg : route.legs) {
        EXPECT_NEAR(fabric.linkBytesMoved(leg.linkIndex),
                    static_cast<double>(1 << 20), 4.0);
    }
}

TEST(FabricLoadTest, OppositeRingDirectionsAreIndependent)
{
    // Clockwise and counter-clockwise ring traffic share no channel.
    sim::EventQueue q;
    Fabric fabric(q, Topology::dgx1Volta());
    sim::Tick cw = 0, ccw = 0;
    const sim::Bytes bytes = 50u * 1000 * 1000;
    fabric.transfer(0, 1, bytes, [&] { cw = q.now(); });
    fabric.transfer(1, 0, bytes, [&] { ccw = q.now(); });
    q.run();
    EXPECT_NEAR(static_cast<double>(cw), static_cast<double>(ccw),
                1e6);
    // Each direction at full 50 GB/s: ~1 ms, not ~2 ms.
    EXPECT_LT(sim::ticksToMs(cw), 1.2);
}

} // namespace
