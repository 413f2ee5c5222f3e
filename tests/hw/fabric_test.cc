/**
 * @file
 * Tests for the Fabric transfer engine: timing of direct, staged and
 * host-routed copies, bandwidth sharing, and ablation hooks.
 */

#include <gtest/gtest.h>

#include "hw/fabric.hh"
#include "sim/event_queue.hh"

namespace {

using namespace dgxsim;
using namespace dgxsim::hw;
using dgxsim::sim::operator""_GiB;

class FabricTest : public ::testing::Test
{
  protected:
    sim::EventQueue queue;
    Fabric fabric{queue, Topology::dgx1Volta()};

    /** Run a transfer to completion; @return elapsed seconds. */
    double
    timedTransfer(NodeId src, NodeId dst, sim::Bytes bytes)
    {
        const sim::Tick start = queue.now();
        sim::Tick end = 0;
        fabric.transfer(src, dst, bytes, [&] { end = queue.now(); });
        queue.run();
        return sim::ticksToSec(end - start);
    }
};

TEST_F(FabricTest, LoopbackIsInstant)
{
    EXPECT_DOUBLE_EQ(timedTransfer(2, 2, 1_GiB), 0.0);
}

TEST_F(FabricTest, DirectSingleLaneTransferMatchesBandwidth)
{
    // 250 MB over a single 25 GB/s NVLink: 10 ms + ~1 us latency.
    const double secs = timedTransfer(0, 3, 250u * 1000 * 1000);
    EXPECT_NEAR(secs, 0.010, 0.0001);
}

TEST_F(FabricTest, DualLaneLinkIsTwiceAsFast)
{
    const double single = timedTransfer(0, 3, 250u * 1000 * 1000);
    const double dual = timedTransfer(0, 1, 250u * 1000 * 1000);
    EXPECT_NEAR(single / dual, 2.0, 0.01);
}

TEST_F(FabricTest, StagedTransferTakesRoughlyTwiceDirect)
{
    // 0->7 has no direct link; store-and-forward over two hops.
    const sim::Bytes payload = 250u * 1000 * 1000;
    const double direct = timedTransfer(0, 6, payload);
    const double staged = timedTransfer(0, 7, payload);
    EXPECT_GT(staged, 1.5 * direct);
    EXPECT_LT(staged, 2.5 * direct);
}

TEST_F(FabricTest, TransferRecordsCaptureRouteKind)
{
    EXPECT_EQ(fabric.topology().findRoute(0, 7).kind,
              RouteKind::StagedNvlink);
    int completions = 0;
    fabric.transfer(0, 7, 1000, [&] { ++completions; });
    queue.run();
    EXPECT_EQ(completions, 1);
}

TEST_F(FabricTest, ConcurrentTransfersOnOneLinkShareBandwidth)
{
    const sim::Bytes payload = 100u * 1000 * 1000;
    sim::Tick end1 = 0, end2 = 0;
    fabric.transfer(0, 3, payload, [&] { end1 = queue.now(); });
    fabric.transfer(0, 3, payload, [&] { end2 = queue.now(); });
    queue.run();
    // Two flows on one 25 GB/s direction: each ~8 ms instead of 4.
    EXPECT_NEAR(sim::ticksToSec(end1), 0.008, 0.0005);
    EXPECT_NEAR(sim::ticksToSec(end2), 0.008, 0.0005);
}

TEST_F(FabricTest, OppositeDirectionsDoNotContend)
{
    const sim::Bytes payload = 100u * 1000 * 1000;
    sim::Tick end1 = 0, end2 = 0;
    fabric.transfer(0, 3, payload, [&] { end1 = queue.now(); });
    fabric.transfer(3, 0, payload, [&] { end2 = queue.now(); });
    queue.run();
    EXPECT_NEAR(sim::ticksToSec(end1), 0.004, 0.0005);
    EXPECT_NEAR(sim::ticksToSec(end2), 0.004, 0.0005);
}

TEST_F(FabricTest, HostRouteIsSlowerThanNvlink)
{
    sim::EventQueue q2;
    Fabric pcie(q2, Topology::pcieOnly8Gpu());
    const sim::Bytes payload = 100u * 1000 * 1000;
    sim::Tick end = 0;
    pcie.transfer(0, 1, payload, [&] { end = q2.now(); });
    q2.run();
    const double pcie_secs = sim::ticksToSec(end);
    const double nvlink_secs = timedTransfer(0, 1, payload);
    EXPECT_GT(pcie_secs, 3.0 * nvlink_secs);
}

TEST_F(FabricTest, ScaleNvlinkBandwidthSpeedsUpLiveFabric)
{
    const sim::Bytes payload = 250u * 1000 * 1000;
    const double before = timedTransfer(0, 3, payload);
    fabric.scaleNvlinkBandwidth(4.0);
    const double after = timedTransfer(0, 3, payload);
    EXPECT_NEAR(before / after, 4.0, 0.05);
}

TEST_F(FabricTest, ScalingALinkMidTransferKeepsTheTransfersRoute)
{
    const Topology &topo = fabric.topology();
    const std::size_t l17 = *topo.directLink(1, 7, LinkType::NVLink);
    const std::size_t l67 = *topo.directLink(6, 7, LinkType::NVLink);
    ASSERT_EQ(topo.findRoute(0, 7).legs.at(0).to, 1);
    const sim::Bytes payload = 1000 * 1000;
    int landed = 0;
    fabric.transfer(0, 7, payload, [&] { ++landed; });
    // The first leg (0->1) is in flight; the relay now goes via GPU6.
    fabric.scaleLinkBandwidth(l17, 0.5);
    EXPECT_EQ(topo.findRoute(0, 7).legs.at(0).to, 6);
    queue.run();
    EXPECT_EQ(landed, 1);
    EXPECT_NEAR(fabric.linkBytesMoved(l17), payload, 4.0);
    EXPECT_EQ(fabric.linkBytesMoved(l67), 0.0);

    fabric.transfer(0, 7, payload, [&] { ++landed; });
    queue.run();
    EXPECT_EQ(landed, 2);
    EXPECT_NEAR(fabric.linkBytesMoved(l17), payload, 4.0);
    EXPECT_NEAR(fabric.linkBytesMoved(l67), payload, 4.0);
}

TEST_F(FabricTest, LinkBytesMovedAccumulates)
{
    auto link = fabric.topology().directLink(0, 3, LinkType::NVLink);
    ASSERT_TRUE(link.has_value());
    timedTransfer(0, 3, 1000);
    timedTransfer(3, 0, 500);
    EXPECT_NEAR(fabric.linkBytesMoved(*link), 1500.0, 2.0);
}

TEST_F(FabricTest, ZeroByteTransferCompletesAfterLatency)
{
    sim::Tick end = 0;
    fabric.transfer(0, 3, 0, [&] { end = queue.now(); });
    queue.run();
    EXPECT_GT(end, 0u);
    EXPECT_LE(sim::ticksToUs(end), 5.0);
}

} // namespace
