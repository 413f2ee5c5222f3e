/**
 * @file
 * Tests for the DGX-1 topology and the route policy. The expectations
 * encode the structural facts the paper states about Fig. 2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "hw/cluster.hh"
#include "hw/platform.hh"
#include "hw/topology.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim::hw;

/** Expect two routes to agree on kind and on every leg. */
void
expectSameRoute(const Route &got, const Route &want, const std::string &what)
{
    EXPECT_EQ(got.kind, want.kind) << what;
    ASSERT_EQ(got.hops(), want.hops()) << what;
    for (std::size_t i = 0; i < got.legs.size(); ++i) {
        EXPECT_EQ(got.legs[i].from, want.legs[i].from) << what;
        EXPECT_EQ(got.legs[i].to, want.legs[i].to) << what;
        EXPECT_EQ(got.legs[i].linkIndex, want.legs[i].linkIndex) << what;
    }
}

class Dgx1TopologyTest : public ::testing::Test
{
  protected:
    Topology topo = Topology::dgx1Volta();
};

TEST_F(Dgx1TopologyTest, HasEightGpusAndTwoCpus)
{
    EXPECT_EQ(topo.numGpus(), 8);
    EXPECT_EQ(topo.numNodes(), 10);
    for (NodeId g = 0; g < 8; ++g)
        EXPECT_EQ(topo.nodeKind(g), NodeKind::Gpu);
    EXPECT_EQ(topo.nodeKind(8), NodeKind::Cpu);
    EXPECT_EQ(topo.nodeKind(9), NodeKind::Cpu);
}

TEST_F(Dgx1TopologyTest, PaperStatedDirectConnections)
{
    // "GPU0 has direct NVLink connections with GPU1, GPU2, GPU3, and
    // GPU6."
    EXPECT_TRUE(topo.directLink(0, 1, LinkType::NVLink).has_value());
    EXPECT_TRUE(topo.directLink(0, 2, LinkType::NVLink).has_value());
    EXPECT_TRUE(topo.directLink(0, 3, LinkType::NVLink).has_value());
    EXPECT_TRUE(topo.directLink(0, 6, LinkType::NVLink).has_value());
    EXPECT_FALSE(topo.directLink(0, 4, LinkType::NVLink).has_value());
    EXPECT_FALSE(topo.directLink(0, 5, LinkType::NVLink).has_value());
    EXPECT_FALSE(topo.directLink(0, 7, LinkType::NVLink).has_value());
    // "GPU1 has a direct NVLink connection with GPU7."
    EXPECT_TRUE(topo.directLink(1, 7, LinkType::NVLink).has_value());
    // "e.g. between GPU3 and GPU4" there is no direct connection.
    EXPECT_FALSE(topo.directLink(3, 4, LinkType::NVLink).has_value());
}

TEST_F(Dgx1TopologyTest, DoubledLinksMatchPaperBandwidthClaims)
{
    // "The BW ... between GPU0 and GPU1, and GPU0 and GPU2, is twice
    // the BW rate between GPU0 and GPU3."
    const double bw01 = topo.routeBandwidthGbps(0, 1);
    const double bw02 = topo.routeBandwidthGbps(0, 2);
    const double bw03 = topo.routeBandwidthGbps(0, 3);
    EXPECT_DOUBLE_EQ(bw01, 2 * bw03);
    EXPECT_DOUBLE_EQ(bw02, 2 * bw03);
    EXPECT_DOUBLE_EQ(bw03, 25.0);
}

TEST_F(Dgx1TopologyTest, EveryGpuHasAtMostSixNvlinkBricks)
{
    for (NodeId g = 0; g < 8; ++g) {
        int bricks = 0;
        for (std::size_t i : topo.linksOf(g, LinkType::NVLink))
            bricks += topo.links()[i].lanes;
        EXPECT_LE(bricks, 6) << "GPU" << g;
        EXPECT_GE(bricks, 4) << "GPU" << g;
    }
}

TEST_F(Dgx1TopologyTest, NvlinkTopologyIsSymmetricQuadMirror)
{
    // Quad B mirrors quad A: link (a,b) exists iff (a+4,b+4) does.
    for (NodeId a = 0; a < 4; ++a) {
        for (NodeId b = a + 1; b < 4; ++b) {
            auto la = topo.directLink(a, b, LinkType::NVLink);
            auto lb = topo.directLink(a + 4, b + 4, LinkType::NVLink);
            ASSERT_EQ(la.has_value(), lb.has_value());
            if (la) {
                EXPECT_EQ(topo.links()[*la].lanes,
                          topo.links()[*lb].lanes);
            }
        }
    }
}

TEST_F(Dgx1TopologyTest, EveryGpuHasAPcieUplink)
{
    for (NodeId g = 0; g < 8; ++g) {
        bool has_cpu_link = false;
        for (std::size_t i : topo.linksOf(g, LinkType::PCIe)) {
            if (topo.nodeKind(topo.links()[i].peer(g)) == NodeKind::Cpu)
                has_cpu_link = true;
        }
        EXPECT_TRUE(has_cpu_link) << "GPU" << g;
    }
}

TEST_F(Dgx1TopologyTest, LoopbackRoute)
{
    Route r = topo.findRoute(3, 3);
    EXPECT_EQ(r.kind, RouteKind::Loopback);
    EXPECT_EQ(r.hops(), 0);
}

TEST_F(Dgx1TopologyTest, DirectRouteUsesOneLeg)
{
    Route r = topo.findRoute(0, 2);
    EXPECT_EQ(r.kind, RouteKind::DirectNvlink);
    ASSERT_EQ(r.hops(), 1);
    EXPECT_EQ(r.legs[0].from, 0);
    EXPECT_EQ(r.legs[0].to, 2);
}

TEST_F(Dgx1TopologyTest, NonNeighborsUseStagedNvlinkWithinTwoHops)
{
    // Paper: "A maximum of one intermediate node (two hops) is
    // required to connect any pair of GPUs."
    for (NodeId a = 0; a < 8; ++a) {
        for (NodeId b = 0; b < 8; ++b) {
            if (a == b)
                continue;
            Route r = topo.findRoute(a, b);
            EXPECT_NE(r.kind, RouteKind::HostPcie)
                << "GPU" << a << "->GPU" << b;
            EXPECT_LE(r.hops(), 2);
        }
    }
}

TEST_F(Dgx1TopologyTest, StagedRouteLegsAreConnected)
{
    Route r = topo.findRoute(0, 7);
    ASSERT_EQ(r.kind, RouteKind::StagedNvlink);
    ASSERT_EQ(r.hops(), 2);
    EXPECT_EQ(r.legs[0].from, 0);
    EXPECT_EQ(r.legs[0].to, r.legs[1].from);
    EXPECT_EQ(r.legs[1].to, 7);
    // The relay must be a GPU neighbor of both ends.
    const NodeId relay = r.legs[0].to;
    EXPECT_TRUE(topo.directLink(0, relay, LinkType::NVLink).has_value());
    EXPECT_TRUE(topo.directLink(relay, 7, LinkType::NVLink).has_value());
}

TEST_F(Dgx1TopologyTest, StagedRoutePrefersWidestRelay)
{
    // 0->7 candidate relays: 1 (2+1 lanes -> min 25), 2? (no 2-7),
    // 3 (1,? 3-7 absent), 6 (1+1 -> 25). Bandwidth ties resolve to
    // the lowest relay id, so expect GPU1 or a 50-wide path if any.
    Route r = topo.findRoute(0, 7);
    const NodeId relay = r.legs[0].to;
    double best = 0;
    for (NodeId cand = 0; cand < 8; ++cand) {
        auto l1 = topo.directLink(0, cand, LinkType::NVLink);
        auto l2 = topo.directLink(cand, 7, LinkType::NVLink);
        if (!l1 || !l2)
            continue;
        best = std::max(best, std::min(topo.links()[*l1].gbpsPerDir(),
                                       topo.links()[*l2].gbpsPerDir()));
    }
    auto l1 = topo.directLink(0, relay, LinkType::NVLink);
    auto l2 = topo.directLink(relay, 7, LinkType::NVLink);
    EXPECT_DOUBLE_EQ(std::min(topo.links()[*l1].gbpsPerDir(),
                              topo.links()[*l2].gbpsPerDir()),
                     best);
}

TEST_F(Dgx1TopologyTest, CpuToGpuGoesOverPcie)
{
    Route r = topo.findRoute(8, 0);
    EXPECT_EQ(r.kind, RouteKind::HostPcie);
    EXPECT_EQ(r.hops(), 1);
    // Cross-socket adds the QPI hop.
    Route rx = topo.findRoute(8, 5);
    EXPECT_EQ(rx.kind, RouteKind::HostPcie);
    EXPECT_EQ(rx.hops(), 2);
}

TEST_F(Dgx1TopologyTest, GpuSetReturnsFirstNGpus)
{
    auto gpus = topo.gpuSet(4);
    EXPECT_EQ(gpus, (std::vector<NodeId>{0, 1, 2, 3}));
    EXPECT_THROW(topo.gpuSet(9), dgxsim::sim::FatalError);
    EXPECT_THROW(topo.gpuSet(0), dgxsim::sim::FatalError);
}

TEST_F(Dgx1TopologyTest, ScaleNvlinkBandwidthOnlyTouchesNvlink)
{
    const double pcie_before = topo.routeBandwidthGbps(8, 0);
    topo.scaleNvlinkBandwidth(2.0);
    EXPECT_DOUBLE_EQ(topo.routeBandwidthGbps(0, 3), 50.0);
    EXPECT_DOUBLE_EQ(topo.routeBandwidthGbps(8, 0), pcie_before);
    EXPECT_THROW(topo.scaleNvlinkBandwidth(0.0),
                 dgxsim::sim::FatalError);
}

TEST(PcieOnlyTopologyTest, AllGpuPairsRouteThroughHost)
{
    Topology topo = Topology::pcieOnly8Gpu();
    Route same_socket = topo.findRoute(0, 1);
    EXPECT_EQ(same_socket.kind, RouteKind::HostPcie);
    EXPECT_EQ(same_socket.hops(), 2); // DtoH + HtoD
    Route cross = topo.findRoute(0, 7);
    EXPECT_EQ(cross.kind, RouteKind::HostPcie);
    EXPECT_EQ(cross.hops(), 3); // DtoH + QPI + HtoD
}

TEST(TopologyNamesTest, EnumNamesArePrintable)
{
    EXPECT_STREQ(linkTypeName(LinkType::NVLink), "NVLink");
    EXPECT_STREQ(linkTypeName(LinkType::PCIe), "PCIe");
    EXPECT_STREQ(linkTypeName(LinkType::QPI), "QPI");
    EXPECT_STREQ(routeKindName(RouteKind::DirectNvlink),
                 "direct-nvlink");
    EXPECT_STREQ(routeKindName(RouteKind::StagedNvlink),
                 "staged-nvlink");
}

TEST(RouteTableTest, EveryPairMatchesAFreshTopology)
{
    // Each pair is asked twice, in a shuffled order, on one topology;
    // the reference answer comes from a copy that has routed nothing.
    // Pairs the policy cannot route (a CPU to an NVSwitch, say) must
    // stay fatal.
    std::vector<std::pair<std::string, Topology>> topologies;
    for (const std::string &name : platformNames())
        topologies.emplace_back(name, makePlatform(name).topology);
    for (const std::string name : {"dgx1v", "dgx2", "pcie8"}) {
        for (int nodes : {2, 4, 8}) {
            topologies.emplace_back(
                name + " x" + std::to_string(nodes),
                makeCluster(makePlatform(name), nodes, "ib100").topology);
        }
    }
    std::mt19937 rng(2018);
    for (const auto &[name, pristine] : topologies) {
        const int n = pristine.numNodes();
        std::vector<std::optional<Route>> fresh;
        std::vector<std::pair<NodeId, NodeId>> asks;
        for (NodeId a = 0; a < n; ++a) {
            for (NodeId b = 0; b < n; ++b) {
                Topology copy = pristine;
                try {
                    fresh.push_back(copy.findRoute(a, b));
                } catch (const dgxsim::sim::FatalError &) {
                    fresh.push_back(std::nullopt);
                }
                asks.insert(asks.end(), 2, {a, b});
            }
        }
        std::shuffle(asks.begin(), asks.end(), rng);
        const Topology routed = pristine;
        for (const auto &[a, b] : asks) {
            const std::string what = name + " " + std::to_string(a) +
                                     "->" + std::to_string(b);
            const std::optional<Route> &want = fresh[a * n + b];
            if (!want) {
                EXPECT_THROW(routed.findRoute(a, b), dgxsim::sim::FatalError)
                    << what;
                continue;
            }
            expectSameRoute(routed.findRoute(a, b), *want, what);
        }
    }
}

TEST(RouteTableTest, ScalingALinkReroutesAnAlreadyRoutedPair)
{
    Topology topo = Topology::dgx1Volta();
    // 0->7 ties at 25 GB/s through GPU1 and GPU6; the tie goes to
    // the smaller relay id.
    EXPECT_EQ(topo.findRoute(0, 7).legs.at(0).to, 1);
    const std::size_t l17 = *topo.directLink(1, 7, LinkType::NVLink);
    topo.scaleLinkBandwidth(l17, 0.5);
    const Route &rerouted = topo.findRoute(0, 7);
    EXPECT_EQ(rerouted.legs.at(0).to, 6);

    Topology scaled_first = Topology::dgx1Volta();
    scaled_first.scaleLinkBandwidth(l17, 0.5);
    expectSameRoute(rerouted, scaled_first.findRoute(0, 7), "0->7");
}

TEST(RouteTableTest, AddingNodesAndLinksEmptiesTheTable)
{
    Topology topo = Topology::pcieOnly8Gpu();
    // Key 1 * 10 + 0 becomes key 0 * 11 + 10 once a node is added.
    EXPECT_EQ(topo.findRoute(1, 0).kind, RouteKind::HostPcie);
    const NodeId gpu = topo.addNode(NodeKind::Gpu, "GPU8");
    EXPECT_THROW(topo.findRoute(0, gpu), dgxsim::sim::FatalError);

    EXPECT_EQ(topo.findRoute(0, 1).kind, RouteKind::HostPcie);
    topo.addLink(Link{0, 1, LinkType::NVLink, 1, 25, 1});
    EXPECT_EQ(topo.findRoute(0, 1).kind, RouteKind::DirectNvlink);
}

TEST(RouteTableTest, OutOfRangeIdsAreFatal)
{
    const Topology topo = Topology::dgx1Volta();
    const NodeId n = topo.numNodes();
    const std::vector<std::pair<NodeId, NodeId>> bad = {
        {n, n}, {-1, -1}, {0, n}, {n, 0}, {-1, 0}, {0, -1}};
    for (const auto &[a, b] : bad) {
        EXPECT_THROW(topo.findRoute(a, b), dgxsim::sim::FatalError)
            << a << "->" << b;
    }
    EXPECT_THROW(topo.routeBandwidthGbps(n, n), dgxsim::sim::FatalError);
}

TEST(TopologyBuildTest, BadLinkEndpointsAreFatal)
{
    Topology topo;
    NodeId a = topo.addNode(NodeKind::Gpu, "GPU0");
    EXPECT_THROW(topo.addLink(Link{a, a, LinkType::NVLink, 1, 25, 1}),
                 dgxsim::sim::FatalError);
    EXPECT_THROW(topo.addLink(Link{a, 5, LinkType::NVLink, 1, 25, 1}),
                 dgxsim::sim::FatalError);
}

} // namespace
