/**
 * @file
 * Hierarchical (two-level) collective tests over a simulated cluster:
 * factory dispatch, completion on ring and tree schedules, the exact
 * ring all-reduce IB payload, flow conservation across the NIC/switch
 * fabric, and a fully audited run.
 */

#include <gtest/gtest.h>

#include <memory>

#include "comm/factory.hh"
#include "comm/hierarchical_communicator.hh"
#include "hw/cluster.hh"
#include "hw/platform.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using comm::CommConfig;
using comm::CommContext;
using comm::CommMethod;
using comm::NetAlgo;

class HierarchicalTest : public ::testing::Test
{
  protected:
    hw::Platform plat = hw::makePlatform("dgx1v");
    sim::EventQueue queue;
    std::unique_ptr<hw::Cluster> cluster;
    std::unique_ptr<hw::Fabric> fabric;
    profiling::Profiler prof;

    /** Build an N-node cluster fabric and a context over
     * @p gpus_per_node GPUs on each node (node-major). */
    CommContext
    ctx(int nodes, int gpus_per_node)
    {
        cluster = std::make_unique<hw::Cluster>(
            hw::makeCluster(plat, nodes, "ib100"));
        fabric = std::make_unique<hw::Fabric>(
            queue, cluster->topology, plat.hostSpec);
        CommContext c;
        c.queue = &queue;
        c.fabric = fabric.get();
        c.gpus = cluster->gpuSet(gpus_per_node);
        c.nodes = nodes;
        c.gpuSpec = hw::GpuSpec::voltaV100();
        c.profiler = &prof;
        return c;
    }

    static CommConfig
    cfg(NetAlgo algo = NetAlgo::Ring)
    {
        CommConfig c;
        c.netAlgo = algo;
        return c;
    }

    /** Sum of payload bytes moved over every IB link so far. */
    double
    ibLinkBytes() const
    {
        double total = 0;
        const auto &links = fabric->topology().links();
        for (std::size_t i = 0; i < links.size(); ++i) {
            if (links[i].type == hw::LinkType::IB)
                total += fabric->linkBytesMoved(i);
        }
        return total;
    }
};

TEST_F(HierarchicalTest, FactoryDispatchesOnClusterNodes)
{
    auto hier =
        comm::makeCommunicator(CommMethod::NCCL, ctx(2, 2), cfg());
    EXPECT_EQ(hier->name(), "hier-nccl-ring");
    auto flat =
        comm::makeCommunicator(CommMethod::NCCL, ctx(1, 2), cfg());
    EXPECT_EQ(flat->name(), "nccl");
    auto tree = comm::makeCommunicator(
        CommMethod::P2P, ctx(2, 2), cfg(NetAlgo::Tree));
    EXPECT_EQ(tree->name(), "hier-p2p-tree");
}

TEST_F(HierarchicalTest, NodeMajorSlicesAndRoots)
{
    comm::HierarchicalCommunicator hier(CommMethod::NCCL, ctx(4, 2),
                                        cfg());
    EXPECT_EQ(hier.gpusPerNode(), 2);
    ASSERT_EQ(hier.roots().size(), 4u);
    const std::vector<hw::NodeId> gpus = cluster->gpuSet(2);
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(hier.roots()[k], gpus[k * 2]) << "node " << k;
}

TEST_F(HierarchicalTest, CollectivesCompleteOnRing)
{
    comm::HierarchicalCommunicator hier(CommMethod::NCCL, ctx(2, 4),
                                        cfg());
    int done = 0;
    hier.reduce(16u << 20, [&] { ++done; });
    hier.broadcast(16u << 20, [&] { ++done; });
    hier.allReduce(16u << 20, [&] { ++done; });
    queue.run();
    EXPECT_EQ(done, 3);
    EXPECT_TRUE(hier.idle());
    EXPECT_GT(prof.copiedBytes("IB"), 0u);
}

TEST_F(HierarchicalTest, TreeHandlesNonPowerOfTwoNodes)
{
    comm::HierarchicalCommunicator hier(
        CommMethod::NCCL, ctx(3, 2), cfg(NetAlgo::Tree));
    int done = 0;
    hier.reduce(8u << 20, [&] { ++done; });
    hier.allReduce(8u << 20, [&] { ++done; });
    queue.run();
    EXPECT_EQ(done, 2);
}

TEST_F(HierarchicalTest, RingAllReduceMovesTheExactIbPayload)
{
    // Ring all-reduce over N node roots: reduce-scatter and
    // all-gather each run N-1 rounds of N concurrent shard
    // transfers, so total IB payload is 2*(N-1)*bytes when the
    // payload divides evenly.
    const int nodes = 4;
    const sim::Bytes bytes = 4u << 20;
    comm::HierarchicalCommunicator hier(CommMethod::NCCL,
                                        ctx(nodes, 1), cfg());
    hier.allReduce(bytes, nullptr);
    queue.run();
    EXPECT_EQ(prof.copiedBytes("IB"),
              sim::Bytes{2 * (nodes - 1) * bytes});
}

TEST_F(HierarchicalTest, FlowIsConservedAcrossTheSwitch)
{
    // Every inter-node copy is staged NIC -> switch -> NIC, crossing
    // exactly two IB links with the full payload on each, so the
    // bytes observed on the IB links must equal twice the recorded
    // IB copy payload. An over- or under-delivery on either hop
    // breaks the equality.
    const int nodes = 4;
    comm::HierarchicalCommunicator hier(CommMethod::NCCL,
                                        ctx(nodes, 2), cfg());
    hier.allReduce(12u << 20, nullptr);
    hier.reduce(3u << 20, nullptr);
    queue.run();
    const auto ib_payload =
        static_cast<double>(prof.copiedBytes("IB"));
    ASSERT_GT(ib_payload, 0.0);
    EXPECT_NEAR(ibLinkBytes(), 2.0 * ib_payload, 1.0);
}

TEST_F(HierarchicalTest, AuditedAllReduceHoldsEveryInvariant)
{
    CommContext c = ctx(2, 4);
    sim::Auditor *audit = fabric->enableAudit();
    comm::HierarchicalCommunicator hier(CommMethod::NCCL, c, cfg());
    hier.allReduce(16u << 20, nullptr);
    queue.run();
    audit->checkQuiescent(queue, fabric->flows());
    EXPECT_GT(audit->checksPerformed(), 0u);
    EXPECT_EQ(audit->violationCount(), 0u);
}

TEST_F(HierarchicalTest, RingAndTreeScheduleDifferently)
{
    // Four nodes are enough for the schedules to diverge: the ring
    // pipelines 2*(N-1) shard rounds while the tree moves the full
    // payload log2(N) times in each direction.
    const sim::Bytes bytes = 64u << 20;
    sim::Tick ring_end = 0, tree_end = 0;
    {
        comm::HierarchicalCommunicator hier(CommMethod::NCCL,
                                            ctx(4, 1), cfg());
        hier.allReduce(bytes, [&] { ring_end = queue.now(); });
        queue.run();
    }
    const sim::Bytes ring_ib = prof.copiedBytes("IB");
    {
        sim::EventQueue q2;
        hw::Cluster cl = hw::makeCluster(plat, 4, "ib100");
        hw::Fabric f2(q2, cl.topology, plat.hostSpec);
        profiling::Profiler p2;
        CommContext c;
        c.queue = &q2;
        c.fabric = &f2;
        c.gpus = cl.gpuSet(1);
        c.nodes = 4;
        c.gpuSpec = hw::GpuSpec::voltaV100();
        c.profiler = &p2;
        comm::HierarchicalCommunicator hier(CommMethod::NCCL, c,
                                            cfg(NetAlgo::Tree));
        hier.allReduce(bytes, [&] { tree_end = q2.now(); });
        q2.run();
        // Both schedules move 2*(N-1)*bytes in total at N=4; only
        // the round structure (and so the completion time) differs.
        EXPECT_EQ(p2.copiedBytes("IB"), ring_ib);
    }
    ASSERT_GT(ring_end, 0u);
    ASSERT_GT(tree_end, 0u);
    EXPECT_NE(ring_end, tree_end);
}

TEST_F(HierarchicalTest, BadShapesAreFatal)
{
    // GPU count not divisible by the node count.
    CommContext c = ctx(2, 2);
    c.gpus.pop_back();
    EXPECT_THROW(
        (comm::HierarchicalCommunicator{CommMethod::NCCL, c, cfg()}),
        sim::FatalError);
}

} // namespace
