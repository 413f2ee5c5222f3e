/**
 * @file
 * Node/link topology of a multi-GPU system, with the DGX-1V hybrid
 * cube-mesh factory (paper Fig. 2) and a graph-derived route policy
 * generalizing what MXNet's data movement does on such machines:
 *
 *   1. a direct NVLink if one exists;
 *   2. otherwise an NVLink path through switch nodes only (NVSwitch
 *      crossbars, e.g. the DGX-2);
 *   3. otherwise a staged transfer relayed through intermediate GPUs
 *      (MXNet's multi-stage transfer, e.g. GPU0->GPU1->GPU7), found
 *      by a widest-shortest BFS over the NVLink graph;
 *   4. otherwise a device-to-host copy over PCIe, optionally across
 *      the QPI socket interconnect, and a host-to-device copy.
 *
 * On the DGX-1 every staged pair is exactly two hops away, so the BFS
 * reduces bit-exactly to the historical "best common neighbor" scan.
 */

#ifndef DGXSIM_HW_TOPOLOGY_HH
#define DGXSIM_HW_TOPOLOGY_HH

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/gpu_spec.hh"
#include "sim/types.hh"

namespace dgxsim::hw {

/** Index of a node (GPU or CPU) in the topology. */
using NodeId = int;

/** What a node is. */
enum class NodeKind { Gpu, Cpu, Switch, Nic };

/** Physical interconnect classes in a DGX-1 node or across a pod. */
enum class LinkType { NVLink, PCIe, QPI, IB };

/** @return a printable name for a link type. */
const char *linkTypeName(LinkType type);

/** One bidirectional link between two nodes. */
struct Link
{
    NodeId a = -1;
    NodeId b = -1;
    LinkType type = LinkType::NVLink;
    /** Number of aggregated bricks (NVLink lanes). */
    int lanes = 1;
    /** Bandwidth per lane per direction, GB/s. */
    double gbpsPerLane = 0;
    /** One-way latency, microseconds. */
    double latencyUs = 0;
    /**
     * Unscaled per-lane bandwidth, GB/s. Recorded by addLink (0 means
     * "take gbpsPerLane") so ablation scaling is always relative to
     * the base instead of compounding across calls.
     */
    double baseGbpsPerLane = 0;

    /** @return total bandwidth per direction in GB/s. */
    double gbpsPerDir() const { return lanes * gbpsPerLane; }

    /** @return the other endpoint. */
    NodeId
    peer(NodeId n) const
    {
        return n == a ? b : a;
    }

    /** @return true if this link touches node @p n. */
    bool touches(NodeId n) const { return n == a || n == b; }
};

/** How a route reaches its destination. */
enum class RouteKind
{
    Loopback,     ///< src == dst; no data movement
    DirectNvlink, ///< one NVLink hop
    SwitchNvlink, ///< NVLink hops through switch (NVSwitch) nodes
    StagedNvlink, ///< NVLink hops staged through relay GPUs
    HostPcie,     ///< DtoH + (QPI) + HtoD through the CPUs
    InterNode,    ///< host path crossing NIC + switch IB links
};

/** @return a printable name for a route kind. */
const char *routeKindName(RouteKind kind);

/** One hop of a route. */
struct RouteLeg
{
    NodeId from = -1;
    NodeId to = -1;
    std::size_t linkIndex = 0; ///< index into Topology::links()
};

/** A resolved source-to-destination path. */
struct Route
{
    RouteKind kind = RouteKind::Loopback;
    std::vector<RouteLeg> legs;

    /** @return the number of store-and-forward hops. */
    int hops() const { return static_cast<int>(legs.size()); }
};

/**
 * A multi-GPU system topology: a set of GPU and CPU nodes joined by
 * typed links. Immutable once built (bandwidth scaling for ablations
 * excepted).
 *
 * findRoute() resolves each ordered node pair once and keeps the
 * Route in a table that it fills from a const method, so a Topology
 * must be routed from one thread at a time. That holds by ownership:
 * each core::Machine gives its Fabric a topology of its own and runs
 * it from one thread, and campaign workers each build their own
 * Machine. Copies carry the table along; it stays valid for them
 * because it holds only node ids and link indices.
 */
class Topology
{
  public:
    /** Add a node. @return its id. */
    NodeId addNode(NodeKind kind, std::string label);

    /** Add a bidirectional link. @return its index. */
    std::size_t addLink(Link link);

    /** @return node count. */
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    /** @return the number of GPU nodes. */
    int numGpus() const { return numGpus_; }

    /** @return a node's kind. */
    NodeKind nodeKind(NodeId id) const;

    /** @return a node's debug label. */
    const std::string &nodeLabel(NodeId id) const;

    /** @return all links. */
    const std::vector<Link> &links() const { return links_; }

    /**
     * Scale every NVLink's per-lane bandwidth (ablation hook). The
     * factor applies to the base bandwidth recorded at addLink time,
     * so repeated calls replace the previous scale instead of
     * compounding with it.
     */
    void scaleNvlinkBandwidth(double factor);

    /**
     * Scale one link's per-lane bandwidth (degraded-link studies).
     * Like scaleNvlinkBandwidth, relative to the base bandwidth.
     */
    void scaleLinkBandwidth(std::size_t link_index, double factor);

    /**
     * Scale every inter-node IB link's per-lane bandwidth (the
     * cluster analogue of scaleNvlinkBandwidth; `ib_bw` what-ifs).
     * Relative to the base bandwidth recorded at addLink time.
     */
    void scaleIbBandwidth(double factor);

    /**
     * @return the index of the direct link of type @p type between two
     * nodes, if any.
     */
    std::optional<std::size_t> directLink(NodeId a, NodeId b,
                                          LinkType type) const;

    /** @return indices of all links touching @p node of @p type. */
    std::vector<std::size_t> linksOf(NodeId node, LinkType type) const;

    /** @return the CPU @p gpu hangs off by PCIe; nullopt for none. */
    std::optional<NodeId> hostOf(NodeId gpu) const;

    /**
     * @return true if the two nodes can talk over NVLink without any
     * GPU relay or host staging: either a direct NVLink or a path
     * whose intermediate nodes are all switches. This is the
     * reachability predicate ring search uses.
     */
    bool nvlinkConnected(NodeId a, NodeId b) const;

    /**
     * Resolve the route policy described in the file comment. The
     * first lookup of a pair runs the policy and stores its Route;
     * later lookups return the stored one. addNode, addLink and the
     * scale* calls empty the table, since each can change a route.
     * Fatal for an id outside [0, numNodes()), src == dst included.
     * @param src Source node.
     * @param dst Destination node.
     * @return the route; the reference stays valid until the next
     *     call to a mutator.
     */
    const Route &findRoute(NodeId src, NodeId dst) const;

    /**
     * @return the bottleneck bandwidth (GB/s per direction) along the
     * route between two GPUs; infinity for loopback.
     */
    double routeBandwidthGbps(NodeId src, NodeId dst) const;

    /**
     * Ids of the GPUs a training job uses, in MXNet device order.
     * @param count Number of GPUs requested.
     */
    std::vector<NodeId> gpuSet(int count) const;

    /**
     * Build the Volta DGX-1 of the paper: 8 V100s in a hybrid
     * cube-mesh (two quads with doubled links to the quad leader,
     * single cross links), 2 Xeons, PCIe trees and QPI.
     */
    static Topology dgx1Volta();

    /**
     * Build an 8-GPU PCIe-only box (no NVLink) with the same GPUs.
     * Used by interconnect ablations.
     */
    static Topology pcieOnly8Gpu();

    /**
     * The DGX-1 edge set with the same aggregate NVLink bandwidth
     * spread uniformly over all 16 links (no doubled pairs). Used by
     * the asymmetry ablation: the paper blames the asymmetric
     * interconnect for idle GPUs during the weight broadcast.
     */
    static Topology dgx1VoltaUniform();

  private:
    struct Node
    {
        NodeKind kind;
        std::string label;
    };

    /** Run the route policy for one pair (findRoute's table miss). */
    Route resolveRoute(NodeId src, NodeId dst) const;

    std::vector<Node> nodes_;
    std::vector<Link> links_;
    int numGpus_ = 0;
    /**
     * Routes resolved so far, keyed by src * numNodes() + dst: a map
     * over the routed pairs, since a run routes few of them (84 of
     * the 7,921 pairs of an 8-node DGX-1V cluster in a ring
     * all-reduce). Its nodes never move, so a returned reference
     * survives later inserts.
     */
    mutable std::unordered_map<std::size_t, Route> routes_;
};

} // namespace dgxsim::hw

#endif // DGXSIM_HW_TOPOLOGY_HH
