#include "hw/topology.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"

namespace dgxsim::hw {

const char *
linkTypeName(LinkType type)
{
    switch (type) {
      case LinkType::NVLink: return "NVLink";
      case LinkType::PCIe: return "PCIe";
      case LinkType::QPI: return "QPI";
      case LinkType::IB: return "IB";
    }
    return "?";
}

const char *
routeKindName(RouteKind kind)
{
    switch (kind) {
      case RouteKind::Loopback: return "loopback";
      case RouteKind::DirectNvlink: return "direct-nvlink";
      case RouteKind::SwitchNvlink: return "switch-nvlink";
      case RouteKind::StagedNvlink: return "staged-nvlink";
      case RouteKind::HostPcie: return "host-pcie";
      case RouteKind::InterNode: return "inter-node";
    }
    return "?";
}

NodeId
Topology::addNode(NodeKind kind, std::string label)
{
    routes_.clear();
    nodes_.push_back(Node{kind, std::move(label)});
    if (kind == NodeKind::Gpu)
        ++numGpus_;
    return static_cast<NodeId>(nodes_.size() - 1);
}

std::size_t
Topology::addLink(Link link)
{
    if (link.a < 0 || link.a >= numNodes() || link.b < 0 ||
        link.b >= numNodes() || link.a == link.b) {
        sim::fatal("bad link endpoints ", link.a, ", ", link.b);
    }
    if (link.baseGbpsPerLane == 0)
        link.baseGbpsPerLane = link.gbpsPerLane;
    routes_.clear();
    links_.push_back(link);
    return links_.size() - 1;
}

NodeKind
Topology::nodeKind(NodeId id) const
{
    if (id < 0 || id >= numNodes())
        sim::fatal("unknown node ", id);
    return nodes_[id].kind;
}

const std::string &
Topology::nodeLabel(NodeId id) const
{
    if (id < 0 || id >= numNodes())
        sim::fatal("unknown node ", id);
    return nodes_[id].label;
}

void
Topology::scaleNvlinkBandwidth(double factor)
{
    if (factor <= 0)
        sim::fatal("bandwidth scale factor must be positive: ", factor);
    routes_.clear();
    for (Link &link : links_) {
        if (link.type == LinkType::NVLink)
            link.gbpsPerLane = link.baseGbpsPerLane * factor;
    }
}

void
Topology::scaleLinkBandwidth(std::size_t link_index, double factor)
{
    if (link_index >= links_.size())
        sim::fatal("unknown link ", link_index);
    if (factor <= 0)
        sim::fatal("bandwidth scale factor must be positive: ", factor);
    routes_.clear();
    links_[link_index].gbpsPerLane =
        links_[link_index].baseGbpsPerLane * factor;
}

void
Topology::scaleIbBandwidth(double factor)
{
    if (factor <= 0)
        sim::fatal("bandwidth scale factor must be positive: ", factor);
    routes_.clear();
    for (Link &link : links_) {
        if (link.type == LinkType::IB)
            link.gbpsPerLane = link.baseGbpsPerLane * factor;
    }
}

std::optional<std::size_t>
Topology::directLink(NodeId a, NodeId b, LinkType type) const
{
    for (std::size_t i = 0; i < links_.size(); ++i) {
        const Link &link = links_[i];
        if (link.type == type && link.touches(a) && link.touches(b))
            return i;
    }
    return std::nullopt;
}

std::vector<std::size_t>
Topology::linksOf(NodeId node, LinkType type) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < links_.size(); ++i) {
        if (links_[i].type == type && links_[i].touches(node))
            out.push_back(i);
    }
    return out;
}

namespace {

/** The CPU a GPU hangs off, via its PCIe link. */
NodeId
hostOf(const Topology &topo, NodeId gpu)
{
    for (std::size_t i : topo.linksOf(gpu, LinkType::PCIe)) {
        const Link &link = topo.links()[i];
        NodeId peer = link.peer(gpu);
        if (topo.nodeKind(peer) == NodeKind::Cpu)
            return peer;
    }
    sim::fatal("GPU ", gpu, " has no PCIe uplink to a CPU");
}

/**
 * Widest-shortest NVLink path from @p src to @p dst whose interior
 * nodes all satisfy @p relay_ok. Deterministic policy: minimize hop
 * count first, then maximize the bottleneck bandwidth, breaking ties
 * toward the smallest relay id at every layer (which reproduces the
 * historical DGX-1 "best common neighbor" choice for two-hop pairs)
 * and then the smallest link index. Paths of fewer than two hops are
 * the caller's business (loopback/direct run first); returns nullopt
 * for those and for unreachable pairs.
 */
template <typename RelayOk>
std::optional<Route>
nvlinkPath(const Topology &topo, NodeId src, NodeId dst,
           RelayOk relay_ok, RouteKind kind)
{
    const int n = topo.numNodes();
    std::vector<std::vector<std::pair<NodeId, std::size_t>>> adj(n);
    for (std::size_t i = 0; i < topo.links().size(); ++i) {
        const Link &link = topo.links()[i];
        if (link.type != LinkType::NVLink)
            continue;
        adj[link.a].push_back({link.b, i});
        adj[link.b].push_back({link.a, i});
    }

    // BFS layering; only relay-eligible nodes (and dst) are entered.
    std::vector<int> dist(n, -1);
    dist[src] = 0;
    std::vector<NodeId> frontier{src};
    while (!frontier.empty() && dist[dst] < 0) {
        std::vector<NodeId> next;
        for (NodeId u : frontier) {
            for (const auto &[v, li] : adj[u]) {
                if (dist[v] >= 0 || (v != dst && !relay_ok(v)))
                    continue;
                dist[v] = dist[u] + 1;
                next.push_back(v);
            }
        }
        frontier = std::move(next);
    }
    if (dist[dst] < 2)
        return std::nullopt;

    // Widest-path DP across the BFS layers.
    std::vector<double> widest(n, -1.0);
    std::vector<NodeId> pred(n, -1);
    std::vector<std::size_t> pred_link(n, 0);
    widest[src] = std::numeric_limits<double>::infinity();
    for (int d = 1; d <= dist[dst]; ++d) {
        for (NodeId v = 0; v < n; ++v) {
            if (dist[v] != d)
                continue;
            for (const auto &[u, li] : adj[v]) {
                if (dist[u] != d - 1 || widest[u] < 0)
                    continue;
                const double bw = std::min(
                    widest[u], topo.links()[li].gbpsPerDir());
                if (bw > widest[v] ||
                    (bw == widest[v] && u < pred[v])) {
                    widest[v] = bw;
                    pred[v] = u;
                    pred_link[v] = li;
                }
            }
        }
    }
    if (widest[dst] < 0)
        return std::nullopt;

    Route route;
    route.kind = kind;
    for (NodeId v = dst; v != src; v = pred[v])
        route.legs.push_back(RouteLeg{pred[v], v, pred_link[v]});
    std::reverse(route.legs.begin(), route.legs.end());
    return route;
}

/**
 * Widest-shortest path across the host-side network (PCIe/QPI/IB
 * links whose endpoints are not GPUs) from one CPU to another.
 * Deterministic like nvlinkPath: minimize hop count, then maximize
 * bottleneck bandwidth, breaking ties toward the smallest relay id
 * and then the smallest link index. Used for inter-node routes where
 * the CPUs have no direct QPI: the path runs CPU -> NIC -> (IB
 * switch ->) NIC -> CPU.
 */
std::optional<Route>
hostNetworkPath(const Topology &topo, NodeId src, NodeId dst)
{
    const int n = topo.numNodes();
    std::vector<std::vector<std::pair<NodeId, std::size_t>>> adj(n);
    for (std::size_t i = 0; i < topo.links().size(); ++i) {
        const Link &link = topo.links()[i];
        if (link.type == LinkType::NVLink ||
            topo.nodeKind(link.a) == NodeKind::Gpu ||
            topo.nodeKind(link.b) == NodeKind::Gpu) {
            continue;
        }
        adj[link.a].push_back({link.b, i});
        adj[link.b].push_back({link.a, i});
    }

    std::vector<int> dist(n, -1);
    dist[src] = 0;
    std::vector<NodeId> frontier{src};
    while (!frontier.empty() && dist[dst] < 0) {
        std::vector<NodeId> next;
        for (NodeId u : frontier) {
            for (const auto &[v, li] : adj[u]) {
                if (dist[v] >= 0)
                    continue;
                dist[v] = dist[u] + 1;
                next.push_back(v);
            }
        }
        frontier = std::move(next);
    }
    if (dist[dst] < 0)
        return std::nullopt;

    std::vector<double> widest(n, -1.0);
    std::vector<NodeId> pred(n, -1);
    std::vector<std::size_t> pred_link(n, 0);
    widest[src] = std::numeric_limits<double>::infinity();
    for (int d = 1; d <= dist[dst]; ++d) {
        for (NodeId v = 0; v < n; ++v) {
            if (dist[v] != d)
                continue;
            for (const auto &[u, li] : adj[v]) {
                if (dist[u] != d - 1 || widest[u] < 0)
                    continue;
                const double bw = std::min(
                    widest[u], topo.links()[li].gbpsPerDir());
                if (bw > widest[v] ||
                    (bw == widest[v] && u < pred[v])) {
                    widest[v] = bw;
                    pred[v] = u;
                    pred_link[v] = li;
                }
            }
        }
    }
    if (widest[dst] < 0)
        return std::nullopt;

    Route route;
    route.kind = RouteKind::InterNode;
    for (NodeId v = dst; v != src; v = pred[v])
        route.legs.push_back(RouteLeg{pred[v], v, pred_link[v]});
    std::reverse(route.legs.begin(), route.legs.end());
    return route;
}

} // namespace

bool
Topology::nvlinkConnected(NodeId a, NodeId b) const
{
    if (a == b)
        return true;
    if (directLink(a, b, LinkType::NVLink))
        return true;
    return nvlinkPath(*this, a, b,
                      [this](NodeId n) {
                          return nodeKind(n) == NodeKind::Switch;
                      },
                      RouteKind::SwitchNvlink)
        .has_value();
}

const Route &
Topology::findRoute(NodeId src, NodeId dst) const
{
    if (src < 0 || src >= numNodes() || dst < 0 || dst >= numNodes())
        sim::fatal("cannot route unknown nodes ", src, " -> ", dst);
    const std::size_t key =
        static_cast<std::size_t>(src) * nodes_.size() +
        static_cast<std::size_t>(dst);
    auto it = routes_.find(key);
    if (it == routes_.end())
        it = routes_.emplace(key, resolveRoute(src, dst)).first;
    return it->second;
}

Route
Topology::resolveRoute(NodeId src, NodeId dst) const
{
    Route route;
    if (src == dst) {
        route.kind = RouteKind::Loopback;
        return route;
    }

    // CPU endpoints always travel the PCIe/QPI path.
    const bool src_gpu = nodeKind(src) == NodeKind::Gpu;
    const bool dst_gpu = nodeKind(dst) == NodeKind::Gpu;

    if (src_gpu && dst_gpu) {
        if (auto link = directLink(src, dst, LinkType::NVLink)) {
            route.kind = RouteKind::DirectNvlink;
            route.legs.push_back(RouteLeg{src, dst, *link});
            return route;
        }
        // NVSwitch crossbar traversal: an NVLink path whose interior
        // nodes are all switches (no GPU relay, no host staging).
        if (auto via_switch = nvlinkPath(
                *this, src, dst,
                [this](NodeId n) {
                    return nodeKind(n) == NodeKind::Switch;
                },
                RouteKind::SwitchNvlink)) {
            return *via_switch;
        }
        // Staged transfer relayed through intermediate GPUs, e.g.
        // MXNet's two-hop GPU0->GPU1->GPU7 on the DGX-1.
        if (auto staged = nvlinkPath(
                *this, src, dst,
                [this](NodeId n) {
                    return nodeKind(n) == NodeKind::Gpu;
                },
                RouteKind::StagedNvlink)) {
            return *staged;
        }
    }

    // Host path: src -> hostOf(src) [-> QPI ->] hostOf(dst) -> dst.
    route.kind = RouteKind::HostPcie;
    NodeId src_host = src_gpu ? hostOf(*this, src) : src;
    NodeId dst_host = dst_gpu ? hostOf(*this, dst) : dst;
    if (src_gpu) {
        auto pcie = directLink(src, src_host, LinkType::PCIe);
        if (!pcie)
            sim::fatal("no PCIe link between GPU ", src, " and its host");
        route.legs.push_back(RouteLeg{src, src_host, *pcie});
    }
    if (src_host != dst_host) {
        auto qpi = directLink(src_host, dst_host, LinkType::QPI);
        if (qpi) {
            route.legs.push_back(RouteLeg{src_host, dst_host, *qpi});
        } else if (auto inter =
                       hostNetworkPath(*this, src_host, dst_host)) {
            // CPUs on different cluster nodes: relay through the
            // host network (PCIe to the NIC, IB to the peer NIC).
            route.kind = RouteKind::InterNode;
            for (const RouteLeg &leg : inter->legs)
                route.legs.push_back(leg);
        } else {
            sim::fatal("no QPI link between CPUs ", src_host, " and ",
                       dst_host);
        }
    }
    if (dst_gpu) {
        auto pcie = directLink(dst_host, dst, LinkType::PCIe);
        if (!pcie)
            sim::fatal("no PCIe link between GPU ", dst, " and its host");
        route.legs.push_back(RouteLeg{dst_host, dst, *pcie});
    }
    return route;
}

double
Topology::routeBandwidthGbps(NodeId src, NodeId dst) const
{
    const Route &route = findRoute(src, dst);
    if (route.kind == RouteKind::Loopback)
        return std::numeric_limits<double>::infinity();
    double bw = std::numeric_limits<double>::infinity();
    for (const RouteLeg &leg : route.legs)
        bw = std::min(bw, links_[leg.linkIndex].gbpsPerDir());
    return bw;
}

std::vector<NodeId>
Topology::gpuSet(int count) const
{
    if (count < 1 || count > numGpus_)
        sim::fatal("requested ", count, " GPUs; topology has ", numGpus_);
    std::vector<NodeId> out;
    for (NodeId id = 0; id < numNodes() && (int)out.size() < count; ++id) {
        if (nodeKind(id) == NodeKind::Gpu)
            out.push_back(id);
    }
    return out;
}

Topology
Topology::dgx1Volta()
{
    Topology topo;
    for (int g = 0; g < 8; ++g)
        topo.addNode(NodeKind::Gpu, "GPU" + std::to_string(g));
    NodeId cpu0 = topo.addNode(NodeKind::Cpu, "CPU0");
    NodeId cpu1 = topo.addNode(NodeKind::Cpu, "CPU1");

    constexpr double nvlink_gbps = 25.0;
    constexpr double nvlink_lat_us = 1.0;
    auto nvlink = [&](NodeId a, NodeId b, int lanes) {
        topo.addLink(Link{a, b, LinkType::NVLink, lanes, nvlink_gbps,
                          nvlink_lat_us});
    };

    // Quad {0,1,2,3}: fully connected, doubled links on 0-1 and 0-2
    // (the paper: BW of GPU0-GPU1 and GPU0-GPU2 is twice GPU0-GPU3).
    nvlink(0, 1, 2);
    nvlink(0, 2, 2);
    nvlink(0, 3, 1);
    nvlink(1, 2, 1);
    nvlink(1, 3, 1);
    nvlink(2, 3, 1);
    // Quad {4,5,6,7}: mirror image.
    nvlink(4, 5, 2);
    nvlink(4, 6, 2);
    nvlink(4, 7, 1);
    nvlink(5, 6, 1);
    nvlink(5, 7, 1);
    nvlink(6, 7, 1);
    // Cross links of the hybrid cube-mesh (GPU0-GPU6 and GPU1-GPU7
    // per the paper's examples; GPU3-GPU4 deliberately absent).
    nvlink(0, 6, 1);
    nvlink(1, 7, 1);
    nvlink(2, 4, 1);
    nvlink(3, 5, 1);

    const HostSpec host = HostSpec::xeonE52698v4();
    auto pcie = [&](NodeId cpu, NodeId gpu) {
        topo.addLink(Link{cpu, gpu, LinkType::PCIe, 1, host.pcieGBps, 2.0});
    };
    for (NodeId g = 0; g < 4; ++g)
        pcie(cpu0, g);
    for (NodeId g = 4; g < 8; ++g)
        pcie(cpu1, g);
    topo.addLink(Link{cpu0, cpu1, LinkType::QPI, 1, host.qpiGBps, 0.5});
    return topo;
}

Topology
Topology::dgx1VoltaUniform()
{
    Topology topo = dgx1Volta();
    // 20 NVLink lanes x 25 GB/s spread over the 16 edges.
    int lanes = 0;
    int edges = 0;
    for (const Link &link : topo.links_) {
        if (link.type == LinkType::NVLink) {
            lanes += link.lanes;
            ++edges;
        }
    }
    const double uniform_gbps =
        25.0 * static_cast<double>(lanes) / static_cast<double>(edges);
    for (Link &link : topo.links_) {
        if (link.type == LinkType::NVLink) {
            link.lanes = 1;
            link.gbpsPerLane = uniform_gbps;
            link.baseGbpsPerLane = uniform_gbps;
        }
    }
    return topo;
}

Topology
Topology::pcieOnly8Gpu()
{
    Topology topo;
    for (int g = 0; g < 8; ++g)
        topo.addNode(NodeKind::Gpu, "GPU" + std::to_string(g));
    NodeId cpu0 = topo.addNode(NodeKind::Cpu, "CPU0");
    NodeId cpu1 = topo.addNode(NodeKind::Cpu, "CPU1");
    const HostSpec host = HostSpec::xeonE52698v4();
    for (NodeId g = 0; g < 4; ++g)
        topo.addLink(Link{cpu0, g, LinkType::PCIe, 1, host.pcieGBps, 2.0});
    for (NodeId g = 4; g < 8; ++g)
        topo.addLink(Link{cpu1, g, LinkType::PCIe, 1, host.pcieGBps, 2.0});
    topo.addLink(Link{cpu0, cpu1, LinkType::QPI, 1, host.qpiGBps, 0.5});
    return topo;
}

} // namespace dgxsim::hw
