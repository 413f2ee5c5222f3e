/**
 * @file
 * The Fabric binds a Topology to the fluid FlowNetwork: every link
 * becomes two unidirectional channels, and transfers become flows
 * routed by Topology::findRoute() with store-and-forward at relays
 * (MXNet's staged transfers are two back-to-back cudaMemcpys). The
 * Fabric owns its topology, so each (src, dst) pair is resolved once
 * per fabric and only this fabric's thread fills the route table.
 */

#ifndef DGXSIM_HW_FABRIC_HH
#define DGXSIM_HW_FABRIC_HH

#include <functional>
#include <memory>
#include <vector>

#include "hw/topology.hh"
#include "sim/auditor.hh"
#include "sim/event_queue.hh"
#include "sim/flow_network.hh"

namespace dgxsim::hw {

/**
 * Transfer engine over a Topology. All DMA copies (P2P memcpy, NCCL
 * ring steps, host staging) go through here so that concurrent
 * transfers share link bandwidth max-min fairly.
 */
class Fabric
{
  public:
    using Callback = std::function<void()>;

    Fabric(sim::EventQueue &queue, Topology topo,
           HostSpec host = HostSpec::xeonE52698v4());
    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** @return the underlying topology. */
    const Topology &topology() const { return topo_; }

    /** @return the flow network (exposed for tests/stats). */
    sim::FlowNetwork &flows() { return flows_; }

    /**
     * Move @p bytes from @p src to @p dst along the routing policy,
     * store-and-forwarding at relays. @p done fires when the last leg
     * lands. Loopback completes after zero time. The transfer copies
     * its route when it starts, so a scale* call that empties the
     * route table does not reroute legs already in flight.
     */
    void transfer(NodeId src, NodeId dst, sim::Bytes bytes, Callback done);

    /** Scale NVLink bandwidth (topology + live channels). Ablations. */
    void scaleNvlinkBandwidth(double factor);

    /** Scale inter-node IB bandwidth (topology + live channels). */
    void scaleIbBandwidth(double factor);

    /** Degrade (or boost) one link's bandwidth on the live fabric. */
    void scaleLinkBandwidth(std::size_t link_index, double factor);

    /** @return total payload bytes moved over a given link so far. */
    double linkBytesMoved(std::size_t link_index) const;

    /**
     * Attach an invariant auditor: the flow network and transfer
     * bookkeeping report into it. Passing nullptr detaches.
     */
    void setAuditor(sim::Auditor *auditor);

    /** @return the attached auditor, or nullptr. */
    sim::Auditor *auditor() const { return auditor_; }

    /**
     * Attach an auditor owned by the fabric if none is attached yet.
     * Called automatically from the constructor when DGXSIM_AUDIT is
     * set, so forced audit runs cover every fabric in the test and
     * bench suite without per-callsite changes.
     * @return the active auditor.
     */
    sim::Auditor *enableAudit();

  private:
    /** Channel carrying traffic from @p from across link @p link. */
    sim::FlowNetwork::ChannelId channelFor(std::size_t link,
                                           NodeId from) const;

    /**
     * Issue route legs sequentially starting at @p leg; the transfer
     * began at tick @p start.
     */
    void runLegs(Route route, std::size_t leg, sim::Bytes bytes,
                 sim::Tick start, Callback done);

    sim::EventQueue &queue_;
    Topology topo_;
    HostSpec host_;
    sim::FlowNetwork flows_;
    /** Per link: channel a->b then b->a. */
    std::vector<std::array<sim::FlowNetwork::ChannelId, 2>> chans_;
    sim::Auditor *auditor_ = nullptr;
    /** Auditor created by enableAudit() when none was provided. */
    std::unique_ptr<sim::Auditor> ownedAuditor_;
};

} // namespace dgxsim::hw

#endif // DGXSIM_HW_FABRIC_HH
