#include "hw/fabric.hh"

#include <array>
#include <memory>

#include "sim/logging.hh"

namespace dgxsim::hw {

Fabric::Fabric(sim::EventQueue &queue, Topology topo, HostSpec host)
    : queue_(queue), topo_(std::move(topo)), host_(std::move(host)),
      flows_(queue)
{
    for (std::size_t i = 0; i < topo_.links().size(); ++i) {
        const Link &link = topo_.links()[i];
        const double cap = sim::gbpsToBytesPerTick(link.gbpsPerDir());
        const std::string base =
            topo_.nodeLabel(link.a) + "-" + topo_.nodeLabel(link.b);
        chans_.push_back({flows_.addChannel(cap, base + ">"),
                          flows_.addChannel(cap, base + "<")});
    }
    if (sim::Auditor::envEnabled())
        enableAudit();
}

void
Fabric::setAuditor(sim::Auditor *auditor)
{
    auditor_ = auditor;
    flows_.setAuditor(auditor);
}

sim::Auditor *
Fabric::enableAudit()
{
    if (!auditor_) {
        ownedAuditor_ = std::make_unique<sim::Auditor>();
        setAuditor(ownedAuditor_.get());
    }
    return auditor_;
}

sim::FlowNetwork::ChannelId
Fabric::channelFor(std::size_t link, NodeId from) const
{
    if (link >= chans_.size())
        sim::panic("bad link index ", link);
    return topo_.links()[link].a == from ? chans_[link][0]
                                         : chans_[link][1];
}

void
Fabric::scaleNvlinkBandwidth(double factor)
{
    topo_.scaleNvlinkBandwidth(factor);
    for (std::size_t i = 0; i < topo_.links().size(); ++i) {
        const Link &link = topo_.links()[i];
        if (link.type != LinkType::NVLink)
            continue;
        const double cap = sim::gbpsToBytesPerTick(link.gbpsPerDir());
        flows_.setChannelCapacity(chans_[i][0], cap);
        flows_.setChannelCapacity(chans_[i][1], cap);
    }
}

void
Fabric::scaleIbBandwidth(double factor)
{
    topo_.scaleIbBandwidth(factor);
    for (std::size_t i = 0; i < topo_.links().size(); ++i) {
        const Link &link = topo_.links()[i];
        if (link.type != LinkType::IB)
            continue;
        const double cap = sim::gbpsToBytesPerTick(link.gbpsPerDir());
        flows_.setChannelCapacity(chans_[i][0], cap);
        flows_.setChannelCapacity(chans_[i][1], cap);
    }
}

void
Fabric::scaleLinkBandwidth(std::size_t link_index, double factor)
{
    topo_.scaleLinkBandwidth(link_index, factor);
    const Link &link = topo_.links()[link_index];
    const double cap = sim::gbpsToBytesPerTick(link.gbpsPerDir());
    flows_.setChannelCapacity(chans_[link_index][0], cap);
    flows_.setChannelCapacity(chans_[link_index][1], cap);
}

double
Fabric::linkBytesMoved(std::size_t link_index) const
{
    if (link_index >= chans_.size())
        sim::fatal("unknown link ", link_index);
    return flows_.bytesDelivered(chans_[link_index][0]) +
           flows_.bytesDelivered(chans_[link_index][1]);
}

void
Fabric::runLeg(std::uint32_t slot)
{
    Transfer &t = transfers_[slot];
    const Route &route = t.route;
    const std::size_t leg = t.leg++;
    if (leg >= route.legs.size()) {
        if (auditor_) {
            auditor_->expect(queue_.now() >= t.start, queue_.now(),
                             "transfer ",
                             topo_.nodeLabel(route.legs.front().from),
                             "->", topo_.nodeLabel(route.legs.back().to),
                             " ends before it starts");
        }
        const Callback done = std::move(t.done);
        transfers_.release(slot);
        if (done)
            done();
        return;
    }
    const RouteLeg &hop = route.legs[leg];
    const Link &link = topo_.links()[hop.linkIndex];
    sim::Tick latency = sim::usToTicks(link.latencyUs);
    // Host-staged copies pay a software staging cost at each relay
    // (pinned-buffer management in the driver). Inter-node routes pay
    // it only at the host relays; the NIC and switch hops forward in
    // hardware (RDMA) with just their link latency.
    if (route.kind == RouteKind::HostPcie && leg > 0) {
        latency += sim::usToTicks(host_.stagingOverheadUs);
    } else if (route.kind == RouteKind::InterNode && leg > 0 &&
               topo_.nodeKind(hop.from) == NodeKind::Cpu) {
        latency += sim::usToTicks(host_.stagingOverheadUs);
    }
    // A braced one-channel path: no vector is built per leg.
    flows_.startFlow(t.bytes, {channelFor(hop.linkIndex, hop.from)},
                     [this, slot] { runLeg(slot); }, latency);
}

void
Fabric::transfer(NodeId src, NodeId dst, sim::Bytes bytes, Callback done)
{
    const Route &route = topo_.findRoute(src, dst);
    if (route.kind == RouteKind::Loopback) {
        if (done)
            done();
        return;
    }
    const std::uint32_t slot = transfers_.acquire();
    Transfer &t = transfers_[slot];
    t.route = route;
    t.leg = 0;
    t.bytes = bytes;
    t.start = queue_.now();
    t.done = std::move(done);
    runLeg(slot);
}

} // namespace dgxsim::hw
