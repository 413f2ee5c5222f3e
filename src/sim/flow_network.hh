/**
 * @file
 * Fluid-model network of shared channels with max-min fair bandwidth
 * sharing.
 *
 * A Flow is a bulk transfer of a known byte count across an ordered
 * set of channels (links). All channels along a flow's path carry the
 * flow concurrently (cut-through DMA pipelining). When flows start or
 * finish, the network recomputes a max-min fair rate allocation and
 * reschedules every affected completion event. This reproduces how
 * concurrent DMA transfers share NVLink/PCIe bandwidth on a real
 * multi-GPU system without simulating individual packets.
 *
 * The allocation is incremental: the network tracks which flows use
 * each channel and which channels a flow start/finish/capacity change
 * dirtied, and re-solves only the connected component of the
 * flow-channel bipartite graph reachable from the dirty channels.
 * Max-min allocation within a component is arithmetically independent
 * of every other component (no shared channel, so no shared residual
 * capacity), and the restricted solver visits channels in ascending
 * index and flows in ascending id — the same orders the from-scratch
 * solver used — so the resulting rates are bit-identical to a full
 * re-solve. Flows outside the component keep their previous rates,
 * which a full solve would have recomputed to the same doubles.
 */

#ifndef DGXSIM_SIM_FLOW_NETWORK_HH
#define DGXSIM_SIM_FLOW_NETWORK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dgxsim::sim {

class Auditor;

/**
 * Shared-bandwidth transfer fabric. Channels are unidirectional
 * capacity pools; callers model a full-duplex link as two channels.
 */
class FlowNetwork
{
  public:
    using ChannelId = std::size_t;
    using FlowId = std::uint64_t;
    static constexpr FlowId invalidFlow = ~FlowId(0);

    explicit FlowNetwork(EventQueue &queue) : queue_(queue) {}
    FlowNetwork(const FlowNetwork &) = delete;
    FlowNetwork &operator=(const FlowNetwork &) = delete;

    /**
     * Create a channel.
     * @param bytes_per_tick Capacity (see gbpsToBytesPerTick()).
     * @param name Debug label.
     */
    ChannelId addChannel(double bytes_per_tick, std::string name = "");

    /** Change a channel's capacity (used by bandwidth ablations). */
    void setChannelCapacity(ChannelId id, double bytes_per_tick);

    /** @return a channel's capacity in bytes per tick. */
    double channelCapacity(ChannelId id) const;

    /** @return the number of channels. */
    std::size_t numChannels() const { return channels_.size(); }

    /**
     * Start a transfer.
     * @param bytes Payload size; zero-byte flows complete after just
     *              the latency.
     * @param path Channels the flow occupies concurrently.
     * @param on_complete Callback invoked when the last byte lands.
     * @param latency Fixed head latency before bytes start moving.
     * @return an id usable with flowActive()/currentRate().
     */
    FlowId startFlow(Bytes bytes, std::vector<ChannelId> path,
                     std::function<void()> on_complete, Tick latency = 0);

    /** @return true while the flow has not completed. */
    bool flowActive(FlowId id) const;

    /** @return the number of in-flight flows (excluding latency stage). */
    std::size_t activeFlows() const { return active_.size(); }

    /**
     * @return the flow's current allocated rate in bytes per tick, or
     * 0 if the flow is not actively transferring.
     */
    double currentRate(FlowId id) const;

    /** @return total bytes delivered through a channel so far. */
    double bytesDelivered(ChannelId id) const;

    /**
     * @return the busy time integral of a channel: sum over time of
     * (allocated rate / capacity), in ticks. Used for utilization
     * statistics.
     */
    double busyTicks(ChannelId id) const;

    /**
     * Attach (or detach, with nullptr) an invariant auditor. While
     * attached, byte conservation is verified at every flow
     * completion and rate/busy-time invariants at every settle and
     * reallocation point.
     */
    void setAuditor(Auditor *auditor) { auditor_ = auditor; }

    /** @return the attached auditor, or nullptr. */
    Auditor *auditor() const { return auditor_; }

  private:
    struct Channel
    {
        double capacity = 0; ///< bytes per tick
        std::string name;
        double delivered = 0; ///< bytes
        double busyTicks = 0;
    };

    struct Flow
    {
        double remaining = 0; ///< bytes
        double requested = 0; ///< bytes asked for at startFlow()
        std::vector<ChannelId> path;
        std::function<void()> onComplete;
        double rate = 0; ///< bytes per tick
        Tick lastUpdate = 0;
        EventHandle completion;
        bool done = false;
        /** True once the flow entered the allocation membership. */
        bool joined = false;
        /** Epoch stamp used by the incremental solver's closure walk. */
        std::uint64_t mark = 0;
    };

    /** Charge elapsed progress to all active flows, then reallocate. */
    void recompute();

    /** Advance flow progress from lastUpdate to now. */
    void settleProgress();

    /**
     * Max-min fair allocation over the active flows. Incremental:
     * only the dirty-channel component is re-solved (see the file
     * comment); a call with nothing dirty is a no-op.
     */
    void allocateRates();

    /** Flag a channel whose flow set or capacity changed. */
    void markDirty(ChannelId id);

    /** Enter @p id into the allocation (per-channel membership). */
    void joinAllocation(FlowId id, const Flow &flow);

    /** Remove @p id from the allocation (per-channel membership). */
    void leaveAllocation(FlowId id, const Flow &flow);

    /** (Re)schedule every active flow's completion event. */
    void rescheduleCompletions();

    void activate(FlowId id);
    void complete(FlowId id);

    /** Audit rate sums vs. capacity after an allocation pass. */
    void auditRates();

    /** Audit per-channel busy-time integrals after a settle pass. */
    void auditBusyTicks();

    EventQueue &queue_;
    std::vector<Channel> channels_;
    std::unordered_map<FlowId, Flow> active_;
    FlowId nextFlow_ = 0;
    Auditor *auditor_ = nullptr;

    /**
     * Per-channel ids of flows currently in the allocation (activated,
     * not done). One entry per path element, so a path listing a
     * channel twice counts as two users — matching the from-scratch
     * solver's user accounting.
     */
    std::vector<std::vector<FlowId>> channelFlows_;
    /**
     * Latency-stage flows not yet in the allocation. A flow whose
     * head latency expires at tick T joins at the first allocation
     * pass with now >= T — which may be a recompute triggered by an
     * unrelated flow earlier in tick T than the activation event,
     * exactly as the from-scratch solver's lastUpdate <= now
     * membership test behaved.
     */
    std::vector<FlowId> latencyPending_;
    /** Channels whose flow set or capacity changed since last solve. */
    std::vector<ChannelId> dirty_;
    std::vector<std::uint8_t> channelDirty_;
    /** Closure-walk epoch stamps (channels; flows stamp Flow::mark). */
    std::vector<std::uint64_t> channelMark_;
    std::uint64_t solveEpoch_ = 0;
    /** Scratch for the restricted solve; only affected slots touched. */
    std::vector<double> capScratch_;
    std::vector<int> userScratch_;
    std::vector<ChannelId> affectedChannels_;
    std::vector<std::pair<FlowId, Flow *>> affectedFlows_;
    /** Per affected flow: rate fixed by the max-min pass. */
    std::vector<bool> frozenScratch_;
};

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_FLOW_NETWORK_HH
