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
 * capacity), so flows outside it keep the doubles a full re-solve
 * would recompute. Inside it the visiting order does not matter
 * either: the bottleneck is the lowest-index channel of minimal share,
 * chosen by an explicit comparison, and every flow frozen in one round
 * subtracts the same share from its channels, so the residuals after
 * a round do not depend on which flow went first. The rates are
 * therefore bit-identical to a from-scratch solve over every flow.
 *
 * Flows that deliver their last bytes in the same tick retire in one
 * pass: one settle, one re-solve and one re-key of the survivors'
 * completions, then the retired flows' callbacks run in descending
 * flow id, followed by the flow whose own completion event fired.
 * That is what retiring them one at a time, each retirement's re-key
 * finding the next, would give: the callbacks unwind in that order,
 * and since no event is scheduled and no callback runs between those
 * retirements, only the last one's rates and completion order could
 * be observed.
 *
 * Starting a flow allocates nothing once the network has seen its
 * peak flow count. The path arrives as a span (or a braced list), and
 * a retired flow's map node is extracted, not erased, and reinserted
 * for a later flow with its path's capacity. libstdc++ reinserts a
 * node handle exactly where emplace would put a new node and applies
 * the same rehash policy, so active_'s iteration order, which decides
 * the order of same-tick completions, is the order fresh nodes give.
 */

#ifndef DGXSIM_SIM_FLOW_NETWORK_HH
#define DGXSIM_SIM_FLOW_NETWORK_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <unordered_map>
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
     * @param path Channels the flow occupies concurrently; copied.
     * @param on_complete Callback invoked when the last byte lands.
     * @param latency Fixed head latency before bytes start moving.
     * @return an id usable with flowActive()/currentRate().
     */
    FlowId startFlow(Bytes bytes, std::span<const ChannelId> path,
                     std::function<void()> on_complete, Tick latency = 0);

    /** startFlow() on a braced path such as `{a, b}`. */
    FlowId
    startFlow(Bytes bytes, std::initializer_list<ChannelId> path,
              std::function<void()> on_complete, Tick latency = 0)
    {
        return startFlow(bytes,
                         std::span<const ChannelId>(path.begin(),
                                                    path.size()),
                         std::move(on_complete), latency);
    }

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

    /** startFlow() assigns every field, a recycled node's too. */
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
        /** True once the current max-min pass fixed the flow's rate. */
        bool frozen = false;
        /** Epoch stamp used by the incremental solver's closure walk. */
        std::uint64_t mark = 0;
    };

    /** Node-based, so a Flow's address survives rehashing. */
    using FlowMap = std::unordered_map<FlowId, Flow>;

    /**
     * Settle, re-solve and re-key, retiring every flow that has
     * delivered its bytes; see resolve().
     */
    void recompute();

    /**
     * Advance flow progress from lastUpdate to now, and collect every
     * flow that has delivered its bytes into finished_.
     */
    void settleProgress();

    /**
     * Retire the flows settleProgress() found finished, in ascending
     * id, re-solve, re-key the survivors' completions, then run every
     * callback pushed since the stack held @p base entries, newest
     * first.
     */
    void resolve(std::size_t base);

    /**
     * Take a flow out of the network: audit its byte count, push its
     * callback onto callbacks_, cancel its completion event, leave the
     * allocation and keep its node for a later startFlow().
     */
    void retire(FlowMap::iterator it);

    /**
     * Max-min fair allocation over the active flows. Incremental:
     * only the dirty-channel component is re-solved (see the file
     * comment); a call with nothing dirty is a no-op.
     */
    void allocateRates();

    /** Flag a channel whose flow set or capacity changed. */
    void markDirty(ChannelId id);

    /** Enter @p flow into the allocation (per-channel membership). */
    void joinAllocation(Flow &flow);

    /** Remove @p flow from the allocation (per-channel membership). */
    void leaveAllocation(Flow &flow);

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
    FlowMap active_;
    FlowId nextFlow_ = 0;
    Auditor *auditor_ = nullptr;

    /**
     * Per-channel flows currently in the allocation (activated, not
     * done). One entry per path element, so a path listing a channel
     * twice counts as two users — matching the from-scratch solver's
     * user accounting.
     */
    std::vector<std::vector<Flow *>> channelFlows_;
    /**
     * Latency-stage flows not yet in the allocation. A flow whose
     * head latency expires at tick T joins at the first allocation
     * pass with now >= T — which may be a recompute triggered by an
     * unrelated flow earlier in tick T than the activation event,
     * exactly as the from-scratch solver's lastUpdate <= now
     * membership test behaved. A flow cannot finish before it joins,
     * so every pointer here is live.
     */
    std::vector<Flow *> latencyPending_;
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
    /** Flows the last settle found finished, retired by resolve(). */
    std::vector<FlowMap::iterator> finished_;
    /**
     * Callbacks of retired flows not yet run. A pass pushes its own
     * and pops down to where the stack stood when it began, so a
     * callback that retires further flows runs theirs first.
     */
    std::vector<std::function<void()>> callbacks_;
    /** Retired flows' nodes, reused newest first by startFlow(). */
    std::vector<FlowMap::node_type> spareFlows_;
};

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_FLOW_NETWORK_HH
