/**
 * @file
 * Hierarchical collectives for multi-node clusters, the NCCL-style
 * two-level schedule: every node first reduces over its own NVLink
 * fabric with the configured intra-node method, then the node roots
 * run an inter-node phase over the NIC/switch network (ring
 * reduce-scatter + all-gather, or a binomial tree), and finally each
 * node broadcasts the result back over NVLink.
 *
 * The inter-node transfers go through the ordinary Fabric::transfer
 * path, which routes them GPU -> CPU -> NIC -> switch -> NIC -> CPU
 * -> GPU (RouteKind::InterNode), so concurrent rounds contend
 * max-min fairly on the per-NIC IB links — the mechanism that makes
 * the inter-node link the bottleneck once enough nodes share it.
 *
 * Each collective is planned up front as a list of steps (an inner
 * phase, a lock-step round of root-to-root copies, or a zero-time
 * skip) kept in a recycled slot, and run one step at a time by
 * continuations that capture {this, slot}.
 */

#ifndef DGXSIM_COMM_HIERARCHICAL_COMMUNICATOR_HH
#define DGXSIM_COMM_HIERARCHICAL_COMMUNICATOR_HH

#include <memory>
#include <vector>

#include "comm/communicator.hh"
#include "comm/factory.hh"

namespace dgxsim::comm {

/** Two-level (intra-node + inter-node) collectives. */
class HierarchicalCommunicator : public Communicator
{
  public:
    /**
     * @param inner The intra-node method (p2p or nccl), instantiated
     *        once per node over that node's GPU slice.
     * @param ctx   Node-major GPU set: gpus[k*L .. (k+1)*L) is node
     *        k's slice (L = gpus.size() / ctx.nodes).
     */
    HierarchicalCommunicator(CommMethod inner, CommContext ctx,
                             CommConfig cfg = {});

    std::string name() const override;

    sim::Tick
    perCallHostOverhead() const override
    {
        // The kvstore issues one collective; the per-node inner
        // collectives are internal fan-out, so the host-side issue
        // cost is the inner method's.
        return inner_[0]->perCallHostOverhead();
    }

    /** @return the per-node root GPUs, in node order. */
    const std::vector<hw::NodeId> &roots() const { return roots_; }

    /** @return GPUs per node. */
    int gpusPerNode() const { return gpusPerNode_; }

  protected:
    void doReduce(sim::Bytes bytes, Callback done) override;
    void doBroadcast(sim::Bytes bytes, Callback done) override;
    void doAllReduce(sim::Bytes bytes, Callback done) override;

    /**
     * The lock-step inter-node rounds assume one collective on the
     * NIC fabric at a time, so the scheduler reorders only at chunk
     * boundaries here.
     */
    int maxInFlightChunks() const override { return 1; }

  private:
    /** One step of a planned collective. */
    struct Step
    {
        enum class Kind
        {
            InnerReduce,    ///< every node's inner reduce, then barrier
            InnerBroadcast, ///< every node's inner broadcast, barrier
            Skip,           ///< nothing crosses the NICs
            Ring,           ///< every root to its ring successor
            Gather,         ///< every other root to the global root
            Scatter,        ///< the global root to every other root
            TreeReduce,     ///< binomial-tree round towards the root
            TreeBroadcast,  ///< binomial-tree round from the root
        };
        Kind kind = Kind::Skip;
        /** Message size of each copy (the collective's for inner). */
        sim::Bytes bytes = 0;
        /** Tree rounds: distance between the paired roots. */
        int stride = 0;
        /** Run a gradient-accumulate kernel on each receiving root. */
        bool accumulate = false;
    };

    /** A collective in flight: its plan and progress. */
    struct Collective
    {
        std::vector<Step> steps;
        std::size_t next = 0;
        /** Forwarded to every inner communicator's scheduler. */
        int priority = 0;
        Callback done;
    };

    /**
     * Plan and run @p kind: inner reduce (unless a broadcast), the
     * inter-node rounds, inner broadcast (unless a reduce).
     */
    void run(OpKind kind, sim::Bytes bytes, Callback done);

    /** Append the inter-node rounds of @p kind over @p bytes. */
    void planInter(std::vector<Step> &steps, OpKind kind,
                   sim::Bytes bytes) const;

    /** Run collective @p slot's next step, or finish it. */
    void runStep(Slot slot);

    /**
     * One lock-step round of concurrent root-to-root copies (profiler
     * kind "IB"); @p done fires when every copy (and accumulate
     * kernel) completes.
     */
    void interRound(const Step &step, Callback done);

    /** Ring shard size for @p bytes (ceil division by nodes). */
    sim::Bytes shardOf(sim::Bytes bytes) const;

    int nodes_ = 1;
    int gpusPerNode_ = 1;
    NetAlgo algo_ = NetAlgo::Ring;
    std::vector<std::unique_ptr<Communicator>> inner_;
    std::vector<hw::NodeId> roots_;
    sim::SlotPool<Collective> collectives_;
};

} // namespace dgxsim::comm

#endif // DGXSIM_COMM_HIERARCHICAL_COMMUNICATOR_HH
