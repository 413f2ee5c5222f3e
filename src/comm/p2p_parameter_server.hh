/**
 * @file
 * P2P-direct-transfer parameter server, the MXNet `device` kvstore
 * the paper profiles: gradients reach GPU0 through a pairwise
 * reduction tree of cudaMemcpyPeer DMA copies (Fig. 1's AVG chain),
 * and updated weights fan out from GPU0 with parallel copies that the
 * fabric routes directly or through staged NVLink hops.
 */

#ifndef DGXSIM_COMM_P2P_PARAMETER_SERVER_HH
#define DGXSIM_COMM_P2P_PARAMETER_SERVER_HH

#include <vector>

#include "comm/communicator.hh"

namespace dgxsim::comm {

/** Tree-reduce / flat-broadcast parameter server on gpus[0]. */
class P2pParameterServer : public Communicator
{
  public:
    P2pParameterServer(CommContext ctx, CommConfig cfg = {});

    std::string name() const override { return "p2p"; }

    sim::Tick
    perCallHostOverhead() const override
    {
        // One cudaMemcpyAsync issue per collective call on the worker
        // thread; single-GPU training issues none.
        return ctx_.gpus.size() > 1
                   ? sim::usToTicks(cfg_.memcpyIssueUs)
                   : 0;
    }

    /**
     * Data-plane reduction following the same pairwise tree order:
     * on return @p buffers[0] holds the element-wise sum.
     * Buffers must all have equal size; one per participating GPU.
     */
    void reduceData(std::vector<std::vector<float>> &buffers) const;

    /** Data-plane broadcast: copies buffers[0] into every buffer. */
    void broadcastData(std::vector<std::vector<float>> &buffers) const;

    /** Data-plane all-reduce via reduce-to-root then broadcast. */
    void
    allReduceData(std::vector<std::vector<float>> &buffers) const
    {
        reduceData(buffers);
        broadcastData(buffers);
    }

  protected:
    void doReduce(sim::Bytes bytes, Callback done) override;
    void doBroadcast(sim::Bytes bytes, Callback done) override;

  private:
    /** One tree reduction, level by level. */
    struct Reduction
    {
        sim::Bytes bytes = 0;
        std::size_t stride = 1;
        /** Kernel lane: per-chunk under the concurrent schedulers, so
         * overlapping chunks keep the lane-serialization invariant. */
        profiling::Name lane;
        Callback done;
    };

    /**
     * Run reduction @p slot's current level: transfers src->dst for
     * every pair at its stride, each followed by an accumulate kernel
     * at dst; continue with the next stride once the level joins.
     */
    void reduceLevel(Slot slot);

    sim::SlotPool<Reduction> reductions_;
};

} // namespace dgxsim::comm

#endif // DGXSIM_COMM_P2P_PARAMETER_SERVER_HH
