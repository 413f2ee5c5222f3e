/**
 * @file
 * NCCL-like ring collectives (MXNet `nccl` kvstore analogue).
 *
 * Reduce and Broadcast run over a Hamiltonian NVLink ring, sliced
 * into chunks that pipeline hop-by-hop: while chunk c crosses hop k,
 * chunk c+1 crosses hop k-1, which is what lets NCCL amortize its
 * per-collective setup overhead once networks are deep enough — the
 * paper's core finding about when NCCL beats P2P.
 *
 * Each hop lands in a ReduceKernel/BroadcastKernel on the receiving
 * GPU (NCCL's kernels use P2P direct access rather than DMA copies;
 * here both occupy the link for the chunk's bytes, but the kernels
 * add the device-side cost that makes NCCL's 1-GPU baseline slower
 * than P2P — Table II).
 */

#ifndef DGXSIM_COMM_NCCL_COMMUNICATOR_HH
#define DGXSIM_COMM_NCCL_COMMUNICATOR_HH

#include <deque>
#include <memory>
#include <vector>

#include "comm/communicator.hh"

namespace dgxsim::comm {

/** Ring-pipelined collectives. */
class NcclCommunicator : public Communicator
{
  public:
    NcclCommunicator(CommContext ctx, CommConfig cfg = {});

    std::string name() const override { return "nccl"; }

    sim::Tick
    perCallHostOverhead() const override
    {
        // Collective setup runs regardless of GPU count; this is the
        // overhead P2P does not pay (Table II).
        return sim::usToTicks(cfg_.ncclSetupUs);
    }

    /** @return the ring actually in use (root first). */
    const std::vector<hw::NodeId> &ring() const { return ring_; }

    /** @return the chunk count used for @p bytes. */
    int chunksFor(sim::Bytes bytes) const;

    /**
     * Data-plane ring reduction in schedule order: buffers[i] belongs
     * to gpus()[i]; on return the root's buffer holds the sum.
     */
    void reduceData(std::vector<std::vector<float>> &buffers) const;

    /** Data-plane broadcast of the root's buffer to all workers. */
    void broadcastData(std::vector<std::vector<float>> &buffers) const;

    /** Data-plane all-reduce: every buffer becomes the sum. */
    void allReduceData(std::vector<std::vector<float>> &buffers) const;

  protected:
    void doReduce(sim::Bytes bytes, Callback done) override;
    void doBroadcast(sim::Bytes bytes, Callback done) override;
    void doAllReduce(sim::Bytes bytes, Callback done) override;

    /**
     * NCCL collectives stream back to back through persistent
     * per-hop gates, which is how many small per-layer transfers
     * amortize the setup overhead (the paper's 4/8-GPU NCCL win).
     */
    bool pipelined() const override { return true; }

  private:
    /** FIFO serializer keeping chunks ordered per hop. */
    struct HopGate
    {
        bool busy = false;
        std::deque<std::function<void()>> waiters;

        void
        acquire(std::function<void()> start)
        {
            if (busy) {
                waiters.push_back(std::move(start));
            } else {
                busy = true;
                start();
            }
        }

        void
        release()
        {
            if (waiters.empty()) {
                busy = false;
            } else {
                auto next = std::move(waiters.front());
                waiters.pop_front();
                next();
            }
        }
    };

    /**
     * Run a pipelined ring pass along @p path (path[k] sends to
     * path[k+1]) with a per-hop kernel named @p kernel_name, keeping
     * chunk order with the persistent @p gates. @p hop_lanes names
     * the gate set's hops in profiler records (kernels within one
     * lane+hop serialize on its gate); it must outlive the pass.
     */
    void ringPass(const std::vector<hw::NodeId> &path,
                  std::shared_ptr<std::vector<HopGate>> gates,
                  sim::Bytes bytes, profiling::Name kernel_name,
                  const std::vector<profiling::Name> &hop_lanes,
                  bool accumulate, Callback done);

    /** Ring rotated so the root (gpus()[0]) is first. */
    std::vector<hw::NodeId> ring_;
    /** The same ring traversed in the opposite direction. */
    std::vector<hw::NodeId> ringRev_;
    /** Persistent hop gates: reduce direction, broadcast direction,
     * their reversed-ring twins (dual-ring mode), and the single-GPU
     * kernel serializer. */
    std::shared_ptr<std::vector<HopGate>> reduceGates_;
    std::shared_ptr<std::vector<HopGate>> bcastGates_;
    std::shared_ptr<std::vector<HopGate>> reduceGatesRev_;
    std::shared_ptr<std::vector<HopGate>> bcastGatesRev_;
    std::shared_ptr<std::vector<HopGate>> localGate_;
    /** Profiler lanes "<gate set>.h<hop>" of the four ring gate sets
     * above, interned once. */
    std::vector<profiling::Name> reduceLanes_;
    std::vector<profiling::Name> bcastLanes_;
    std::vector<profiling::Name> reduceLanesRev_;
    std::vector<profiling::Name> bcastLanesRev_;
    /** All-reduce collectives serialize on this gate (they occupy
     * every ring link in both step directions). */
    std::shared_ptr<std::vector<HopGate>> allReduceGate_;
};

} // namespace dgxsim::comm

#endif // DGXSIM_COMM_NCCL_COMMUNICATOR_HH
