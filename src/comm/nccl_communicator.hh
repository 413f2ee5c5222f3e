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
 *
 * A ring pass or lock-step all-reduce keeps its state in a pass slot,
 * and each chunk crossing the ring (or each link of a lock step) in a
 * hop slot; the gate, fabric and event continuations capture only
 * {this, slot}, so a chunk-hop allocates nothing.
 */

#ifndef DGXSIM_COMM_NCCL_COMMUNICATOR_HH
#define DGXSIM_COMM_NCCL_COMMUNICATOR_HH

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
    /**
     * FIFO serializer keeping chunks ordered per hop. The waiting
     * continuations capture {this, slot}, and the queue keeps its
     * capacity, so queueing at a busy gate allocates nothing.
     */
    struct HopGate
    {
        bool busy = false;
        std::vector<Callback> waiters;
        /** First waiter not yet started. */
        std::size_t head = 0;

        void
        acquire(Callback start)
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
            if (head == waiters.size()) {
                busy = false;
                return;
            }
            const Callback next = std::move(waiters[head++]);
            if (head == waiters.size()) {
                waiters.clear();
                head = 0;
            }
            next();
        }
    };

    /** One ring pass, lock-step all-reduce or single-GPU kernel. */
    struct Pass
    {
        const std::vector<hw::NodeId> *path = nullptr;
        std::vector<HopGate> *gates = nullptr;
        profiling::Name kernelName;
        /** Per-hop profiler lanes; null for a lock-step all-reduce. */
        const std::vector<profiling::Name> *hopLanes = nullptr;
        /** Chunks still crossing (ring), or links of this step. */
        int remaining = 0;
        /** All-reduce lock steps taken and due. */
        int step = 0;
        int totalSteps = 0;
        /** The all-reduce shard, or the single-GPU kernel's payload
         * and flops. */
        sim::Bytes bytes = 0;
        double flops = 0;
        /** Last-landing kernel of the previous lock step. */
        profiling::RecordId prevStep = profiling::kNoRecord;
        Callback done;
        /** Cause of the collective (the issuing kvstore API). */
        profiling::CauseToken opCause;
    };

    /**
     * One chunk crossing a ring, one hop at a time, or one link of a
     * lock step: the copy, then a kernel on the receiving GPU.
     */
    struct Hop
    {
        Slot pass = 0;
        std::size_t hop = 0;
        /** The copy's causal parent (kNoRecord: the collective's). */
        profiling::RecordId prev = profiling::kNoRecord;
        bool accumulate = false;
        hw::NodeId src = -1;
        hw::NodeId dst = -1;
        sim::Bytes bytes = 0;
        sim::Bytes wire = 0;
        sim::Tick start = 0;
        sim::Tick kstart = 0;
        sim::Tick kdur = 0;
        profiling::RecordId copy = profiling::kNoRecord;
    };

    /**
     * Run a pipelined ring pass along @p path (path[k] sends to
     * path[k+1]) with a per-hop kernel named @p kernel_name, keeping
     * chunk order with the persistent @p gates. @p hop_lanes names
     * the gate set's hops in profiler records (kernels within one
     * lane+hop serialize on its gate). All three must outlive the
     * pass.
     */
    void ringPass(const std::vector<hw::NodeId> &path,
                  std::vector<HopGate> &gates, sim::Bytes bytes,
                  profiling::Name kernel_name,
                  const std::vector<profiling::Name> &hop_lanes,
                  bool accumulate, Callback done);

    /** Queue chunk @p slot at its next hop's gate. */
    void enterHop(Slot slot);
    /** Send a hop's copy (its fields set) over the fabric. */
    void sendHop(Slot slot);
    /** A hop's copy landed: record it and start the hop kernel. */
    void hopLanded(Slot slot);
    /** A hop kernel finished: advance its chunk or lock step. */
    void hopKernelDone(Slot slot);
    /** Run the next lock step of all-reduce @p slot, or finish it. */
    void allReduceStep(Slot slot);
    /** Release pass @p slot and run its completion. */
    void finishPass(Slot slot);

    /**
     * One GPU: the collective is a single kernel serialized on the
     * NCCL stream (the code path differs from P2P even on one GPU,
     * Table II).
     */
    void runLocal(profiling::Name kernel_name, double flops,
                  sim::Bytes bytes, Callback done);

    /**
     * @return the duration of a hop kernel over @p bytes: NCCL's
     * persistent copy/reduce kernels stream the chunk through HBM on
     * the receiving side without a fresh kernel-launch tail.
     */
    sim::Tick hopKernelTicks(bool accumulate, sim::Bytes bytes) const;

    /** Ring rotated so the root (gpus()[0]) is first. */
    std::vector<hw::NodeId> ring_;
    /** The same ring traversed in the opposite direction. */
    std::vector<hw::NodeId> ringRev_;
    /** Reduce paths: each ring from the root's successor round to
     * the root. */
    std::vector<hw::NodeId> reducePath_;
    std::vector<hw::NodeId> reducePathRev_;
    /** Persistent hop gates: reduce direction, broadcast direction
     * and their reversed-ring twins (dual-ring mode). */
    std::vector<HopGate> reduceGates_;
    std::vector<HopGate> bcastGates_;
    std::vector<HopGate> reduceGatesRev_;
    std::vector<HopGate> bcastGatesRev_;
    /** The single-GPU kernel serializer. */
    HopGate localGate_;
    /** All-reduce collectives serialize on this gate (they occupy
     * every ring link in both step directions). */
    HopGate allReduceGate_;
    /** Profiler lanes "<gate set>.h<hop>" of the four ring gate sets
     * above, interned once. */
    std::vector<profiling::Name> reduceLanes_;
    std::vector<profiling::Name> bcastLanes_;
    std::vector<profiling::Name> reduceLanesRev_;
    std::vector<profiling::Name> bcastLanesRev_;
    sim::SlotPool<Pass> passes_;
    sim::SlotPool<Hop> hops_;
};

} // namespace dgxsim::comm

#endif // DGXSIM_COMM_NCCL_COMMUNICATOR_HH
