/**
 * @file
 * Abstract multi-GPU communicator used by the WU (weight update)
 * stage: reduce gradients to a root GPU, broadcast updated weights
 * back. The paper compares two concrete implementations — P2P direct
 * transfers with a parameter server on GPU0 (MXNet `device` kvstore)
 * and NCCL ring collectives (MXNet `nccl` kvstore) — so the trainer
 * is written against this interface.
 *
 * Collective operations on one communicator serialize, like NCCL
 * collectives issued to a single communicator stream; different
 * buckets therefore pipeline behind one another while overlapping
 * with independent compute streams.
 *
 * Per-operation state (a chunk in flight, a kernel on a comm lane, a
 * peer copy, a barrier, a compressed chunk) lives in the
 * communicator's own slot pools (sim/slot_pool.hh), and every
 * continuation it hands out captures only {this, slot}, so issuing a
 * collective allocates nothing once the pools have grown.
 */

#ifndef DGXSIM_COMM_COMMUNICATOR_HH
#define DGXSIM_COMM_COMMUNICATOR_HH

#include <compare>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/compression.hh"
#include "comm/scheduler.hh"
#include "hw/fabric.hh"
#include "hw/gpu_spec.hh"
#include "profiling/profiler.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"

namespace dgxsim::comm {

/** Everything a communicator needs about the machine it runs on. */
struct CommContext
{
    sim::EventQueue *queue = nullptr;
    hw::Fabric *fabric = nullptr;
    /** Participating GPUs; gpus[0] acts as root / parameter server. */
    std::vector<hw::NodeId> gpus;
    /**
     * Cluster nodes the GPU set spans, node-major. When > 1 the
     * factory wraps the selected method in the hierarchical
     * communicator (intra-node collectives per node + inter-node
     * phase between the node roots over the NIC fabric).
     */
    int nodes = 1;
    hw::GpuSpec gpuSpec;
    profiling::Profiler *profiler = nullptr; ///< optional
};

/**
 * Inter-node all-reduce schedule used by the hierarchical
 * communicator when the GPU set spans multiple cluster nodes.
 */
enum class NetAlgo
{
    Ring, ///< bandwidth-optimal ring reduce-scatter + all-gather
    Tree, ///< latency-optimal binomial reduce + broadcast
};

/** @return a printable name ("ring"/"tree"). */
const char *netAlgoName(NetAlgo algo);

/** Parse "ring" or "tree" (fatal otherwise). */
NetAlgo parseNetAlgo(const std::string &name);

/** Tunables of the communication models. */
struct CommConfig
{
    /** Host cost to issue one P2P cudaMemcpy (us). */
    double memcpyIssueUs = 10.0;
    /** Per-collective NCCL setup overhead on the host (us). */
    double ncclSetupUs = 11.0;
    /** Ring pipelining chunk size. */
    sim::Bytes ringChunkBytes = sim::Bytes(512) << 10;
    /** Upper bound on pipeline chunks per collective. */
    int maxChunks = 16;
    /**
     * Fixed per-hop cost of a ring step (kernel handshake + fifo
     * management). This is the latency that keeps NCCL from paying
     * off on small transfers (LeNet/AlexNet in the paper).
     */
    double ringHopLatencyUs = 8.0;
    /**
     * Fraction of raw link bandwidth NCCL's direct-access copy
     * kernels achieve relative to DMA copies (protocol FIFOs, flag
     * polling). NCCL 2.0-era rings ran well below DMA line rate.
     */
    double ncclLinkEfficiency = 0.75;
    /**
     * Number of concurrent rings NCCL builds (extension): 2 splits
     * every collective across the ring's two directions, using both
     * halves of each full-duplex NVLink the way later NCCL versions
     * do on the DGX-1.
     */
    int ncclRings = 1;
    /**
     * Fixed host-side NCCL bookkeeping per training iteration
     * (group launch, stream coordination). Together with the
     * per-collective setup this is the "NCCL overhead" of Table II.
     */
    double ncclIterFixedUs = 250.0;
    /** Inter-node schedule used when the GPU set spans nodes. */
    NetAlgo netAlgo = NetAlgo::Ring;
    /**
     * Gradient-bucket scheduling policy (comm/scheduler.hh). The
     * default `fifo` replays the legacy op queue bit-exactly;
     * `priority` and `partitioned` reorder/split collectives under a
     * credit window.
     */
    SchedulerPolicy scheduler = SchedulerPolicy::Fifo;
    /** Chunk size of the `partitioned` policy. */
    sim::Bytes partitionBytes = kDefaultPartitionBytes;
    /** In-flight byte window of the non-FIFO policies. */
    sim::Bytes creditBytes = kDefaultCreditBytes;
    /**
     * Gradient compressor applied to every scheduler chunk
     * (comm/compression.hh): encode kernels on the sender GPUs,
     * shrunk bytes on the wire, decode kernels on the receivers. The
     * default `none` replays the uncompressed event stream
     * bit-exactly (no extra events, original wire bytes).
     */
    Compressor compression = Compressor::None;
    /** Kept-element fraction of the sparsifiers (randomk/dgc). */
    double compressRatio = 0.01;

    auto operator<=>(const CommConfig &) const = default;
};

/** Base class: op queue + common context. */
class Communicator
{
  public:
    using Callback = std::function<void()>;

    Communicator(CommContext ctx, CommConfig cfg);
    virtual ~Communicator() = default;
    Communicator(const Communicator &) = delete;
    Communicator &operator=(const Communicator &) = delete;

    /** @return a short method name ("p2p", "nccl"). */
    virtual std::string name() const = 0;

    /**
     * @return host-thread occupancy of issuing one collective (the
     * software overhead the paper isolates in Table II).
     */
    virtual sim::Tick perCallHostOverhead() const = 0;

    /**
     * Enqueue a gradient reduction: after completion the root GPU
     * (gpus[0]) holds the sum of all workers' buffers. @p priority
     * steers the non-FIFO schedulers (higher = more urgent); the
     * default FIFO policy ignores it.
     */
    void reduce(sim::Bytes bytes, Callback done);
    void reduce(sim::Bytes bytes, int priority, Callback done);

    /**
     * Enqueue a weight broadcast from the root GPU to all workers.
     */
    void broadcast(sim::Bytes bytes, Callback done);
    void broadcast(sim::Bytes bytes, int priority, Callback done);

    /**
     * Enqueue a fused all-reduce: after completion every GPU holds
     * the sum. The MXNet of the paper decomposes this into Reduce +
     * update + Broadcast; modern stacks issue it as one collective —
     * provided here as the extension the ablation benchmarks study.
     */
    void allReduce(sim::Bytes bytes, Callback done);
    void allReduce(sim::Bytes bytes, int priority, Callback done);

    /** @return true when no collective is queued or in flight. */
    bool idle() const { return !sched_ || sched_->idle(); }

    /** Invoke @p fn once the op queue drains (now if idle). */
    void onIdle(Callback fn);

    /** @return the participating GPUs. */
    const std::vector<hw::NodeId> &gpus() const { return ctx_.gpus; }

    /** @return the configuration in use. */
    const CommConfig &config() const { return cfg_; }

  protected:
    using Slot = std::uint32_t;

    /** Implement the actual reduction schedule. */
    virtual void doReduce(sim::Bytes bytes, Callback done) = 0;
    /** Implement the actual broadcast schedule. */
    virtual void doBroadcast(sim::Bytes bytes, Callback done) = 0;
    /**
     * Implement the fused all-reduce. The default chains
     * doReduce + doBroadcast (what a parameter server can offer);
     * ring communicators override with a true all-reduce.
     */
    virtual void doAllReduce(sim::Bytes bytes, Callback done);

    /**
     * Pipelined communicators dispatch every enqueued collective
     * immediately (maintaining order internally, e.g. with per-hop
     * gates), so consecutive collectives stream back to back; the
     * default serializes each collective behind the previous one's
     * completion (the parameter server's aggregation-buffer
     * dependency).
     */
    virtual bool pipelined() const { return false; }

    /**
     * Hard cap on concurrently dispatched scheduler chunks (0 =
     * unlimited). Implementations whose internal schedule assumes
     * one collective at a time (the hierarchical lock-step rounds)
     * override this with 1; the scheduler then reorders only at
     * chunk boundaries.
     */
    virtual int maxInFlightChunks() const { return 0; }

    /**
     * @return @p base suffixed with the per-chunk lane tag. Valid
     * only during the synchronous part of a dispatch (capture the
     * result at do*() entry). Empty suffix — the legacy lane name —
     * under FIFO, where at most one chunk of a non-pipelined
     * communicator is ever in flight; non-FIFO policies may overlap
     * chunks, so each gets its own serialized lane.
     */
    profiling::Name chunkLane(profiling::Name base) const;

    /**
     * The priority of the op being dispatched, for forwarding to
     * nested communicators. Valid only during the synchronous part
     * of a dispatch.
     */
    int dispatchPriority() const { return dispatchPriority_; }

    /** Record + charge a device-side kernel of @p cost on @p gpu. */
    void runKernel(profiling::Name kernel_name, hw::NodeId gpu,
                   double flops, double bytes, Callback done);

    /**
     * Like runKernel but recording on @p lane instead of "comm".
     * Inter-node kernels use "ib."-prefixed lanes so the analysis
     * engine attributes them to the inter_node_comm category.
     */
    void runKernelOnLane(profiling::Name kernel_name,
                         profiling::Name lane, hw::NodeId gpu,
                         double flops, double bytes, Callback done);

    /**
     * Copy @p bytes from @p src to @p dst over the fabric, recorded as
     * a @p label copy caused by the ambient cause at issue. With the
     * copy as ambient cause, then run @p accumulate (unless empty) on
     * @p dst and @p lane, reading two arrays and writing one, and
     * finally @p done.
     */
    void copyToPeer(profiling::Name label, hw::NodeId src, hw::NodeId dst,
                    sim::Bytes bytes, profiling::Name accumulate,
                    profiling::Name lane, Callback done);

    /**
     * @return a barrier continuation: the @p count-th call runs
     * @p done. It captures {this, slot}, so copies of it are free.
     */
    Callback join(int count, Callback done);

    /** Run @p done after zero time under the ambient cause. */
    void skip(Callback done);

    CommContext ctx_;
    CommConfig cfg_;

  private:
    /** A kernel on a comm lane, between issue and completion. */
    struct KernelRun
    {
        profiling::Name kernel;
        profiling::Name lane;
        hw::NodeId gpu = -1;
        sim::Tick start = 0;
        sim::Tick dur = 0;
        profiling::CauseToken issue;
        Callback done;
    };

    /** A copyToPeer() in flight. */
    struct PeerCopy
    {
        profiling::Name label;
        profiling::Name accumulate;
        profiling::Name lane;
        hw::NodeId src = -1;
        hw::NodeId dst = -1;
        sim::Bytes bytes = 0;
        sim::Tick start = 0;
        profiling::CauseToken cause;
        Callback done;
    };

    /** A join() barrier, or a skip() (pending unused). */
    struct Join
    {
        int pending = 0;
        profiling::CauseToken cause;
        Callback done;
    };

    /** A compressed chunk between its encode and decode kernels. */
    struct Compressed
    {
        OpKind kind = OpKind::Reduce;
        sim::Bytes wire = 0;
        profiling::Name lane;
        /** Dispatch window the deferred wire dispatch reopens. */
        std::string suffix;
        int priority = 0;
        CompressionKernelCost dec;
        Callback finish;
    };

    void kernelDone(Slot slot);
    void peerCopyLanded(Slot slot);
    void arrive(Slot slot);
    void finishChunk(Slot slot);
    void transmitCompressed(Slot slot);
    void decompress(Slot slot);
    /** @return the GPUs that encode (@p senders) or decode @p kind. */
    std::span<const hw::NodeId> codecGpus(OpKind kind, bool senders) const;

    void enqueue(OpKind kind, sim::Bytes bytes, int priority,
                 Callback done);
    void dispatch(OpKind kind, sim::Bytes bytes, Callback finish);
    /**
     * Compressed dispatch of one admitted chunk: encode kernels on
     * the senders, the shrunk wire bytes through dispatch(), decode
     * kernels on the receivers, then @p finish (which still accounts
     * the chunk's original payload bytes to the scheduler, keeping
     * its flow-conservation audit intact).
     */
    void dispatchCompressed(OpKind kind, sim::Bytes bytes,
                            std::uint64_t tag, Callback finish);
    void pump();
    void notifyIfIdle();
    /** Lazily build the scheduler (pipelined() is virtual, so the
     * constructor cannot ask for the limits). */
    Scheduler &scheduler();

    std::unique_ptr<Scheduler> sched_;
    /** Codec kernel labels, interned once (compression on only). */
    profiling::Name encodeKernel_;
    profiling::Name decodeKernel_;
    sim::SlotPool<SchedChunk> chunks_;
    sim::SlotPool<KernelRun> kernels_;
    sim::SlotPool<PeerCopy> copies_;
    sim::SlotPool<Join> joins_;
    sim::SlotPool<Compressed> compressed_;
    /** Lane suffix of the chunk being dispatched (see chunkLane). */
    std::string chunkLaneSuffix_;
    int dispatchPriority_ = 0;
    std::vector<Callback> idleWaiters_;
};

} // namespace dgxsim::comm

#endif // DGXSIM_COMM_COMMUNICATOR_HH
