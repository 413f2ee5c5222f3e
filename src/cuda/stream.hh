/**
 * @file
 * An in-order CUDA stream. Ops (kernels, DMA copies, event waits and
 * signals, host callbacks) execute strictly in enqueue order; distinct
 * streams proceed concurrently, as on real hardware.
 *
 * A stream runs one op at a time and keeps it as a member, so the
 * closures it hands to the event queue, the fabric and event waiters
 * capture only `this` and fit std::function's inline buffer.
 */

#ifndef DGXSIM_CUDA_STREAM_HH
#define DGXSIM_CUDA_STREAM_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "cuda/cuda_event.hh"
#include "hw/fabric.hh"
#include "profiling/profiler.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dgxsim::cuda {

/** One simulated CUDA stream bound to a device. */
class Stream
{
  public:
    /**
     * @param queue Simulation event queue.
     * @param profiler Optional profiler receiving kernel records.
     * @param device_id GPU index used in profiling records.
     * @param name Debug label.
     */
    Stream(sim::EventQueue &queue, profiling::Profiler *profiler,
           int device_id, std::string name);
    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /** Append a kernel of a precomputed duration. */
    void enqueueKernel(profiling::Name kernel_name, sim::Tick duration);

    /**
     * Append a DMA copy. The copy occupies the stream until the last
     * byte lands (matching cudaMemcpyPeerAsync on the stream).
     * @param copy_kind Profiler label, e.g. "PtoP", "DtoH".
     */
    void enqueueCopy(hw::Fabric &fabric, profiling::Name copy_kind,
                     hw::NodeId src, hw::NodeId dst, sim::Bytes bytes);

    /** Append a wait: the stream stalls until @p event signals. */
    void enqueueWait(std::shared_ptr<CudaEvent> event);

    /** Append a signal: @p event fires when the stream reaches it. */
    void enqueueSignal(std::shared_ptr<CudaEvent> event);

    /** Append a zero-duration host-visible marker callback. */
    void enqueueHostFn(std::function<void()> fn);

    /** @return true when no ops are queued or executing. */
    bool drained() const { return !running_ && ops_.empty(); }

    /**
     * Invoke @p fn once the stream drains (immediately if it already
     * is drained). One-shot.
     */
    void notifyDrained(std::function<void()> fn);

    /** @return total kernel-execution time on this stream. */
    sim::Tick kernelBusyTicks() const { return kernelBusy_; }

    /** @return the debug label (the kernels' profiler lane). */
    const std::string &name() const { return name_.str(); }

    /** @return the owning device id. */
    int deviceId() const { return deviceId_; }

  private:
    enum class OpKind { Kernel, Copy, Wait, Signal, HostFn };

    struct Op
    {
        OpKind kind = OpKind::Kernel;
        profiling::Name label;
        sim::Tick duration = 0;
        hw::Fabric *fabric = nullptr;
        hw::NodeId src = -1;
        hw::NodeId dst = -1;
        sim::Bytes bytes = 0;
        std::shared_ptr<CudaEvent> event;
        std::function<void()> fn;
        /**
         * Ambient cause at enqueue time — normally the host API call
         * that issued this op (a host->device issue edge once the API
         * record lands and fills the token).
         */
        profiling::CauseToken issueCause;
    };

    /** Queue @p op, capturing the ambient cause for kernels and
     * copies, and pump. */
    void push(Op op);

    /** Start the next op if the stream is idle. */
    void pump();

    /**
     * The running kernel or copy landed: record it with its causal
     * edges (stream program order, event-wait causes accumulated
     * since, the op's own issue edge) and continue under it.
     */
    void landOp();

    /** Finish the current op and continue. */
    void opDone();

    void checkDrained();

    sim::EventQueue &queue_;
    profiling::Profiler *profiler_;
    int deviceId_;
    profiling::Name name_;
    std::deque<Op> ops_;
    /** The op running (meaningful while running_). */
    Op cur_;
    /** When cur_ started. */
    sim::Tick curStart_ = 0;
    bool running_ = false;
    sim::Tick kernelBusy_ = 0;
    std::vector<std::function<void()>> drainWaiters_;
    /** Last record landed by this stream (program-order edge). */
    profiling::RecordId lastRec_ = profiling::kNoRecord;
    /**
     * Causes of satisfied event waits, consumed by the next record
     * (which appends its other deps here while landing).
     */
    std::vector<profiling::RecordId> pendingDeps_;
};

} // namespace dgxsim::cuda

#endif // DGXSIM_CUDA_STREAM_HH
