/**
 * @file
 * A host CPU worker thread that issues CUDA API calls.
 *
 * MXNet's engine drives each GPU from a dedicated worker thread; the
 * time those threads spend inside CUDA APIs (launches, memcpys and
 * above all cudaStreamSynchronize) is the software overhead the paper
 * quantifies in Sec. V-C / Table III. Each call occupies the thread
 * for a fixed overhead; blocking calls additionally stall it until
 * the awaited work completes, and the whole interval is recorded to
 * the profiler under the API's name, as nvprof does.
 *
 * A thread runs one item at a time and keeps it as a member, so the
 * closures it hands to the event queue and to waiters capture only
 * `this` and fit std::function's inline buffer.
 */

#ifndef DGXSIM_CUDA_HOST_THREAD_HH
#define DGXSIM_CUDA_HOST_THREAD_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "cuda/cuda_event.hh"
#include "cuda/stream.hh"
#include "profiling/profiler.hh"
#include "sim/event_queue.hh"

namespace dgxsim::cuda {

/** Serial API-issuing thread. */
class HostThread
{
  public:
    HostThread(sim::EventQueue &queue, profiling::Profiler *profiler,
               std::string name);
    HostThread(const HostThread &) = delete;
    HostThread &operator=(const HostThread &) = delete;

    /** Default labels of syncStream() and syncEvent(). */
    static profiling::Name streamSyncApi();
    static profiling::Name eventSyncApi();

    /**
     * Enqueue a non-blocking API call.
     * @param api Profiler label, e.g. "cudaLaunchKernel".
     * @param overhead Host occupancy of the call.
     * @param action Runs when the call executes (e.g. pushes an op
     *               onto a stream).
     */
    void call(profiling::Name api, sim::Tick overhead,
              std::function<void()> action = {});

    /**
     * Enqueue a blocking stream synchronization. The thread stalls
     * until @p stream drains; the full interval is recorded as
     * @p api time.
     */
    void syncStream(Stream &stream, sim::Tick overhead,
                    profiling::Name api = streamSyncApi());

    /** Enqueue a blocking wait on an event (cudaEventSynchronize). */
    void syncEvent(std::shared_ptr<CudaEvent> event, sim::Tick overhead,
                   profiling::Name api = eventSyncApi());

    /** Enqueue a zero-cost control action (not an API call). */
    void post(std::function<void()> action);

    /**
     * Enqueue a blocking wait on a stream that is NOT a CUDA API
     * call: the framework engine's dependency tracking (callbacks)
     * rather than cudaStreamSynchronize. Costs no recorded API time.
     */
    void waitStream(Stream &stream);

    /** @return true when no work is queued or executing. */
    bool idle() const { return !running_ && work_.empty(); }

    /** Run @p fn next time the thread goes idle (or now if idle). */
    void onIdle(std::function<void()> fn);

    /** @return total time spent inside API calls. */
    sim::Tick apiBusyTicks() const { return apiBusy_; }

    /** @return the thread's debug name (its profiler lane). */
    const std::string &name() const { return name_.str(); }

  private:
    struct Item
    {
        profiling::Name api;
        sim::Tick overhead = 0;
        std::function<void()> action;
        Stream *stream = nullptr;
        std::shared_ptr<CudaEvent> event;
        bool blocking = false;
        bool isApi = true;
        /**
         * Ambient cause when the item was enqueued — e.g. the engine
         * dispatch API that scheduled this worker call, or the kernel
         * whose completion callback pushed a comm op.
         */
        profiling::CauseToken enqueueCause;
    };

    /** Queue @p item, capturing the ambient cause for API calls, and
     * pump. */
    void push(Item item);

    void pump();

    /**
     * The current API call finished: land its record and continue
     * the thread under it.
     * @param issue_token Late-bound token handed to the call's
     *        action; bound to the new record id.
     * @param end_dep Cause of the work a blocking call waited on (it
     *        ends when the call ends, not when it starts).
     */
    void finishApi(const profiling::CauseToken &issue_token,
                   profiling::RecordId end_dep);

    /** pump() again and fire idle waiters; caller sets the cause. */
    void continueThread();

    sim::EventQueue &queue_;
    profiling::Profiler *profiler_;
    profiling::Name name_;
    std::deque<Item> work_;
    /** The item running (meaningful while running_). */
    Item cur_;
    /** When cur_ started. */
    sim::Tick curStart_ = 0;
    /**
     * Whoever's completion let cur_ start executing (e.g. the kernel
     * that drained the waitStream before a sync call): a start
     * dependency of its API record.
     */
    profiling::RecordId curIssueDep_ = profiling::kNoRecord;
    bool running_ = false;
    sim::Tick apiBusy_ = 0;
    std::vector<std::function<void()>> idleWaiters_;
    /** Last API record on this thread (program-order edge). */
    profiling::RecordId lastApiId_ = profiling::kNoRecord;
};

} // namespace dgxsim::cuda

#endif // DGXSIM_CUDA_HOST_THREAD_HH
