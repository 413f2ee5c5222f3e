#include "cuda/host_thread.hh"

#include <utility>

namespace dgxsim::cuda {

HostThread::HostThread(sim::EventQueue &queue,
                       profiling::Profiler *profiler, std::string name)
    : queue_(queue), profiler_(profiler), name_(name)
{
}

profiling::Name
HostThread::streamSyncApi()
{
    static const profiling::Name api("cudaStreamSynchronize");
    return api;
}

profiling::Name
HostThread::eventSyncApi()
{
    static const profiling::Name api("cudaEventSynchronize");
    return api;
}

void
HostThread::push(Item item)
{
    if (profiler_ && item.isApi)
        item.enqueueCause = profiler_->currentCause();
    work_.push_back(std::move(item));
    pump();
}

void
HostThread::call(profiling::Name api, sim::Tick overhead,
                 std::function<void()> action)
{
    Item item;
    item.api = api;
    item.overhead = overhead;
    item.action = std::move(action);
    push(std::move(item));
}

void
HostThread::syncStream(Stream &stream, sim::Tick overhead, profiling::Name api)
{
    Item item;
    item.api = api;
    item.overhead = overhead;
    item.stream = &stream;
    item.blocking = true;
    push(std::move(item));
}

void
HostThread::syncEvent(std::shared_ptr<CudaEvent> event, sim::Tick overhead,
                      profiling::Name api)
{
    Item item;
    item.api = api;
    item.overhead = overhead;
    item.event = std::move(event);
    item.blocking = true;
    push(std::move(item));
}

void
HostThread::post(std::function<void()> action)
{
    Item item;
    item.action = std::move(action);
    item.isApi = false;
    push(std::move(item));
}

void
HostThread::waitStream(Stream &stream)
{
    Item item;
    item.stream = &stream;
    item.blocking = true;
    item.isApi = false;
    push(std::move(item));
}

void
HostThread::onIdle(std::function<void()> fn)
{
    if (idle()) {
        fn();
        return;
    }
    idleWaiters_.push_back(std::move(fn));
}

void
HostThread::continueThread()
{
    running_ = false;
    pump();
    if (idle() && !idleWaiters_.empty()) {
        std::vector<std::function<void()>> waiters;
        waiters.swap(idleWaiters_);
        for (auto &w : waiters)
            w();
    }
}

void
HostThread::finishApi(const profiling::CauseToken &issue_token,
                      profiling::RecordId end_dep)
{
    const sim::Tick end = queue_.now();
    apiBusy_ += end - curStart_;
    profiling::RecordId id = profiling::kNoRecord;
    if (profiler_) {
        id = profiler_->recordApi(cur_.api, name_, curStart_, end,
                                  cur_.overhead, cur_.blocking,
                                  {curIssueDep_, end_dep, lastApiId_,
                                   cur_.enqueueCause.id()});
        lastApiId_ = id;
        issue_token.bind(id);
    }
    profiling::CauseScope scope(id == profiling::kNoRecord ? nullptr
                                                           : profiler_,
                                profiling::CauseToken(id));
    continueThread();
}

void
HostThread::pump()
{
    if (running_ || work_.empty())
        return;
    running_ = true;
    cur_ = std::move(work_.front());
    work_.pop_front();
    curStart_ = queue_.now();

    // Every continuation below may run continueThread(), which can
    // pump the next item into cur_: take what an item still needs out
    // of cur_ before running it.
    if (!cur_.isApi) {
        // Non-API items continue under the ambient cause of whoever
        // resumed them (e.g. a drained stream's last kernel), so
        // control chains like waitStream -> post propagate causality.
        if (cur_.blocking && cur_.stream) {
            // Engine-side dependency wait: blocks the thread but is
            // not a CUDA API call, so no API time is recorded.
            cur_.stream->notifyDrained([this] { continueThread(); });
            return;
        }
        // Pure control action: zero simulated cost.
        if (const std::function<void()> action = std::move(cur_.action))
            action();
        continueThread();
        return;
    }

    // Whoever's completion let this item start executing *now* (e.g.
    // the kernel that drained the waitStream preceding a sync call)
    // determines the API's start time; record it as a dependency so
    // the analysis replay can move the start when that chain moves.
    curIssueDep_ =
        profiler_ ? profiler_->currentCauseId() : profiling::kNoRecord;

    if (!cur_.blocking) {
        queue_.scheduleAfter(cur_.overhead, [this] {
            // Ops the action enqueues capture this token as their
            // issue cause; it resolves once the record lands.
            profiling::CauseToken token;
            if (const std::function<void()> action = std::move(cur_.action)) {
                if (profiler_)
                    token = profiler_->lateCause();
                profiling::CauseScope scope(profiler_, token);
                action();
            }
            finishApi(token, profiling::kNoRecord);
        });
        return;
    }

    // Blocking call: pay the fixed entry overhead, then stall until
    // the awaited object completes.
    queue_.scheduleAfter(cur_.overhead, [this] {
        const auto resume = [this] {
            // The ambient cause is whoever completed the awaited
            // work — an end-dependency: it may end after this call
            // started (that wait is the blocked time).
            finishApi({}, profiler_ ? profiler_->currentCauseId()
                                    : profiling::kNoRecord);
        };
        if (Stream *stream = cur_.stream) {
            stream->notifyDrained(resume);
        } else if (const std::shared_ptr<CudaEvent> event =
                       std::move(cur_.event)) {
            event->onSignal(resume);
        } else {
            resume();
        }
    });
}

} // namespace dgxsim::cuda
