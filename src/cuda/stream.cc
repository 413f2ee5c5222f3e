#include "cuda/stream.hh"

#include <utility>

namespace dgxsim::cuda {

Stream::Stream(sim::EventQueue &queue, profiling::Profiler *profiler,
               int device_id, std::string name)
    : queue_(queue), profiler_(profiler), deviceId_(device_id), name_(name)
{
}

void
Stream::push(Op op)
{
    if (profiler_ && (op.kind == OpKind::Kernel || op.kind == OpKind::Copy))
        op.issueCause = profiler_->currentCause();
    ops_.push_back(std::move(op));
    pump();
}

void
Stream::enqueueKernel(profiling::Name kernel_name, sim::Tick duration)
{
    Op op;
    op.kind = OpKind::Kernel;
    op.label = kernel_name;
    op.duration = duration;
    push(std::move(op));
}

void
Stream::enqueueCopy(hw::Fabric &fabric, profiling::Name copy_kind,
                    hw::NodeId src, hw::NodeId dst, sim::Bytes bytes)
{
    Op op;
    op.kind = OpKind::Copy;
    op.label = copy_kind;
    op.fabric = &fabric;
    op.src = src;
    op.dst = dst;
    op.bytes = bytes;
    push(std::move(op));
}

void
Stream::enqueueWait(std::shared_ptr<CudaEvent> event)
{
    Op op;
    op.kind = OpKind::Wait;
    op.event = std::move(event);
    push(std::move(op));
}

void
Stream::enqueueSignal(std::shared_ptr<CudaEvent> event)
{
    Op op;
    op.kind = OpKind::Signal;
    op.event = std::move(event);
    push(std::move(op));
}

void
Stream::enqueueHostFn(std::function<void()> fn)
{
    Op op;
    op.kind = OpKind::HostFn;
    op.fn = std::move(fn);
    push(std::move(op));
}

void
Stream::notifyDrained(std::function<void()> fn)
{
    if (drained()) {
        fn();
        return;
    }
    drainWaiters_.push_back(std::move(fn));
}

void
Stream::checkDrained()
{
    if (!drained() || drainWaiters_.empty())
        return;
    std::vector<std::function<void()>> waiters;
    waiters.swap(drainWaiters_);
    for (auto &w : waiters)
        w();
}

void
Stream::pump()
{
    if (running_ || ops_.empty())
        return;
    running_ = true;
    cur_ = std::move(ops_.front());
    ops_.pop_front();
    curStart_ = queue_.now();

    // Every callback below may run opDone(), which can pump the next
    // op into cur_: take what an op still needs out of cur_ first.
    switch (cur_.kind) {
      case OpKind::Kernel:
        kernelBusy_ += cur_.duration;
        queue_.scheduleAfter(cur_.duration, [this] { landOp(); });
        break;
      case OpKind::Copy:
        cur_.fabric->transfer(cur_.src, cur_.dst, cur_.bytes,
                              [this] { landOp(); });
        break;
      case OpKind::Wait: {
        const std::shared_ptr<CudaEvent> event = std::move(cur_.event);
        event->onSignal([this] {
            // Remember who satisfied the wait; the next record on
            // this stream picks it up as an event-wait edge.
            if (profiler_)
                pendingDeps_.push_back(profiler_->currentCauseId());
            opDone();
        });
        break;
      }
      case OpKind::Signal: {
        const std::shared_ptr<CudaEvent> event = std::move(cur_.event);
        // Waiters run synchronously under this stream's last record
        // as ambient cause, so cross-stream event edges resolve.
        {
            profiling::CauseScope scope(
                lastRec_ == profiling::kNoRecord ? nullptr : profiler_,
                profiling::CauseToken(lastRec_));
            event->signal();
        }
        opDone();
        break;
      }
      case OpKind::HostFn: {
        const std::function<void()> fn = std::move(cur_.fn);
        if (fn) {
            profiling::CauseScope scope(
                lastRec_ == profiling::kNoRecord ? nullptr : profiler_,
                profiling::CauseToken(lastRec_));
            fn();
        }
        opDone();
        break;
      }
    }
}

void
Stream::landOp()
{
    if (!profiler_) {
        opDone();
        return;
    }
    pendingDeps_.push_back(lastRec_);
    pendingDeps_.push_back(cur_.issueCause.id());
    lastRec_ = cur_.kind == OpKind::Kernel
                   ? profiler_->recordKernel(cur_.label, deviceId_,
                                             curStart_,
                                             curStart_ + cur_.duration,
                                             name_, pendingDeps_)
                   : profiler_->recordCopy(cur_.label, cur_.src,
                                           cur_.dst, cur_.bytes,
                                           curStart_, queue_.now(), 0,
                                           pendingDeps_);
    pendingDeps_.clear();
    profiling::CauseScope scope(profiler_, profiling::CauseToken(lastRec_));
    opDone();
}

void
Stream::opDone()
{
    running_ = false;
    pump();
    checkDrained();
}

} // namespace dgxsim::cuda
