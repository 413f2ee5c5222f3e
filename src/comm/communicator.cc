#include "comm/communicator.hh"

#include "cuda/kernel_model.hh"
#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::comm {

const char *
netAlgoName(NetAlgo algo)
{
    return algo == NetAlgo::Ring ? "ring" : "tree";
}

NetAlgo
parseNetAlgo(const std::string &name)
{
    if (name == "ring")
        return NetAlgo::Ring;
    if (name == "tree")
        return NetAlgo::Tree;
    sim::fatal("unknown net algo '", name, "'",
               sim::didYouMean(name, {"ring", "tree"}),
               " (want ring or tree)");
}

Communicator::Communicator(CommContext ctx, CommConfig cfg)
    : ctx_(std::move(ctx)), cfg_(cfg)
{
    if (!ctx_.queue || !ctx_.fabric)
        sim::fatal("communicator needs a queue and a fabric");
    if (ctx_.gpus.empty())
        sim::fatal("communicator needs at least one GPU");
    for (hw::NodeId g : ctx_.gpus) {
        if (ctx_.fabric->topology().nodeKind(g) != hw::NodeKind::Gpu)
            sim::fatal("node ", g, " is not a GPU");
    }
}

Scheduler &
Communicator::scheduler()
{
    if (!sched_) {
        SchedulerLimits limits;
        limits.pipelined = pipelined();
        limits.maxInFlightChunks = maxInFlightChunks();
        sched_ = makeScheduler(cfg_.scheduler, cfg_.partitionBytes,
                               cfg_.creditBytes, limits);
    }
    return *sched_;
}

void
Communicator::enqueue(OpKind kind, sim::Bytes bytes, int priority,
                      Callback done)
{
    scheduler().submit(kind, bytes, priority, std::move(done),
                       profiling::currentCause(ctx_.profiler));
    pump();
}

void
Communicator::reduce(sim::Bytes bytes, Callback done)
{
    enqueue(OpKind::Reduce, bytes, 0, std::move(done));
}

void
Communicator::reduce(sim::Bytes bytes, int priority, Callback done)
{
    enqueue(OpKind::Reduce, bytes, priority, std::move(done));
}

void
Communicator::broadcast(sim::Bytes bytes, Callback done)
{
    enqueue(OpKind::Broadcast, bytes, 0, std::move(done));
}

void
Communicator::broadcast(sim::Bytes bytes, int priority, Callback done)
{
    enqueue(OpKind::Broadcast, bytes, priority, std::move(done));
}

void
Communicator::allReduce(sim::Bytes bytes, Callback done)
{
    enqueue(OpKind::AllReduce, bytes, 0, std::move(done));
}

void
Communicator::allReduce(sim::Bytes bytes, int priority, Callback done)
{
    enqueue(OpKind::AllReduce, bytes, priority, std::move(done));
}

void
Communicator::doAllReduce(sim::Bytes bytes, Callback done)
{
    // Parameter-server emulation of an all-reduce.
    doReduce(bytes, [this, bytes, done = std::move(done)]() mutable {
        doBroadcast(bytes, std::move(done));
    });
}

void
Communicator::dispatch(OpKind kind, sim::Bytes bytes, Callback finish)
{
    switch (kind) {
      case OpKind::Reduce:
        doReduce(bytes, std::move(finish));
        break;
      case OpKind::Broadcast:
        doBroadcast(bytes, std::move(finish));
        break;
      case OpKind::AllReduce:
        doAllReduce(bytes, std::move(finish));
        break;
      case OpKind::Copy:
        sim::fatal("Copy ops are pumped by StagePump, not a "
                   "communicator");
    }
}

void
Communicator::onIdle(Callback fn)
{
    if (idle()) {
        fn();
        return;
    }
    idleWaiters_.push_back(std::move(fn));
}

profiling::Name
Communicator::chunkLane(profiling::Name base) const
{
    return chunkLaneSuffix_.empty()
               ? base
               : profiling::Name(base.str() + chunkLaneSuffix_);
}

void
Communicator::pump()
{
    // Admit as many chunks as the policy's window allows. Under FIFO
    // this replays the legacy pump loop bit-exactly: serial
    // communicators admit one whole op at a time (the next pump runs
    // from its completion), pipelined ones drain the queue
    // immediately.
    SchedChunk chunk;
    while (scheduler().next(chunk)) {
        auto finish = [this, chunk]() mutable {
            const bool opComplete = sched_->finishChunk(chunk);
            Callback done;
            if (opComplete)
                done = std::move(chunk.op->done);
            if (done)
                done();
            pump();
            notifyIfIdle();
        };
        // The chunk runs under the op's enqueue-time cause, so the
        // implementation's first hops inherit the issuing kvstore
        // API as their causal parent.
        profiling::CauseScope scope(ctx_.profiler, chunk.op->cause);
        // FIFO keeps the legacy lane names (they are folded into the
        // determinism digest); the concurrent policies give every
        // chunk its own serialized lane.
        if (cfg_.scheduler != SchedulerPolicy::Fifo)
            chunkLaneSuffix_ = ".c" + std::to_string(chunk.tag);
        dispatchPriority_ = chunk.op->priority;
        // Compression needs at least two GPUs to have a wire to
        // shrink; `none` and single-GPU sets take the legacy path
        // untouched (zero new events, bit-exact digests).
        if (cfg_.compression == Compressor::None ||
            ctx_.gpus.size() < 2) {
            dispatch(chunk.op->kind, chunk.bytes, std::move(finish));
        } else {
            dispatchCompressed(chunk.op->kind, chunk.bytes, chunk.tag,
                               std::move(finish));
        }
        chunkLaneSuffix_.clear();
        dispatchPriority_ = 0;
    }
}

void
Communicator::dispatchCompressed(OpKind kind, sim::Bytes bytes,
                                 std::uint64_t tag, Callback finish)
{
    const Compressor comp = cfg_.compression;
    const sim::Bytes wire =
        compressedWireBytes(comp, bytes, cfg_.compressRatio);
    // Encode/decode kernels get their own per-chunk lane: pipelined
    // communicators (NCCL under FIFO) may have many chunks' encode
    // kernels in flight at once, and per-device lanes must stay
    // serialized for the audit.
    const profiling::Name lane("comm.z" + std::to_string(tag));
    // The dispatch window closes synchronously; save what the
    // deferred wire dispatch must restore.
    const std::string suffix = chunkLaneSuffix_;
    const int priority = dispatchPriority_;

    // Encode runs wherever a gradient enters the wire, decode
    // wherever a compressed buffer leaves it: workers -> root for a
    // reduce, root -> workers for a broadcast, everyone for a fused
    // all-reduce.
    std::vector<hw::NodeId> senders, receivers;
    switch (kind) {
      case OpKind::Reduce:
        senders.assign(ctx_.gpus.begin() + 1, ctx_.gpus.end());
        receivers.assign(ctx_.gpus.begin(), ctx_.gpus.begin() + 1);
        break;
      case OpKind::Broadcast:
        senders.assign(ctx_.gpus.begin(), ctx_.gpus.begin() + 1);
        receivers.assign(ctx_.gpus.begin() + 1, ctx_.gpus.end());
        break;
      case OpKind::AllReduce:
        senders = ctx_.gpus;
        receivers = ctx_.gpus;
        break;
      case OpKind::Copy:
        sim::fatal("Copy ops are pumped by StagePump, not a "
                   "communicator");
    }

    const CompressionKernelCost enc =
        compressKernelCost(comp, bytes, wire);
    const CompressionKernelCost dec =
        decompressKernelCost(comp, bytes, wire);

    auto decompress = [this, comp, lane, dec,
                       receivers = std::move(receivers),
                       finish = std::move(finish)]() mutable {
        auto pending =
            std::make_shared<int>(static_cast<int>(receivers.size()));
        auto fin = std::make_shared<Callback>(std::move(finish));
        const profiling::Name kernel(decompressKernelName(comp));
        for (hw::NodeId gpu : receivers) {
            runKernelOnLane(kernel, lane, gpu,
                            dec.flops, dec.bytes, [pending, fin]() {
                                if (--*pending == 0)
                                    (*fin)();
                            });
        }
    };

    auto transmit = [this, kind, wire, suffix, priority,
                     decompress = std::move(decompress)]() mutable {
        // Reopen the dispatch window for the implementation's
        // synchronous part, exactly as pump() would have.
        chunkLaneSuffix_ = suffix;
        dispatchPriority_ = priority;
        dispatch(kind, wire, std::move(decompress));
        chunkLaneSuffix_.clear();
        dispatchPriority_ = 0;
    };

    auto pending =
        std::make_shared<int>(static_cast<int>(senders.size()));
    auto next = std::make_shared<Callback>(std::move(transmit));
    const profiling::Name kernel(compressKernelName(comp));
    for (hw::NodeId gpu : senders) {
        runKernelOnLane(kernel, lane, gpu, enc.flops,
                        enc.bytes, [pending, next]() {
                            if (--*pending == 0)
                                (*next)();
                        });
    }
}

void
Communicator::notifyIfIdle()
{
    if (idle() && !idleWaiters_.empty()) {
        std::vector<Callback> waiters;
        waiters.swap(idleWaiters_);
        for (auto &w : waiters)
            w();
    }
}

void
Communicator::runKernel(profiling::Name kernel_name, hw::NodeId gpu,
                        double flops, double bytes, Callback done)
{
    static const profiling::Name comm("comm");
    runKernelOnLane(kernel_name, comm, gpu, flops, bytes, std::move(done));
}

void
Communicator::runKernelOnLane(profiling::Name kernel_name,
                              profiling::Name lane, hw::NodeId gpu,
                              double flops, double bytes, Callback done)
{
    const sim::Tick dur = cuda::kernelDuration(
        ctx_.gpuSpec, cuda::KernelCost{flops, bytes, false});
    const sim::Tick start = ctx_.queue->now();
    // The ambient cause at issue time (the collective's dispatch
    // cause, or the copy that delivered this kernel's input) is the
    // kernel's causal parent.
    const profiling::CauseToken issue = profiling::currentCause(ctx_.profiler);
    ctx_.queue->scheduleAfter(
        dur, [this, kernel_name, lane, gpu, start, dur, issue,
              done = std::move(done)]() {
            if (ctx_.profiler) {
                // All runKernel call sites serialize per device and
                // lane (the op queue for the parameter server, the
                // local/all-reduce gates for NCCL, the lock-step
                // rounds of the hierarchical inter phase), so one
                // lane per device suffices for the audit.
                const profiling::RecordId id =
                    ctx_.profiler->recordKernel(kernel_name, gpu,
                                                start, start + dur,
                                                lane, {issue.id()});
                profiling::CauseScope scope(ctx_.profiler,
                                            profiling::CauseToken(id));
                if (done)
                    done();
                return;
            }
            if (done)
                done();
        });
}

} // namespace dgxsim::comm
