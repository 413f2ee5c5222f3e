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
    if (cfg_.compression != Compressor::None) {
        encodeKernel_ = profiling::Name(compressKernelName(cfg_.compression));
        decodeKernel_ =
            profiling::Name(decompressKernelName(cfg_.compression));
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
        const OpKind kind = chunk.op->kind;
        const sim::Bytes bytes = chunk.bytes;
        const std::uint64_t tag = chunk.tag;
        // The chunk runs under the op's enqueue-time cause, so the
        // implementation's first hops inherit the issuing kvstore
        // API as their causal parent.
        profiling::CauseScope scope(ctx_.profiler, chunk.op->cause);
        dispatchPriority_ = chunk.op->priority;
        const Slot slot = chunks_.acquire();
        chunks_[slot] = std::move(chunk);
        Callback finish = [this, slot] { finishChunk(slot); };
        // FIFO keeps the legacy lane names (they are folded into the
        // determinism digest); the concurrent policies give every
        // chunk its own serialized lane.
        if (cfg_.scheduler != SchedulerPolicy::Fifo)
            chunkLaneSuffix_ = ".c" + std::to_string(tag);
        // Compression needs at least two GPUs to have a wire to
        // shrink; `none` and single-GPU sets take the legacy path
        // untouched (zero new events, bit-exact digests).
        if (cfg_.compression == Compressor::None ||
            ctx_.gpus.size() < 2) {
            dispatch(kind, bytes, std::move(finish));
        } else {
            dispatchCompressed(kind, bytes, tag, std::move(finish));
        }
        chunkLaneSuffix_.clear();
        dispatchPriority_ = 0;
    }
}

void
Communicator::finishChunk(Slot slot)
{
    const SchedChunk chunk = std::move(chunks_[slot]);
    chunks_.release(slot);
    Callback done;
    if (sched_->finishChunk(chunk))
        done = std::move(chunk.op->done);
    if (done)
        done();
    pump();
    notifyIfIdle();
}

std::span<const hw::NodeId>
Communicator::codecGpus(OpKind kind, bool senders) const
{
    const std::span<const hw::NodeId> all(ctx_.gpus);
    switch (kind) {
      case OpKind::Reduce:
        return senders ? all.subspan(1) : all.first(1);
      case OpKind::Broadcast:
        return senders ? all.first(1) : all.subspan(1);
      case OpKind::AllReduce:
        return all;
      case OpKind::Copy:
        break;
    }
    sim::fatal("Copy ops are pumped by StagePump, not a communicator");
}

void
Communicator::dispatchCompressed(OpKind kind, sim::Bytes bytes,
                                 std::uint64_t tag, Callback finish)
{
    const Compressor comp = cfg_.compression;
    const sim::Bytes wire =
        compressedWireBytes(comp, bytes, cfg_.compressRatio);
    // Encode runs wherever a gradient enters the wire, decode
    // wherever a compressed buffer leaves it: workers -> root for a
    // reduce, root -> workers for a broadcast, everyone for a fused
    // all-reduce.
    const std::span<const hw::NodeId> senders = codecGpus(kind, true);
    const Slot slot = compressed_.acquire();
    Compressed &op = compressed_[slot];
    op.kind = kind;
    op.wire = wire;
    // Encode/decode kernels get their own per-chunk lane: pipelined
    // communicators (NCCL under FIFO) may have many chunks' encode
    // kernels in flight at once, and per-device lanes must stay
    // serialized for the audit.
    op.lane = profiling::Name("comm.z" + std::to_string(tag));
    // The dispatch window closes synchronously; save what the
    // deferred wire dispatch must restore.
    op.suffix = chunkLaneSuffix_;
    op.priority = dispatchPriority_;
    op.dec = decompressKernelCost(comp, bytes, wire);
    op.finish = std::move(finish);
    const profiling::Name lane = op.lane;
    const CompressionKernelCost enc = compressKernelCost(comp, bytes, wire);
    const Callback encoded =
        join(static_cast<int>(senders.size()),
             [this, slot] { transmitCompressed(slot); });
    for (hw::NodeId gpu : senders) {
        runKernelOnLane(encodeKernel_, lane, gpu, enc.flops, enc.bytes,
                        encoded);
    }
}

void
Communicator::transmitCompressed(Slot slot)
{
    const Compressed &op = compressed_[slot];
    // Reopen the dispatch window for the implementation's
    // synchronous part, exactly as pump() would have.
    chunkLaneSuffix_ = op.suffix;
    dispatchPriority_ = op.priority;
    dispatch(op.kind, op.wire, [this, slot] { decompress(slot); });
    chunkLaneSuffix_.clear();
    dispatchPriority_ = 0;
}

void
Communicator::decompress(Slot slot)
{
    const Compressed &op = compressed_[slot];
    const std::span<const hw::NodeId> receivers =
        codecGpus(op.kind, false);
    const profiling::Name lane = op.lane;
    const CompressionKernelCost dec = op.dec;
    const Callback decoded =
        join(static_cast<int>(receivers.size()), [this, slot] {
            const Callback finish = std::move(compressed_[slot].finish);
            compressed_.release(slot);
            finish();
        });
    for (hw::NodeId gpu : receivers) {
        runKernelOnLane(decodeKernel_, lane, gpu, dec.flops, dec.bytes,
                        decoded);
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
    const Slot slot = kernels_.acquire();
    KernelRun &run = kernels_[slot];
    run.kernel = kernel_name;
    run.lane = lane;
    run.gpu = gpu;
    run.start = ctx_.queue->now();
    run.dur = dur;
    // The ambient cause at issue time (the collective's dispatch
    // cause, or the copy that delivered this kernel's input) is the
    // kernel's causal parent.
    run.issue = profiling::currentCause(ctx_.profiler);
    run.done = std::move(done);
    ctx_.queue->scheduleAfter(dur, [this, slot] { kernelDone(slot); });
}

void
Communicator::kernelDone(Slot slot)
{
    KernelRun &run = kernels_[slot];
    profiling::RecordId id = profiling::kNoRecord;
    if (ctx_.profiler) {
        // All runKernel call sites serialize per device and lane (the
        // op queue for the parameter server, the local/all-reduce
        // gates for NCCL, the lock-step rounds of the hierarchical
        // inter phase), so one lane per device suffices for the audit.
        id = ctx_.profiler->recordKernel(run.kernel, run.gpu, run.start,
                                         run.start + run.dur, run.lane,
                                         {run.issue.id()});
    }
    const Callback done = std::move(run.done);
    kernels_.release(slot);
    profiling::CauseScope scope(ctx_.profiler, profiling::CauseToken(id));
    if (done)
        done();
}

void
Communicator::copyToPeer(profiling::Name label, hw::NodeId src,
                         hw::NodeId dst, sim::Bytes bytes,
                         profiling::Name accumulate, profiling::Name lane,
                         Callback done)
{
    const Slot slot = copies_.acquire();
    PeerCopy &copy = copies_[slot];
    copy.label = label;
    copy.accumulate = accumulate;
    copy.lane = lane;
    copy.src = src;
    copy.dst = dst;
    copy.bytes = bytes;
    copy.start = ctx_.queue->now();
    copy.cause = profiling::currentCause(ctx_.profiler);
    copy.done = std::move(done);
    ctx_.fabric->transfer(src, dst, bytes,
                          [this, slot] { peerCopyLanded(slot); });
}

void
Communicator::peerCopyLanded(Slot slot)
{
    PeerCopy &copy = copies_[slot];
    profiling::RecordId copy_id = profiling::kNoRecord;
    if (ctx_.profiler) {
        copy_id = ctx_.profiler->recordCopy(
            copy.label, copy.src, copy.dst, copy.bytes, copy.start,
            ctx_.queue->now(), 0, {copy.cause.id()});
    }
    const profiling::Name accumulate = copy.accumulate;
    const profiling::Name lane = copy.lane;
    const hw::NodeId dst = copy.dst;
    const sim::Bytes bytes = copy.bytes;
    Callback done = std::move(copy.done);
    copies_.release(slot);
    // The receiver-side work (accumulate kernel or barrier) descends
    // from the copy that delivered it.
    profiling::CauseScope scope(ctx_.profiler,
                                profiling::CauseToken(copy_id));
    if (accumulate.empty()) {
        done();
        return;
    }
    runKernelOnLane(accumulate, lane, dst, bytes / 4.0, 3.0 * bytes,
                    std::move(done));
}

Communicator::Callback
Communicator::join(int count, Callback done)
{
    const Slot slot = joins_.acquire();
    joins_[slot].pending = count;
    joins_[slot].done = std::move(done);
    return [this, slot] { arrive(slot); };
}

void
Communicator::arrive(Slot slot)
{
    if (--joins_[slot].pending > 0)
        return;
    const Callback done = std::move(joins_[slot].done);
    joins_.release(slot);
    done();
}

void
Communicator::skip(Callback done)
{
    const Slot slot = joins_.acquire();
    joins_[slot].cause = profiling::currentCause(ctx_.profiler);
    joins_[slot].done = std::move(done);
    ctx_.queue->scheduleAfter(0, [this, slot] {
        profiling::CauseScope scope(ctx_.profiler, joins_[slot].cause);
        const Callback next = std::move(joins_[slot].done);
        joins_.release(slot);
        next();
    });
}

} // namespace dgxsim::comm
