#include "comm/stage_pump.hh"

namespace dgxsim::comm {

namespace {

const profiling::Name kPtoP("PtoP");

} // namespace

StagePump::StagePump(sim::EventQueue &queue, hw::Fabric &fabric,
                     profiling::Profiler &prof, hw::NodeId src,
                     hw::NodeId dst, const CommConfig &cfg)
    : queue_(queue), fabric_(fabric), prof_(prof), src_(src), dst_(dst)
{
    // One tensor's chunks serialize on the boundary link anyway, so
    // a single chunk in flight keeps admission order deterministic
    // while still letting priority/partitioned policies reorder the
    // queue at every chunk completion.
    SchedulerLimits limits;
    limits.pipelined = false;
    limits.maxInFlightChunks = 1;
    sched_ = makeScheduler(cfg.scheduler, cfg.partitionBytes,
                           cfg.creditBytes, limits);
}

void
StagePump::send(sim::Bytes bytes, int priority,
                std::function<void()> done)
{
    if (bytes == 0) {
        const sim::Tick start = queue_.now();
        fabric_.transfer(src_, dst_, 0,
                         [this, start, done = std::move(done)] {
                             prof_.recordCopy(kPtoP, src_, dst_, 0,
                                              start, queue_.now());
                             done();
                         });
        return;
    }
    sched_->submit(OpKind::Copy, bytes, priority, std::move(done),
                   prof_.currentCause());
    pump();
}

void
StagePump::pump()
{
    SchedChunk chunk;
    while (sched_->next(chunk)) {
        const sim::Tick start = queue_.now();
        fabric_.transfer(src_, dst_, chunk.bytes,
                         [this, chunk, start] {
                             prof_.recordCopy(kPtoP, src_, dst_,
                                              chunk.bytes, start,
                                              queue_.now());
                             if (sched_->finishChunk(chunk))
                                 chunk.op->done();
                             pump();
                         });
    }
}

} // namespace dgxsim::comm
