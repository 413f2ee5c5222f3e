#include "comm/p2p_parameter_server.hh"

#include <memory>

#include "sim/logging.hh"

namespace dgxsim::comm {

namespace {

const profiling::Name kPtoP("PtoP");
const profiling::Name kGradAccumulate("gradAccumulate");

} // namespace

P2pParameterServer::P2pParameterServer(CommContext ctx, CommConfig cfg)
    : Communicator(std::move(ctx), cfg)
{
}

void
P2pParameterServer::reduceLevel(sim::Bytes bytes, std::size_t stride,
                                profiling::Name lane, Callback done)
{
    const std::size_t n = ctx_.gpus.size();
    if (stride >= n) {
        done();
        return;
    }

    // Pairs (i, i+stride) transfer concurrently; barrier, then next
    // level (MXNet's comm tree synchronizes level by level because
    // the destination buffer of the next level is the result of this
    // one).
    auto pending = std::make_shared<int>(0);
    auto level_done = [this, bytes, stride, lane, pending,
                       done = std::move(done)]() mutable {
        if (--*pending == 0)
            reduceLevel(bytes, stride * 2, lane, std::move(done));
    };

    for (std::size_t i = 0; i + stride < n; i += 2 * stride)
        ++*pending;
    if (*pending == 0) {
        reduceLevel(bytes, stride * 2, lane, std::move(done));
        return;
    }

    // Ambient at this point: the issuing kvstore API for level 1, or
    // the previous level's last gradAccumulate kernel — either way
    // the causal parent of this level's copies.
    const profiling::CauseToken cause = profiling::currentCause(ctx_.profiler);
    for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
        const hw::NodeId dst = ctx_.gpus[i];
        const hw::NodeId src = ctx_.gpus[i + stride];
        const sim::Tick start = ctx_.queue->now();
        ctx_.fabric->transfer(
            src, dst, bytes,
            [this, src, dst, bytes, start, cause, lane,
             level_done]() {
                profiling::RecordId copy_id = profiling::kNoRecord;
                if (ctx_.profiler) {
                    copy_id = ctx_.profiler->recordCopy(
                        kPtoP, src, dst, bytes, start,
                        ctx_.queue->now(), 0, {cause.id()});
                }
                // Accumulate the received gradients into dst's buffer:
                // read two arrays, write one (memory bound); the copy
                // that delivered the operand is its causal parent.
                profiling::CauseScope scope(
                    copy_id == profiling::kNoRecord ? nullptr
                                                    : ctx_.profiler,
                    profiling::CauseToken(copy_id));
                runKernelOnLane(kGradAccumulate, lane, dst,
                                bytes / 4.0, 3.0 * bytes, level_done);
            });
    }
}

void
P2pParameterServer::doReduce(sim::Bytes bytes, Callback done)
{
    if (ctx_.gpus.size() == 1) {
        // Single GPU: gradients are already in place; no copies and
        // no extra kernels (the P2P baseline of Table II). Preserve
        // the issuing cause across the deferred completion.
        ctx_.queue->scheduleAfter(
            0, [this, cause = profiling::currentCause(ctx_.profiler),
                done = std::move(done)]() mutable {
                profiling::CauseScope scope(ctx_.profiler, cause);
                done();
            });
        return;
    }
    // Capture the per-chunk lane now: this is the synchronous part
    // of the dispatch, the only window where chunkLane() is valid.
    static const profiling::Name comm("comm");
    reduceLevel(bytes, 1, chunkLane(comm), std::move(done));
}

void
P2pParameterServer::doBroadcast(sim::Bytes bytes, Callback done)
{
    const std::size_t n = ctx_.gpus.size();
    if (n == 1) {
        ctx_.queue->scheduleAfter(
            0, [this, cause = profiling::currentCause(ctx_.profiler),
                done = std::move(done)]() mutable {
                profiling::CauseScope scope(ctx_.profiler, cause);
                done();
            });
        return;
    }
    // Flat fan-out: the server pushes the updated weights to every
    // worker at once; the fabric stages non-neighbor copies through
    // relay GPUs, so links such as GPU0-GPU2 carry both the direct
    // copy and relayed traffic — the contention the paper blames for
    // sub-linear 8-GPU scaling.
    auto pending = std::make_shared<int>(static_cast<int>(n) - 1);
    auto fanout_done = [pending, done = std::move(done)]() mutable {
        if (--*pending == 0)
            done();
    };
    const profiling::CauseToken cause = profiling::currentCause(ctx_.profiler);
    for (std::size_t i = 1; i < n; ++i) {
        const hw::NodeId src = ctx_.gpus[0];
        const hw::NodeId dst = ctx_.gpus[i];
        const sim::Tick start = ctx_.queue->now();
        ctx_.fabric->transfer(
            src, dst, bytes,
            [this, src, dst, bytes, start, cause,
             fanout_done]() mutable {
                profiling::RecordId copy_id = profiling::kNoRecord;
                if (ctx_.profiler) {
                    copy_id = ctx_.profiler->recordCopy(
                        kPtoP, src, dst, bytes, start,
                        ctx_.queue->now(), 0, {cause.id()});
                }
                // The barrier (and with it the broadcast completion)
                // descends from the copy that released it.
                profiling::CauseScope scope(
                    copy_id == profiling::kNoRecord ? nullptr
                                                    : ctx_.profiler,
                    profiling::CauseToken(copy_id));
                fanout_done();
            });
    }
}

void
P2pParameterServer::reduceData(
    std::vector<std::vector<float>> &buffers) const
{
    if (buffers.size() != ctx_.gpus.size())
        sim::fatal("need one buffer per GPU");
    const std::size_t n = buffers.size();
    for (std::size_t stride = 1; stride < n; stride *= 2) {
        for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
            auto &dst = buffers[i];
            const auto &src = buffers[i + stride];
            if (src.size() != dst.size())
                sim::fatal("buffer size mismatch in reduceData");
            for (std::size_t k = 0; k < dst.size(); ++k)
                dst[k] += src[k];
        }
    }
}

void
P2pParameterServer::broadcastData(
    std::vector<std::vector<float>> &buffers) const
{
    if (buffers.size() != ctx_.gpus.size())
        sim::fatal("need one buffer per GPU");
    for (std::size_t i = 1; i < buffers.size(); ++i)
        buffers[i] = buffers[0];
}

} // namespace dgxsim::comm
