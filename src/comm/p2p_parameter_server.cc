#include "comm/p2p_parameter_server.hh"

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
P2pParameterServer::reduceLevel(Slot slot)
{
    const std::size_t n = ctx_.gpus.size();
    Reduction &red = reductions_[slot];
    const std::size_t stride = red.stride;
    if (stride >= n) {
        const Callback done = std::move(red.done);
        reductions_.release(slot);
        done();
        return;
    }

    // Pairs (i, i+stride) transfer concurrently; barrier, then next
    // level (MXNet's comm tree synchronizes level by level because
    // the destination buffer of the next level is the result of this
    // one). Every level below n has the pair (0, stride).
    int pairs = 0;
    for (std::size_t i = 0; i + stride < n; i += 2 * stride)
        ++pairs;
    const sim::Bytes bytes = red.bytes;
    const profiling::Name lane = red.lane;
    const Callback level_done = join(pairs, [this, slot] {
        reductions_[slot].stride *= 2;
        reduceLevel(slot);
    });
    // Ambient at this point: the issuing kvstore API for level 1, or
    // the previous level's last gradAccumulate kernel — either way
    // the causal parent of this level's copies.
    for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
        copyToPeer(kPtoP, ctx_.gpus[i + stride], ctx_.gpus[i], bytes,
                   kGradAccumulate, lane, level_done);
    }
}

void
P2pParameterServer::doReduce(sim::Bytes bytes, Callback done)
{
    if (ctx_.gpus.size() == 1) {
        // Single GPU: gradients are already in place; no copies and
        // no extra kernels (the P2P baseline of Table II). Preserve
        // the issuing cause across the deferred completion.
        skip(std::move(done));
        return;
    }
    // Capture the per-chunk lane now: this is the synchronous part
    // of the dispatch, the only window where chunkLane() is valid.
    static const profiling::Name comm("comm");
    const Slot slot = reductions_.acquire();
    Reduction &red = reductions_[slot];
    red.bytes = bytes;
    red.stride = 1;
    red.lane = chunkLane(comm);
    red.done = std::move(done);
    reduceLevel(slot);
}

void
P2pParameterServer::doBroadcast(sim::Bytes bytes, Callback done)
{
    const std::size_t n = ctx_.gpus.size();
    if (n == 1) {
        skip(std::move(done));
        return;
    }
    // Flat fan-out: the server pushes the updated weights to every
    // worker at once; the fabric stages non-neighbor copies through
    // relay GPUs, so links such as GPU0-GPU2 carry both the direct
    // copy and relayed traffic — the contention the paper blames for
    // sub-linear 8-GPU scaling. The barrier (and with it the
    // broadcast completion) descends from the copy that released it.
    const Callback fanout_done =
        join(static_cast<int>(n) - 1, std::move(done));
    for (std::size_t i = 1; i < n; ++i) {
        copyToPeer(kPtoP, ctx_.gpus[0], ctx_.gpus[i], bytes, {}, {},
                   fanout_done);
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
