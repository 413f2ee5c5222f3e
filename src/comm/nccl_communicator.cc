#include "comm/nccl_communicator.hh"

#include <algorithm>

#include "comm/ring.hh"
#include "sim/logging.hh"

namespace dgxsim::comm {

NcclCommunicator::NcclCommunicator(CommContext ctx, CommConfig cfg)
    : Communicator(std::move(ctx), cfg)
{
    ring_ = findNvlinkRing(ctx_.fabric->topology(), ctx_.gpus);
    if (ring_.empty()) {
        sim::warn("no NVLink ring over the requested GPUs; falling "
                  "back to the given order with routed hops");
        ring_ = ctx_.gpus;
    }
    // Rotate so the root (parameter owner) leads the ring.
    auto it = std::find(ring_.begin(), ring_.end(), ctx_.gpus.front());
    if (it == ring_.end())
        sim::panic("root GPU missing from its own ring");
    std::rotate(ring_.begin(), it, ring_.end());

    // Reversed-direction ring (root still first): r0, r_{n-1}, ...
    ringRev_ = ring_;
    std::reverse(ringRev_.begin() + 1, ringRev_.end());

    // Data flows around the ring and terminates at the root.
    reducePath_.assign(ring_.begin() + 1, ring_.end());
    reducePath_.push_back(ring_.front());
    reducePathRev_.assign(ringRev_.begin() + 1, ringRev_.end());
    reducePathRev_.push_back(ringRev_.front());

    const std::size_t hops = ring_.size() > 1 ? ring_.size() - 1 : 1;
    reduceGates_.resize(hops);
    bcastGates_.resize(hops);
    reduceGatesRev_.resize(hops);
    bcastGatesRev_.resize(hops);
    const auto lanes = [hops](const std::string &base) {
        std::vector<profiling::Name> out;
        for (std::size_t h = 0; h < hops; ++h)
            out.emplace_back(base + ".h" + std::to_string(h));
        return out;
    };
    reduceLanes_ = lanes("nccl.red");
    bcastLanes_ = lanes("nccl.bc");
    reduceLanesRev_ = lanes("nccl.redR");
    bcastLanesRev_ = lanes("nccl.bcR");
}

int
NcclCommunicator::chunksFor(sim::Bytes bytes) const
{
    if (bytes == 0)
        return 1;
    const sim::Bytes per = std::max<sim::Bytes>(cfg_.ringChunkBytes, 1);
    const sim::Bytes chunks = (bytes + per - 1) / per;
    return static_cast<int>(std::clamp<sim::Bytes>(
        chunks, 1, static_cast<sim::Bytes>(cfg_.maxChunks)));
}

namespace {

const profiling::Name kNcclCopy("NCCL");
const profiling::Name kReduceKernel("ncclReduceKernel");
const profiling::Name kBroadcastKernel("ncclBroadcastKernel");
const profiling::Name kAllReduceKernel("ncclAllReduceKernel");
const profiling::Name kAllReduceLane("nccl.ar");

} // namespace

sim::Tick
NcclCommunicator::hopKernelTicks(bool accumulate, sim::Bytes bytes) const
{
    const double membytes =
        (accumulate ? 3.0 : 2.0) * static_cast<double>(bytes);
    return static_cast<sim::Tick>(membytes /
                                  ctx_.gpuSpec.memBytesPerTick()) +
           sim::usToTicks(cfg_.ringHopLatencyUs);
}

void
NcclCommunicator::finishPass(Slot slot)
{
    const Callback done = std::move(passes_[slot].done);
    passes_.release(slot);
    done();
}

void
NcclCommunicator::ringPass(const std::vector<hw::NodeId> &path,
                           std::vector<HopGate> &gates, sim::Bytes bytes,
                           profiling::Name kernel_name,
                           const std::vector<profiling::Name> &hop_lanes,
                           bool accumulate, Callback done)
{
    const int nchunks = chunksFor(bytes);
    const Slot slot = passes_.acquire();
    Pass &pass = passes_[slot];
    pass.path = &path;
    pass.gates = &gates;
    pass.kernelName = kernel_name;
    pass.hopLanes = &hop_lanes;
    pass.remaining = nchunks;
    pass.done = std::move(done);
    pass.opCause = profiling::currentCause(ctx_.profiler);

    // Hop gates keep chunks (and successive collectives) ordered so
    // the pipeline staggers. Each (chunk, hop) chains copy -> hop
    // kernel -> next hop; the previous hop's kernel record is the
    // copy's causal parent (hop 0 descends from the issuing
    // collective instead).
    const sim::Bytes base = bytes / nchunks;
    for (int c = 0; c < nchunks; ++c) {
        const Slot h = hops_.acquire();
        Hop &hop = hops_[h];
        hop.pass = slot;
        hop.hop = 0;
        hop.prev = profiling::kNoRecord;
        hop.accumulate = accumulate;
        hop.bytes = c == 0 ? bytes - base * (nchunks - 1) : base;
        enterHop(h);
    }
}

void
NcclCommunicator::enterHop(Slot slot)
{
    const Hop &hop = hops_[slot];
    (*passes_[hop.pass].gates)[hop.hop].acquire([this, slot] {
        Hop &hop = hops_[slot];
        const std::vector<hw::NodeId> &path = *passes_[hop.pass].path;
        hop.src = path[hop.hop];
        hop.dst = path[hop.hop + 1];
        // Protocol overhead: the direct-access copy kernels move
        // extra FIFO/flag traffic, so the wire carries more than the
        // payload.
        hop.wire = static_cast<sim::Bytes>(
            hop.bytes / std::max(0.05, cfg_.ncclLinkEfficiency));
        sendHop(slot);
    });
}

void
NcclCommunicator::sendHop(Slot slot)
{
    Hop &hop = hops_[slot];
    hop.start = ctx_.queue->now();
    ctx_.fabric->transfer(hop.src, hop.dst, hop.wire,
                          [this, slot] { hopLanded(slot); });
}

void
NcclCommunicator::hopLanded(Slot slot)
{
    Hop &hop = hops_[slot];
    hop.copy = profiling::kNoRecord;
    if (ctx_.profiler) {
        // Payload bytes plus the wire bytes that set the duration, so
        // rate math stays honest.
        hop.copy = ctx_.profiler->recordCopy(
            kNcclCopy, hop.src, hop.dst, hop.bytes, hop.start,
            ctx_.queue->now(), hop.wire,
            {hop.prev != profiling::kNoRecord
                 ? hop.prev
                 : passes_[hop.pass].opCause.id()});
    }
    hop.kdur = hopKernelTicks(hop.accumulate, hop.bytes);
    hop.kstart = ctx_.queue->now();
    ctx_.queue->scheduleAfter(hop.kdur,
                              [this, slot] { hopKernelDone(slot); });
}

void
NcclCommunicator::hopKernelDone(Slot slot)
{
    const Hop &hop = hops_[slot];
    const Slot p = hop.pass;
    Pass &pass = passes_[p];
    if (!pass.hopLanes) {
        profiling::RecordId kid = profiling::kNoRecord;
        if (ctx_.profiler) {
            // All-reduce steps serialize on the collective-wide gate;
            // each GPU sees one kernel per step, so a per-GPU lane is
            // ordered.
            kid = ctx_.profiler->recordKernel(
                kAllReduceKernel, hop.dst, hop.kstart,
                hop.kstart + hop.kdur, kAllReduceLane, {hop.copy});
        }
        hops_.release(slot);
        if (--pass.remaining == 0) {
            // This kernel gates the next step (and the collective's
            // completion).
            pass.prevStep = kid;
            profiling::CauseScope scope(ctx_.profiler,
                                        profiling::CauseToken(kid));
            allReduceStep(p);
        }
        return;
    }
    profiling::RecordId kid = profiling::kNoRecord;
    if (ctx_.profiler) {
        // Kernels behind one hop gate serialize; lane+hop names that
        // ordering domain for the audit.
        kid = ctx_.profiler->recordKernel(
            pass.kernelName, hop.dst, hop.kstart, hop.kstart + hop.kdur,
            (*pass.hopLanes)[hop.hop], {hop.copy});
    }
    // Continue (and finish) under this hop's kernel as ambient cause.
    profiling::CauseScope scope(ctx_.profiler, profiling::CauseToken(kid));
    const std::size_t at = hop.hop;
    const bool last = at + 2 >= pass.path->size();
    (*pass.gates)[at].release();
    if (!last) {
        hops_[slot].hop = at + 1;
        hops_[slot].prev = kid;
        enterHop(slot);
    } else {
        hops_.release(slot);
        if (--passes_[p].remaining == 0)
            finishPass(p);
    }
}

void
NcclCommunicator::runLocal(profiling::Name kernel_name, double flops,
                           sim::Bytes bytes, Callback done)
{
    const Slot slot = passes_.acquire();
    Pass &pass = passes_[slot];
    pass.kernelName = kernel_name;
    pass.flops = flops;
    pass.bytes = bytes;
    pass.done = std::move(done);
    pass.opCause = profiling::currentCause(ctx_.profiler);
    localGate_.acquire([this, slot] {
        const Pass &pass = passes_[slot];
        // Re-establish the issuing collective's cause: the gate may
        // run this after an unrelated op's completion.
        profiling::CauseScope scope(ctx_.profiler, pass.opCause);
        runKernel(pass.kernelName, ring_[0], pass.flops,
                  2.0 * pass.bytes, [this, slot] {
                      localGate_.release();
                      finishPass(slot);
                  });
    });
}

void
NcclCommunicator::doReduce(sim::Bytes bytes, Callback done)
{
    if (ring_.size() == 1) {
        runLocal(kReduceKernel, bytes / 4.0, bytes, std::move(done));
        return;
    }
    // With dual rings, half the payload travels each direction and
    // the two halves use opposite link channels concurrently.
    const sim::Bytes half = bytes / 2;
    if (cfg_.ncclRings < 2 || half == 0) {
        // A sub-2-byte payload leaves the reversed ring with nothing
        // to carry; running it anyway would charge a full pass of
        // hop latencies and kernels for zero bytes.
        ringPass(reducePath_, reduceGates_, bytes, kReduceKernel,
                 reduceLanes_, true, std::move(done));
        return;
    }
    const Callback half_done = join(2, std::move(done));
    ringPass(reducePath_, reduceGates_, bytes - half, kReduceKernel,
             reduceLanes_, true, half_done);
    ringPass(reducePathRev_, reduceGatesRev_, half, kReduceKernel,
             reduceLanesRev_, true, half_done);
}

void
NcclCommunicator::doBroadcast(sim::Bytes bytes, Callback done)
{
    if (ring_.size() == 1) {
        runLocal(kBroadcastKernel, 0.0, bytes, std::move(done));
        return;
    }
    const sim::Bytes half = bytes / 2;
    if (cfg_.ncclRings < 2 || half == 0) {
        // Same empty-half guard as doReduce.
        ringPass(ring_, bcastGates_, bytes, kBroadcastKernel,
                 bcastLanes_, false, std::move(done));
        return;
    }
    const Callback half_done = join(2, std::move(done));
    ringPass(ring_, bcastGates_, bytes - half, kBroadcastKernel,
             bcastLanes_, false, half_done);
    ringPass(ringRev_, bcastGatesRev_, half, kBroadcastKernel,
             bcastLanesRev_, false, half_done);
}

void
NcclCommunicator::doAllReduce(sim::Bytes bytes, Callback done)
{
    if (ring_.size() == 1) {
        runLocal(kAllReduceKernel, bytes / 4.0, bytes, std::move(done));
        return;
    }
    // Lock-step ring all-reduce: the payload splits into n shards;
    // 2*(n-1) steps, each moving one shard across every ring link
    // concurrently (reduce-scatter then all-gather). Per-GPU wire
    // traffic is 2*(n-1)/n * bytes — the canonical ring bound.
    const int n = static_cast<int>(ring_.size());
    const Slot slot = passes_.acquire();
    Pass &pass = passes_[slot];
    pass.hopLanes = nullptr;
    pass.step = 0;
    pass.totalSteps = 2 * (n - 1);
    pass.bytes = (bytes + n - 1) / n;
    pass.done = std::move(done);
    pass.opCause = profiling::currentCause(ctx_.profiler);
    pass.prevStep = profiling::kNoRecord;
    allReduceGate_.acquire([this, slot] { allReduceStep(slot); });
}

void
NcclCommunicator::allReduceStep(Slot slot)
{
    Pass &pass = passes_[slot];
    if (pass.step == pass.totalSteps) {
        allReduceGate_.release();
        finishPass(slot);
        return;
    }
    const int n = static_cast<int>(ring_.size());
    const bool reduce_phase = pass.step < n - 1;
    ++pass.step;
    pass.remaining = n;
    // Each lock step waits for the whole previous step; its last
    // kernel (or the issuing API for step 1) is the binding causal
    // parent of every copy.
    const profiling::RecordId prev = pass.prevStep;
    const sim::Bytes shard = pass.bytes;
    for (int i = 0; i < n; ++i) {
        const Slot h = hops_.acquire();
        Hop &hop = hops_[h];
        hop.pass = slot;
        hop.prev = prev;
        hop.accumulate = reduce_phase;
        hop.src = ring_[i];
        hop.dst = ring_[(i + 1) % n];
        hop.bytes = shard;
        hop.wire = static_cast<sim::Bytes>(
            shard / std::max(0.05, cfg_.ncclLinkEfficiency));
        sendHop(h);
    }
}

void
NcclCommunicator::allReduceData(
    std::vector<std::vector<float>> &buffers) const
{
    reduceData(buffers);
    broadcastData(buffers);
}

void
NcclCommunicator::reduceData(
    std::vector<std::vector<float>> &buffers) const
{
    if (buffers.size() != ctx_.gpus.size())
        sim::fatal("need one buffer per GPU");
    if (buffers.size() == 1)
        return;
    // Position of each ring member in the gpus()/buffers order.
    auto index_of = [this](hw::NodeId g) -> std::size_t {
        for (std::size_t i = 0; i < ctx_.gpus.size(); ++i) {
            if (ctx_.gpus[i] == g)
                return i;
        }
        sim::panic("GPU missing from communicator");
    };
    // Carry partial sums around the ring; only the root's buffer is
    // modified, matching the simulated Reduce semantics.
    std::vector<float> carry = buffers[index_of(ring_[1])];
    for (std::size_t k = 2; k < ring_.size(); ++k) {
        const auto &next = buffers[index_of(ring_[k])];
        if (next.size() != carry.size())
            sim::fatal("buffer size mismatch in reduceData");
        for (std::size_t i = 0; i < carry.size(); ++i)
            carry[i] += next[i];
    }
    auto &root = buffers[index_of(ring_[0])];
    if (root.size() != carry.size())
        sim::fatal("buffer size mismatch in reduceData");
    for (std::size_t i = 0; i < root.size(); ++i)
        root[i] += carry[i];
}

void
NcclCommunicator::broadcastData(
    std::vector<std::vector<float>> &buffers) const
{
    if (buffers.size() != ctx_.gpus.size())
        sim::fatal("need one buffer per GPU");
    for (std::size_t i = 1; i < buffers.size(); ++i)
        buffers[i] = buffers[0];
}

} // namespace dgxsim::comm
