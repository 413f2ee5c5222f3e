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

    const std::size_t hops = ring_.size() > 1 ? ring_.size() - 1 : 1;
    reduceGates_ = std::make_shared<std::vector<HopGate>>(hops);
    bcastGates_ = std::make_shared<std::vector<HopGate>>(hops);
    reduceGatesRev_ = std::make_shared<std::vector<HopGate>>(hops);
    bcastGatesRev_ = std::make_shared<std::vector<HopGate>>(hops);
    localGate_ = std::make_shared<std::vector<HopGate>>(1);
    allReduceGate_ = std::make_shared<std::vector<HopGate>>(1);
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

/** Shared state of one pipelined ring pass. */
struct RingPassState
{
    std::vector<hw::NodeId> path;
    std::vector<sim::Bytes> chunkBytes;
    profiling::Name kernelName;
    /** Per-hop profiler lanes (owned by the communicator). */
    const std::vector<profiling::Name> *hopLanes = nullptr;
    bool accumulate = false;
    int remaining = 0;
    std::function<void()> done;
    /** Cause of the collective (the issuing kvstore API). */
    profiling::CauseToken opCause;
};

} // namespace

void
NcclCommunicator::ringPass(const std::vector<hw::NodeId> &path,
                           std::shared_ptr<std::vector<HopGate>> gates,
                           sim::Bytes bytes,
                           profiling::Name kernel_name,
                           const std::vector<profiling::Name> &hop_lanes,
                           bool accumulate, Callback done)
{
    const int nchunks = chunksFor(bytes);

    auto state = std::make_shared<RingPassState>();
    state->path = path;
    state->kernelName = kernel_name;
    state->hopLanes = &hop_lanes;
    state->accumulate = accumulate;
    state->remaining = nchunks;
    state->done = std::move(done);
    state->opCause = profiling::currentCause(ctx_.profiler);
    const sim::Bytes base = bytes / nchunks;
    for (int c = 0; c < nchunks; ++c) {
        state->chunkBytes.push_back(
            c == 0 ? bytes - base * (nchunks - 1) : base);
    }

    // Per-hop cost of NCCL's persistent copy/reduce kernels: the
    // chunk streams through HBM on the receiving side without a
    // fresh kernel-launch tail (the kernels stay resident for the
    // whole collective).
    auto hop_kernel_ticks = [this](bool acc, sim::Bytes cbytes) {
        const double membytes = (acc ? 3.0 : 2.0) *
                                static_cast<double>(cbytes);
        const double t = membytes / ctx_.gpuSpec.memBytesPerTick();
        return static_cast<sim::Tick>(t) +
               sim::usToTicks(cfg_.ringHopLatencyUs);
    };

    // Recursive chunk advance; hop gates keep chunks (and successive
    // collectives) ordered so the pipeline staggers. The function
    // object captures only a weak self-reference — the strong refs
    // live in the in-flight callbacks — so the recursion frees
    // itself once the last chunk lands instead of leaking a
    // shared_ptr cycle.
    // Each (chunk, hop) chains copy -> hop kernel -> next hop; @p prev
    // is the previous hop's kernel record, the copy's causal parent
    // (hop 0 descends from the issuing collective instead).
    using AdvanceFn =
        std::function<void(int, std::size_t, profiling::RecordId)>;
    auto advance = std::make_shared<AdvanceFn>();
    *advance = [this, state, gates, hop_kernel_ticks,
                weak = std::weak_ptr<AdvanceFn>(advance)](
                   int chunk, std::size_t hop,
                   profiling::RecordId prev) {
        auto self = weak.lock();
        (*gates)[hop].acquire([this, state, gates, self,
                               hop_kernel_ticks, chunk, hop, prev]() {
            const hw::NodeId src = state->path[hop];
            const hw::NodeId dst = state->path[hop + 1];
            const sim::Bytes cbytes = state->chunkBytes[chunk];
            // Protocol overhead: the direct-access copy kernels move
            // extra FIFO/flag traffic, so the wire carries more than
            // the payload.
            const sim::Bytes wire_bytes = static_cast<sim::Bytes>(
                cbytes / std::max(0.05, cfg_.ncclLinkEfficiency));
            const sim::Tick start = ctx_.queue->now();
            ctx_.fabric->transfer(
                src, dst, wire_bytes,
                [this, state, gates, self, hop_kernel_ticks, chunk,
                 hop, src, dst, cbytes, wire_bytes, start, prev]() {
                    profiling::RecordId copy_id = profiling::kNoRecord;
                    if (ctx_.profiler) {
                        // Payload bytes plus the wire bytes that set
                        // the duration, so rate math stays honest.
                        copy_id = ctx_.profiler->recordCopy(
                            kNcclCopy, src, dst, cbytes, start,
                            ctx_.queue->now(), wire_bytes,
                            {prev != profiling::kNoRecord
                                 ? prev
                                 : state->opCause.id()});
                    }
                    const sim::Tick kdur =
                        hop_kernel_ticks(state->accumulate, cbytes);
                    const sim::Tick kstart = ctx_.queue->now();
                    ctx_.queue->scheduleAfter(
                        kdur,
                        [this, state, gates, self, chunk, hop, dst,
                         kstart, kdur, copy_id]() {
                            profiling::RecordId kid =
                                profiling::kNoRecord;
                            if (ctx_.profiler) {
                                // Kernels behind one hop gate
                                // serialize; lane+hop names that
                                // ordering domain for the audit.
                                kid = ctx_.profiler->recordKernel(
                                    state->kernelName, dst, kstart,
                                    kstart + kdur,
                                    (*state->hopLanes)[hop], {copy_id});
                            }
                            // Continue (and finish) under this hop's
                            // kernel as ambient cause.
                            profiling::CauseScope scope(
                                kid == profiling::kNoRecord
                                    ? nullptr
                                    : ctx_.profiler,
                                profiling::CauseToken(kid));
                            (*gates)[hop].release();
                            if (hop + 1 < state->path.size() - 1) {
                                (*self)(chunk, hop + 1, kid);
                            } else if (--state->remaining == 0) {
                                state->done();
                            }
                        });
                });
        });
    };

    for (int c = 0; c < nchunks; ++c)
        (*advance)(c, 0, profiling::kNoRecord);
}

void
NcclCommunicator::doReduce(sim::Bytes bytes, Callback done)
{
    if (ring_.size() == 1) {
        // Local ReduceKernel still runs, serialized on the NCCL
        // stream: the code path differs from P2P even on one GPU
        // (Table II).
        auto gate = localGate_;
        const profiling::CauseToken cause =
            profiling::currentCause(ctx_.profiler);
        (*gate)[0].acquire([this, gate, bytes, cause,
                            done = std::move(done)]() mutable {
            // Re-establish the issuing collective's cause: the gate
            // may run this after an unrelated op's completion.
            profiling::CauseScope scope(ctx_.profiler, cause);
            runKernel(kReduceKernel, ring_[0], bytes / 4.0, 2.0 * bytes,
                      [gate, done = std::move(done)]() mutable {
                          (*gate)[0].release();
                          done();
                      });
        });
        return;
    }
    // Data flows around the ring and terminates at the root. With
    // dual rings, half the payload travels each direction and the
    // two halves use opposite link channels concurrently.
    std::vector<hw::NodeId> path(ring_.begin() + 1, ring_.end());
    path.push_back(ring_.front());
    const sim::Bytes half = bytes / 2;
    if (cfg_.ncclRings < 2 || half == 0) {
        // A sub-2-byte payload leaves the reversed ring with nothing
        // to carry; running it anyway would charge a full pass of
        // hop latencies and kernels for zero bytes.
        ringPass(path, reduceGates_, bytes, kReduceKernel, reduceLanes_,
                 true, std::move(done));
        return;
    }
    std::vector<hw::NodeId> path_rev(ringRev_.begin() + 1,
                                     ringRev_.end());
    path_rev.push_back(ringRev_.front());
    auto pending = std::make_shared<int>(2);
    auto half_done = [pending, done = std::move(done)]() mutable {
        if (--*pending == 0)
            done();
    };
    ringPass(path, reduceGates_, bytes - half, kReduceKernel,
             reduceLanes_, true, half_done);
    ringPass(path_rev, reduceGatesRev_, half, kReduceKernel,
             reduceLanesRev_, true, half_done);
}

void
NcclCommunicator::doBroadcast(sim::Bytes bytes, Callback done)
{
    if (ring_.size() == 1) {
        auto gate = localGate_;
        const profiling::CauseToken cause =
            profiling::currentCause(ctx_.profiler);
        (*gate)[0].acquire([this, gate, bytes, cause,
                            done = std::move(done)]() mutable {
            profiling::CauseScope scope(ctx_.profiler, cause);
            runKernel(kBroadcastKernel, ring_[0], 0.0, 2.0 * bytes,
                      [gate, done = std::move(done)]() mutable {
                          (*gate)[0].release();
                          done();
                      });
        });
        return;
    }
    const sim::Bytes half = bytes / 2;
    if (cfg_.ncclRings < 2 || half == 0) {
        // Same empty-half guard as doReduce.
        ringPass(ring_, bcastGates_, bytes, kBroadcastKernel,
                 bcastLanes_, false, std::move(done));
        return;
    }
    auto pending = std::make_shared<int>(2);
    auto half_done = [pending, done = std::move(done)]() mutable {
        if (--*pending == 0)
            done();
    };
    ringPass(ring_, bcastGates_, bytes - half, kBroadcastKernel,
             bcastLanes_, false, half_done);
    ringPass(ringRev_, bcastGatesRev_, half, kBroadcastKernel,
             bcastLanesRev_, false, half_done);
}

void
NcclCommunicator::doAllReduce(sim::Bytes bytes, Callback done)
{
    if (ring_.size() == 1) {
        auto gate = localGate_;
        const profiling::CauseToken cause =
            profiling::currentCause(ctx_.profiler);
        (*gate)[0].acquire([this, gate, bytes, cause,
                            done = std::move(done)]() mutable {
            profiling::CauseScope scope(ctx_.profiler, cause);
            runKernel(kAllReduceKernel, ring_[0], bytes / 4.0, 2.0 * bytes,
                      [gate, done = std::move(done)]() mutable {
                          (*gate)[0].release();
                          done();
                      });
        });
        return;
    }

    // Lock-step ring all-reduce: the payload splits into n shards;
    // 2*(n-1) steps, each moving one shard across every ring link
    // concurrently (reduce-scatter then all-gather). Per-GPU wire
    // traffic is 2*(n-1)/n * bytes — the canonical ring bound.
    struct ArState
    {
        int step = 0;
        int totalSteps = 0;
        int pendingHops = 0;
        sim::Bytes shard = 0;
        Callback done;
        /** Cause of the collective (the issuing kvstore API). */
        profiling::CauseToken opCause;
        /** Last-landing kernel of the previous lock step. */
        profiling::RecordId prevStep = profiling::kNoRecord;
    };
    const int n = static_cast<int>(ring_.size());
    auto state = std::make_shared<ArState>();
    state->totalSteps = 2 * (n - 1);
    state->shard = (bytes + n - 1) / n;
    state->done = std::move(done);
    state->opCause = profiling::currentCause(ctx_.profiler);

    auto gate = allReduceGate_;
    // Weak self-reference for the same reason as ringPass's advance:
    // the in-flight callbacks keep the step function alive, and the
    // last one releases it.
    auto run_step = std::make_shared<std::function<void()>>();
    *run_step = [this, state, gate, n,
                 weak = std::weak_ptr<std::function<void()>>(
                     run_step)]() {
        auto self = weak.lock();
        if (state->step == state->totalSteps) {
            (*gate)[0].release();
            state->done();
            return;
        }
        const bool reduce_phase = state->step < n - 1;
        ++state->step;
        state->pendingHops = n;
        for (int i = 0; i < n; ++i) {
            const hw::NodeId src = ring_[i];
            const hw::NodeId dst = ring_[(i + 1) % n];
            const sim::Bytes wire = static_cast<sim::Bytes>(
                state->shard /
                std::max(0.05, cfg_.ncclLinkEfficiency));
            const sim::Tick start = ctx_.queue->now();
            ctx_.fabric->transfer(
                src, dst, wire,
                [this, state, self, reduce_phase, src, dst, wire,
                 start]() {
                    profiling::RecordId copy_id = profiling::kNoRecord;
                    if (ctx_.profiler) {
                        // Each lock step waits for the whole previous
                        // step; its last kernel (or the issuing API
                        // for step 1) is the binding causal parent.
                        copy_id = ctx_.profiler->recordCopy(
                            kNcclCopy, src, dst, state->shard, start,
                            ctx_.queue->now(), wire,
                            {state->prevStep != profiling::kNoRecord
                                 ? state->prevStep
                                 : state->opCause.id()});
                    }
                    const double membytes =
                        (reduce_phase ? 3.0 : 2.0) *
                        static_cast<double>(state->shard);
                    const sim::Tick kdur =
                        static_cast<sim::Tick>(
                            membytes /
                            ctx_.gpuSpec.memBytesPerTick()) +
                        sim::usToTicks(cfg_.ringHopLatencyUs);
                    const sim::Tick kstart = ctx_.queue->now();
                    ctx_.queue->scheduleAfter(
                        kdur, [this, state, self, dst, kstart, kdur,
                               copy_id]() {
                            profiling::RecordId kid =
                                profiling::kNoRecord;
                            if (ctx_.profiler) {
                                // All-reduce steps serialize on the
                                // collective-wide gate; each GPU sees
                                // one kernel per step, so a per-GPU
                                // lane is ordered.
                                kid = ctx_.profiler->recordKernel(
                                    kAllReduceKernel, dst, kstart,
                                    kstart + kdur, kAllReduceLane,
                                    {copy_id});
                            }
                            if (--state->pendingHops == 0) {
                                // This kernel gates the next step
                                // (and the collective's completion).
                                state->prevStep = kid;
                                profiling::CauseScope scope(
                                    kid == profiling::kNoRecord
                                        ? nullptr
                                        : ctx_.profiler,
                                    profiling::CauseToken(kid));
                                (*self)();
                            }
                        });
                });
        }
    };
    (*gate)[0].acquire([run_step]() { (*run_step)(); });
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
