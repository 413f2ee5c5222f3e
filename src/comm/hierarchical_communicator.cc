#include "comm/hierarchical_communicator.hh"

#include <memory>

#include "sim/logging.hh"

namespace dgxsim::comm {

HierarchicalCommunicator::HierarchicalCommunicator(CommMethod inner,
                                                   CommContext ctx,
                                                   CommConfig cfg)
    : Communicator(std::move(ctx), cfg), nodes_(cfg.clusterNodes),
      algo_(cfg.netAlgo)
{
    if (nodes_ < 1)
        sim::fatal("hierarchical communicator needs >= 1 node, got ",
                   nodes_);
    if (ctx_.gpus.size() % static_cast<std::size_t>(nodes_) != 0) {
        sim::fatal("GPU set of ", ctx_.gpus.size(),
                   " does not split evenly over ", nodes_, " nodes");
    }
    gpusPerNode_ = static_cast<int>(ctx_.gpus.size()) / nodes_;

    // One intra-node communicator per node over its GPU slice. The
    // slices never share links (each node is its own NVLink island),
    // so their collectives run concurrently.
    CommConfig icfg = cfg;
    icfg.clusterNodes = 1;
    // Gradients are compressed once, at this (outer) layer: the inner
    // per-node collectives and the IB inter phase already carry the
    // shrunk wire bytes, so the inner comms must not encode again.
    icfg.compression = Compressor::None;
    for (int k = 0; k < nodes_; ++k) {
        CommContext ictx;
        ictx.queue = ctx_.queue;
        ictx.fabric = ctx_.fabric;
        ictx.gpus.assign(
            ctx_.gpus.begin() + k * gpusPerNode_,
            ctx_.gpus.begin() + (k + 1) * gpusPerNode_);
        ictx.gpuSpec = ctx_.gpuSpec;
        ictx.profiler = ctx_.profiler;
        roots_.push_back(ictx.gpus[0]);
        inner_.push_back(makeCommunicator(inner, std::move(ictx), icfg));
    }
}

std::string
HierarchicalCommunicator::name() const
{
    return "hier-" + inner_[0]->name() + "-" + netAlgoName(algo_);
}

void
HierarchicalCommunicator::skip(Callback done)
{
    ctx_.queue->scheduleAfter(
        0, [this, cause = profiling::currentCause(ctx_.profiler),
            done = std::move(done)]() mutable {
            profiling::CauseScope scope(ctx_.profiler, cause);
            done();
        });
}

sim::Bytes
HierarchicalCommunicator::shardOf(sim::Bytes bytes) const
{
    return (bytes + nodes_ - 1) / nodes_;
}

void
HierarchicalCommunicator::innerPhase(InnerOp op, sim::Bytes bytes,
                                     int priority, Callback done)
{
    auto pending = std::make_shared<int>(nodes_);
    auto phase_done = [pending, done = std::move(done)]() mutable {
        if (--*pending == 0)
            done();
    };
    for (auto &comm : inner_) {
        if (op == InnerOp::Reduce)
            comm->reduce(bytes, priority, phase_done);
        else
            comm->broadcast(bytes, priority, phase_done);
    }
}

void
HierarchicalCommunicator::interTransfer(hw::NodeId src, hw::NodeId dst,
                                        sim::Bytes bytes,
                                        bool accumulate, Callback done)
{
    const profiling::CauseToken cause = profiling::currentCause(ctx_.profiler);
    const sim::Tick start = ctx_.queue->now();
    ctx_.fabric->transfer(
        src, dst, bytes,
        [this, src, dst, bytes, start, accumulate, cause,
         done = std::move(done)]() mutable {
            static const profiling::Name ib("IB");
            profiling::RecordId copy_id = profiling::kNoRecord;
            if (ctx_.profiler) {
                copy_id = ctx_.profiler->recordCopy(
                    ib, src, dst, bytes, start, ctx_.queue->now(), 0,
                    {cause.id()});
            }
            // The receiver-side work (accumulate kernel or round
            // barrier) descends from the copy that delivered it.
            profiling::CauseScope scope(
                copy_id == profiling::kNoRecord ? nullptr
                                                : ctx_.profiler,
                profiling::CauseToken(copy_id));
            if (!accumulate) {
                done();
                return;
            }
            // Sum the received shard into the resident buffer: read
            // two arrays, write one (memory bound).
            static const profiling::Name accumulate_kernel("ibGradAccumulate");
            static const profiling::Name inter_lane("ib.inter");
            runKernelOnLane(accumulate_kernel, inter_lane, dst,
                            bytes / 4.0, 3.0 * bytes,
                            std::move(done));
        });
}

void
HierarchicalCommunicator::interRound(const std::vector<Pair> &pairs,
                                     sim::Bytes bytes, bool accumulate,
                                     Callback done)
{
    if (pairs.empty()) {
        skip(std::move(done));
        return;
    }
    auto pending =
        std::make_shared<int>(static_cast<int>(pairs.size()));
    auto step_done = [pending, done = std::move(done)]() mutable {
        if (--*pending == 0)
            done();
    };
    for (const Pair &p : pairs)
        interTransfer(p.src, p.dst, bytes, accumulate, step_done);
}

void
HierarchicalCommunicator::interRingReduceScatter(sim::Bytes shard,
                                                 int round,
                                                 Callback done)
{
    if (round >= nodes_ - 1) {
        done();
        return;
    }
    // Lock-step: every root forwards one shard to its successor; the
    // round barrier is the accumulate kernel of the slowest receiver
    // (all NIC links carry the same load, so rounds stay aligned).
    std::vector<Pair> pairs;
    for (int k = 0; k < nodes_; ++k)
        pairs.push_back(Pair{roots_[k], roots_[(k + 1) % nodes_]});
    interRound(
        pairs, shard, true,
        [this, shard, round, done = std::move(done)]() mutable {
            interRingReduceScatter(shard, round + 1, std::move(done));
        });
}

void
HierarchicalCommunicator::interRingAllGather(sim::Bytes shard,
                                             int round, Callback done)
{
    if (round >= nodes_ - 1) {
        done();
        return;
    }
    std::vector<Pair> pairs;
    for (int k = 0; k < nodes_; ++k)
        pairs.push_back(Pair{roots_[k], roots_[(k + 1) % nodes_]});
    interRound(
        pairs, shard, false,
        [this, shard, round, done = std::move(done)]() mutable {
            interRingAllGather(shard, round + 1, std::move(done));
        });
}

void
HierarchicalCommunicator::interRingGatherToRoot(sim::Bytes shard,
                                                Callback done)
{
    // After the reduce-scatter every root owns one fully-reduced
    // shard; the global root collects the other N-1 concurrently.
    std::vector<Pair> pairs;
    for (int k = 1; k < nodes_; ++k)
        pairs.push_back(Pair{roots_[k], roots_[0]});
    interRound(pairs, shard, false, std::move(done));
}

void
HierarchicalCommunicator::interRingScatterFromRoot(sim::Bytes shard,
                                                   Callback done)
{
    // The global root seeds every peer with one shard; the N-1
    // copies contend on the root's own NIC uplink, which is the
    // realistic serialization point of a scatter.
    std::vector<Pair> pairs;
    for (int k = 1; k < nodes_; ++k)
        pairs.push_back(Pair{roots_[0], roots_[k]});
    interRound(pairs, shard, false, std::move(done));
}

void
HierarchicalCommunicator::interTreeReduce(sim::Bytes bytes, int stride,
                                          Callback done)
{
    if (stride >= nodes_) {
        done();
        return;
    }
    // Binomial tree: log2(N) lock-step rounds of full-size messages.
    std::vector<Pair> pairs;
    for (int k = stride; k < nodes_; k += 2 * stride)
        pairs.push_back(Pair{roots_[k], roots_[k - stride]});
    interRound(
        pairs, bytes, true,
        [this, bytes, stride, done = std::move(done)]() mutable {
            interTreeReduce(bytes, stride * 2, std::move(done));
        });
}

void
HierarchicalCommunicator::interTreeBroadcast(sim::Bytes bytes,
                                             int stride, Callback done)
{
    if (stride < 1) {
        done();
        return;
    }
    std::vector<Pair> pairs;
    for (int k = 0; k + stride < nodes_; k += 2 * stride)
        pairs.push_back(Pair{roots_[k], roots_[k + stride]});
    interRound(
        pairs, bytes, false,
        [this, bytes, stride, done = std::move(done)]() mutable {
            interTreeBroadcast(bytes, stride / 2, std::move(done));
        });
}

void
HierarchicalCommunicator::interReduce(sim::Bytes bytes, Callback done)
{
    if (nodes_ < 2 || bytes == 0) {
        skip(std::move(done));
        return;
    }
    if (algo_ == NetAlgo::Ring) {
        const sim::Bytes shard = shardOf(bytes);
        interRingReduceScatter(
            shard, 0, [this, shard, done = std::move(done)]() mutable {
                interRingGatherToRoot(shard, std::move(done));
            });
        return;
    }
    interTreeReduce(bytes, 1, std::move(done));
}

void
HierarchicalCommunicator::interBroadcast(sim::Bytes bytes,
                                         Callback done)
{
    if (nodes_ < 2 || bytes == 0) {
        skip(std::move(done));
        return;
    }
    if (algo_ == NetAlgo::Ring) {
        const sim::Bytes shard = shardOf(bytes);
        interRingScatterFromRoot(
            shard, [this, shard, done = std::move(done)]() mutable {
                interRingAllGather(shard, 0, std::move(done));
            });
        return;
    }
    int top = 1;
    while (top < nodes_)
        top *= 2;
    interTreeBroadcast(bytes, top / 2, std::move(done));
}

void
HierarchicalCommunicator::interAllReduce(sim::Bytes bytes,
                                         Callback done)
{
    if (nodes_ < 2 || bytes == 0) {
        skip(std::move(done));
        return;
    }
    if (algo_ == NetAlgo::Ring) {
        // Bandwidth-optimal ring all-reduce: 2(N-1) rounds of one
        // shard per NIC link per direction.
        const sim::Bytes shard = shardOf(bytes);
        interRingReduceScatter(
            shard, 0, [this, shard, done = std::move(done)]() mutable {
                interRingAllGather(shard, 0, std::move(done));
            });
        return;
    }
    interTreeReduce(
        bytes, 1, [this, bytes, done = std::move(done)]() mutable {
            int top = 1;
            while (top < nodes_)
                top *= 2;
            interTreeBroadcast(bytes, top / 2, std::move(done));
        });
}

void
HierarchicalCommunicator::doReduce(sim::Bytes bytes, Callback done)
{
    // Capture the chunk's priority synchronously; the continuations
    // run long after the dispatch window closed.
    const int priority = dispatchPriority();
    innerPhase(InnerOp::Reduce, bytes, priority,
               [this, bytes, done = std::move(done)]() mutable {
                   interReduce(bytes, std::move(done));
               });
}

void
HierarchicalCommunicator::doBroadcast(sim::Bytes bytes, Callback done)
{
    const int priority = dispatchPriority();
    interBroadcast(
        bytes,
        [this, bytes, priority, done = std::move(done)]() mutable {
            innerPhase(InnerOp::Broadcast, bytes, priority,
                       std::move(done));
        });
}

void
HierarchicalCommunicator::doAllReduce(sim::Bytes bytes, Callback done)
{
    const int priority = dispatchPriority();
    innerPhase(
        InnerOp::Reduce, bytes, priority,
        [this, bytes, priority, done = std::move(done)]() mutable {
            interAllReduce(
                bytes,
                [this, bytes, priority,
                 done = std::move(done)]() mutable {
                    innerPhase(InnerOp::Broadcast, bytes, priority,
                               std::move(done));
                });
        });
}

} // namespace dgxsim::comm
