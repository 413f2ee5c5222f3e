#include "comm/hierarchical_communicator.hh"

#include "sim/logging.hh"

namespace dgxsim::comm {

HierarchicalCommunicator::HierarchicalCommunicator(CommMethod inner,
                                                   CommContext ctx,
                                                   CommConfig cfg)
    : Communicator(std::move(ctx), cfg), nodes_(ctx_.nodes),
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

sim::Bytes
HierarchicalCommunicator::shardOf(sim::Bytes bytes) const
{
    return (bytes + nodes_ - 1) / nodes_;
}

void
HierarchicalCommunicator::planInter(std::vector<Step> &steps, OpKind kind,
                                    sim::Bytes bytes) const
{
    using Kind = Step::Kind;
    if (nodes_ < 2 || bytes == 0) {
        steps.push_back({Kind::Skip});
        return;
    }
    const bool reduce = kind != OpKind::Broadcast;
    const bool broadcast = kind != OpKind::Reduce;
    if (algo_ == NetAlgo::Ring) {
        // Lock-step rounds: every root forwards one shard to its
        // successor; a reduce-scatter round's barrier is the
        // accumulate kernel of the slowest receiver (all NIC links
        // carry the same load, so rounds stay aligned). A reduce then
        // gathers the N-1 reduced shards on the global root; a
        // broadcast first seeds every peer with one shard, the N-1
        // copies contending on the root's own NIC uplink. The fused
        // all-reduce is the bandwidth-optimal reduce-scatter plus
        // all-gather.
        const sim::Bytes shard = shardOf(bytes);
        for (int r = 0; reduce && r < nodes_ - 1; ++r)
            steps.push_back({Kind::Ring, shard, 0, true});
        if (!broadcast)
            steps.push_back({Kind::Gather, shard});
        if (!reduce)
            steps.push_back({Kind::Scatter, shard});
        for (int r = 0; broadcast && r < nodes_ - 1; ++r)
            steps.push_back({Kind::Ring, shard});
        return;
    }
    // Binomial tree: log2(N) lock-step rounds of full-size messages
    // each way.
    for (int stride = 1; reduce && stride < nodes_; stride *= 2)
        steps.push_back({Kind::TreeReduce, bytes, stride, true});
    int top = 1;
    while (top < nodes_)
        top *= 2;
    for (int stride = top / 2; broadcast && stride >= 1; stride /= 2)
        steps.push_back({Kind::TreeBroadcast, bytes, stride});
}

void
HierarchicalCommunicator::run(OpKind kind, sim::Bytes bytes,
                              Callback done)
{
    const Slot slot = collectives_.acquire();
    Collective &op = collectives_[slot];
    op.steps.clear();
    op.next = 0;
    // Capture the chunk's priority synchronously; the later steps run
    // long after the dispatch window closed.
    op.priority = dispatchPriority();
    op.done = std::move(done);
    if (kind != OpKind::Broadcast)
        op.steps.push_back({Step::Kind::InnerReduce, bytes});
    planInter(op.steps, kind, bytes);
    if (kind != OpKind::Reduce)
        op.steps.push_back({Step::Kind::InnerBroadcast, bytes});
    runStep(slot);
}

void
HierarchicalCommunicator::runStep(Slot slot)
{
    Collective &op = collectives_[slot];
    if (op.next == op.steps.size()) {
        const Callback done = std::move(op.done);
        collectives_.release(slot);
        done();
        return;
    }
    const Step step = op.steps[op.next++];
    const int priority = op.priority;
    Callback next = [this, slot] { runStep(slot); };
    switch (step.kind) {
      case Step::Kind::InnerReduce:
      case Step::Kind::InnerBroadcast: {
        // One inner collective per node, concurrently; barrier.
        const Callback phase_done = join(nodes_, std::move(next));
        for (auto &comm : inner_) {
            if (step.kind == Step::Kind::InnerReduce)
                comm->reduce(step.bytes, priority, phase_done);
            else
                comm->broadcast(step.bytes, priority, phase_done);
        }
        return;
      }
      case Step::Kind::Skip:
        skip(std::move(next));
        return;
      default:
        interRound(step, std::move(next));
        return;
    }
}

void
HierarchicalCommunicator::interRound(const Step &step, Callback done)
{
    static const profiling::Name ib("IB");
    static const profiling::Name accumulate_kernel("ibGradAccumulate");
    static const profiling::Name inter_lane("ib.inter");
    // Pairs (src, dst) of roots, in issue order; counted first so the
    // barrier exists before the first copy is issued.
    const auto for_each_pair = [&](auto &&fn) {
        const int n = nodes_;
        switch (step.kind) {
          case Step::Kind::Ring:
            for (int k = 0; k < n; ++k)
                fn(roots_[k], roots_[(k + 1) % n]);
            break;
          case Step::Kind::Gather:
            for (int k = 1; k < n; ++k)
                fn(roots_[k], roots_[0]);
            break;
          case Step::Kind::Scatter:
            for (int k = 1; k < n; ++k)
                fn(roots_[0], roots_[k]);
            break;
          case Step::Kind::TreeReduce:
            for (int k = step.stride; k < n; k += 2 * step.stride)
                fn(roots_[k], roots_[k - step.stride]);
            break;
          case Step::Kind::TreeBroadcast:
            for (int k = 0; k + step.stride < n; k += 2 * step.stride)
                fn(roots_[k], roots_[k + step.stride]);
            break;
          default:
            sim::panic("not an inter-node round");
        }
    };
    int pairs = 0;
    for_each_pair([&](hw::NodeId, hw::NodeId) { ++pairs; });
    const Callback step_done = join(pairs, std::move(done));
    // Each receiver sums the shard into its resident buffer; the
    // accumulate kernel (or the round barrier) descends from the copy
    // that delivered it.
    for_each_pair([&](hw::NodeId src, hw::NodeId dst) {
        copyToPeer(ib, src, dst, step.bytes,
                   step.accumulate ? accumulate_kernel : profiling::Name(),
                   inter_lane, step_done);
    });
}

void
HierarchicalCommunicator::doReduce(sim::Bytes bytes, Callback done)
{
    run(OpKind::Reduce, bytes, std::move(done));
}

void
HierarchicalCommunicator::doBroadcast(sim::Bytes bytes, Callback done)
{
    run(OpKind::Broadcast, bytes, std::move(done));
}

void
HierarchicalCommunicator::doAllReduce(sim::Bytes bytes, Callback done)
{
    run(OpKind::AllReduce, bytes, std::move(done));
}

} // namespace dgxsim::comm
