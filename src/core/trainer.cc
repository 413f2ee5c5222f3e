#include "core/trainer.hh"

#include <algorithm>

#include "sim/auditor.hh"

namespace dgxsim::core {

namespace {

// Profiler labels, interned once.
const profiling::Name kPeerCopyApi("cudaMemcpyPeerAsync");
const profiling::Name kMemcpyApi("cudaMemcpyAsync");
const profiling::Name kLaunchApi("cudaLaunchKernel");
const profiling::Name kGroupApi("ncclGroupOps");
const profiling::Name kDispatchApi("mxnetEngineDispatch");
const profiling::Name kNcclAllReduceApi("ncclAllReduce");
const profiling::Name kNcclReduceApi("ncclReduce");
const profiling::Name kNcclBcastApi("ncclBcast");
const profiling::Name kHtoD("HtoD");

} // namespace

Trainer::Trainer(TrainConfig cfg, std::optional<dnn::Network> net,
                 std::optional<hw::Topology> topo)
    : TrainerBase(std::move(cfg), std::move(net), std::move(topo))
{
    for (std::size_t g = 0; g < machine_.gpus().size(); ++g) {
        fpBp_.push_back(
            {&machine_.addStream(g, machine_.laneName(g, "compute")),
             &layerCosts(), {}});
        // With overlap enabled, weighted layers publish their gradient
        // bucket the moment their backward kernels retire.
        if (cfg_.overlapBpWu) {
            fpBp_.back().onGradient = [this](int weighted_idx) {
                onGradientReady(bucketOfWeighted_[weighted_idx]);
            };
        }
        workers_.push_back(
            &machine_.addHostThread(machine_.laneName(g, "worker")));
    }
    updateStream_ = &machine_.addStream(0, "update");
    commThread_ = &machine_.addHostThread("kvstore");
    engineThread_ = &machine_.addHostThread("engine");

    comm::CommContext cctx;
    cctx.queue = &machine_.queue();
    cctx.fabric = &machine_.fabric();
    cctx.gpus = machine_.gpus();
    cctx.nodes = cfg_.nodes;
    cctx.gpuSpec = cfg_.gpuSpec;
    cctx.profiler = &machine_.profiler();
    comm_ = comm::makeCommunicator(cfg_.method, std::move(cctx),
                                   cfg_.commConfig);

    // Gradient buckets: one per weighted layer (MXNet), optionally
    // fused into larger messages (Horovod/DDP-style extension).
    const sim::Bytes fusion_bytes =
        static_cast<sim::Bytes>(cfg_.bucketFusionMB * 1e6);
    for (const auto &bucket : net_.gradientBuckets()) {
        const bool fuse = fusion_bytes > 0 && !buckets_.empty() &&
                          buckets_.back().bytes < fusion_bytes;
        if (fuse) {
            buckets_.back().bytes += bucket.bytes;
            buckets_.back().expected += cfg_.totalGpus();
        } else {
            buckets_.push_back(Bucket{bucket.bytes, 0, cfg_.totalGpus()});
        }
        bucketOfWeighted_.push_back(buckets_.size() - 1);
    }
}

Trainer::~Trainer() = default;

void
Trainer::issueWorker(std::size_t g)
{
    cuda::HostThread &worker = *workers_[g];
    cuda::Stream &stream = *fpBp_[g].stream;

    // Prefetch the next mini-batch over PCIe (not gating compute;
    // MXNet's data iterator stays ahead of the GPUs).
    worker.call(kMemcpyApi, sim::usToTicks(cfg_.commConfig.memcpyIssueUs),
                [this, g]() {
                    const sim::Bytes batch_bytes =
                        static_cast<sim::Bytes>(cfg_.batchPerGpu) *
                        net_.inputShape().bytes();
                    const hw::NodeId gpu = machine_.gpus()[g];
                    const sim::Tick start = machine_.queue().now();
                    const std::optional<hw::NodeId> host =
                        machine_.topology().hostOf(gpu);
                    if (!host)
                        return; // no host path modeled
                    // The issuing cudaMemcpyAsync record is the copy's
                    // causal parent (host->device issue edge).
                    const profiling::CauseToken issue =
                        machine_.profiler().currentCause();
                    machine_.fabric().transfer(
                        *host, gpu, batch_bytes,
                        [this, gpu, batch_bytes, start, issue]() {
                            machine_.profiler().recordCopy(
                                kHtoD, -1, gpu, batch_bytes, start,
                                machine_.queue().now(), 0, {issue.id()});
                        });
                });

    // FP then BP kernels, each weighted layer's gradient marker after
    // its backward kernels.
    issueFpBp(worker, fpBp_[g], cfg_);

    // Wait for BP through the engine's dependency tracking (not a
    // CUDA API), then block in cudaStreamSynchronize until the
    // weight update lands — the blocked interval nvprof attributes
    // to the sync API (paper Table III).
    worker.waitStream(stream);
    worker.post([this]() { onWorkerBpDone(); });
    worker.syncEvent(barrier_, sim::usToTicks(cfg_.syncEntryUs),
                     cuda::HostThread::streamSyncApi());
    worker.post([this]() { onWorkerIterationDone(); });
}

void
Trainer::startIteration(int index)
{
    iteration_ = index;
    iterStart_ = machine_.queue().now();
    bpDoneMax_ = iterStart_;
    bpDoneCount_ = 0;
    broadcastsDone_ = 0;
    workersDone_ = 0;
    barrier_ = std::make_shared<cuda::CudaEvent>();
    for (auto &bucket : buckets_)
        bucket.arrivals = 0;
    // NCCL mode pays fixed per-iteration bookkeeping before the
    // engine can dispatch (MXNet runs different code paths with the
    // NCCL kvstore even on one GPU) — Table II's overhead driver.
    if (cfg_.method == comm::CommMethod::NCCL) {
        engineThread_->call(
            kGroupApi, sim::usToTicks(cfg_.commConfig.ncclIterFixedUs));
    }
    // The framework engine prepares and dispatches each GPU's work
    // serially; with many GPUs and short iterations this host-side
    // cost stops amortizing (paper Sec. V-C).
    for (std::size_t g = 0; g < machine_.gpus().size(); ++g) {
        engineThread_->call(kDispatchApi,
                            sim::usToTicks(cfg_.engineDispatchUs),
                            [this, g]() { issueWorker(g); });
    }
}

void
Trainer::onGradientReady(std::size_t bucket_idx)
{
    Bucket &bucket = buckets_[bucket_idx];
    if (++bucket.arrivals == bucket.expected)
        pushBucket(bucket_idx);
}

void
Trainer::pushBucket(std::size_t bucket_idx)
{
    const bool nccl = cfg_.method == comm::CommMethod::NCCL;
    if (cfg_.useAllReduce) {
        // Fused collective + replicated local update: every GPU ends
        // up with the summed gradients and applies SGD itself.
        const profiling::Name api = nccl ? kNcclAllReduceApi : kPeerCopyApi;
        commThread_->call(
            api, comm_->perCallHostOverhead(), [this, bucket_idx]() {
                // Later buckets retire from BP first and nothing
                // downstream waits per-bucket, so priority follows
                // BP retirement order (fifo ignores it).
                comm_->allReduce(buckets_[bucket_idx].bytes,
                                 static_cast<int>(bucket_idx),
                                 [this, bucket_idx]() {
                                     onBucketReduced(bucket_idx);
                                 });
            });
        return;
    }
    const profiling::Name api = nccl ? kNcclReduceApi : kPeerCopyApi;
    commThread_->call(api, comm_->perCallHostOverhead(),
                      [this, bucket_idx]() {
                          comm_->reduce(buckets_[bucket_idx].bytes,
                                        static_cast<int>(bucket_idx),
                                        [this, bucket_idx]() {
                                            onBucketReduced(bucket_idx);
                                        });
                      });
}

void
Trainer::onBucketReduced(std::size_t bucket_idx)
{
    // SGD update on the server GPU, then broadcast the fresh weights.
    commThread_->call(
        kLaunchApi, machine_.launchOverhead(), [this, bucket_idx]() {
            enqueueSgdUpdate(*updateStream_, buckets_[bucket_idx].bytes);
            if (cfg_.useAllReduce) {
                // Replicated update: every GPU already holds the
                // summed gradients; no broadcast follows.
                updateStream_->enqueueHostFn(
                    [this]() { onBucketBroadcast(); });
                return;
            }
            updateStream_->enqueueHostFn([this, bucket_idx]() {
                const profiling::Name api =
                    cfg_.method == comm::CommMethod::NCCL ? kNcclBcastApi
                                                          : kPeerCopyApi;
                commThread_->call(
                    api, comm_->perCallHostOverhead(),
                    [this, bucket_idx]() {
                        // Broadcasts outrank every pending reduce: the
                        // weights they carry gate the iteration
                        // barrier, while a reduce still has the update
                        // ahead of it.
                        const int prio =
                            static_cast<int>(buckets_.size() + bucket_idx);
                        comm_->broadcast(buckets_[bucket_idx].bytes, prio,
                                         [this]() { onBucketBroadcast(); });
                    });
            });
        });
}

void
Trainer::onBucketBroadcast()
{
    if (++broadcastsDone_ == buckets_.size())
        barrier_->signal();
}

void
Trainer::onWorkerBpDone()
{
    bpDoneMax_ = std::max(bpDoneMax_, machine_.queue().now());
    if (++bpDoneCount_ == cfg_.totalGpus() && !cfg_.overlapBpWu) {
        // Non-overlapped path: push every bucket only now, in BP
        // (reverse) order.
        for (std::size_t b = buckets_.size(); b-- > 0;)
            pushBucket(b);
    }
}

void
Trainer::onWorkerIterationDone()
{
    if (++workersDone_ == cfg_.totalGpus())
        finishIteration();
}

void
Trainer::finishIteration()
{
    const sim::Tick end = machine_.queue().now();
    sumIterTicks_ += static_cast<double>(end - iterStart_);
    sumFpBpTicks_ += static_cast<double>(bpDoneMax_ - iterStart_);
    sumWuTicks_ += static_cast<double>(end - bpDoneMax_);
    if (iteration_ + 1 < cfg_.measuredIterations)
        startIteration(iteration_ + 1);
}

void
Trainer::planMemory(TrainReport &)
{
    machine_.setupDataParallelMemory(net_);
}

void
Trainer::kickOff()
{
    startIteration(0);
}

void
Trainer::auditIdle(sim::Auditor &auditor)
{
    auditor.expect(comm_->idle(), machine_.queue().now(),
                   "communicator busy after the queue drained");
}

void
Trainer::fillReport(TrainReport &report, sim::Tick) const
{
    const double measured = cfg_.measuredIterations;
    const double iters = static_cast<double>(report.iterations);
    report.iterationSeconds =
        sim::ticksToSec(static_cast<sim::Tick>(sumIterTicks_)) /
        measured;
    report.epochSeconds =
        report.iterationSeconds * iters + report.setupSeconds;
    report.fpBpSeconds =
        sim::ticksToSec(static_cast<sim::Tick>(sumFpBpTicks_)) /
        measured * iters;
    report.wuSeconds =
        sim::ticksToSec(static_cast<sim::Tick>(sumWuTicks_)) /
        measured * iters;

    const profiling::Profiler &prof = machine_.profiler();
    for (const auto &row : prof.apiSummary()) {
        report.apiSeconds[row.name] =
            sim::ticksToSec(row.totalTime) / measured * iters;
    }
    report.interGpuBytesPerIter =
        (static_cast<double>(prof.copiedBytes("PtoP")) +
         static_cast<double>(prof.copiedBytes("NCCL"))) /
        measured;
    report.interNodeBytesPerIter =
        static_cast<double>(prof.copiedBytes("IB")) / measured;
}

} // namespace dgxsim::core
