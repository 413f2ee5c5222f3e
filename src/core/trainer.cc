#include "core/trainer.hh"

#include <algorithm>

#include "core/fp_bp_schedule.hh"
#include "cuda/kernel_model.hh"
#include "sim/auditor.hh"
#include "sim/logging.hh"

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
const profiling::Name kSgdUpdate("sgdUpdate");
const profiling::Name kHtoD("HtoD");

} // namespace

Trainer::Trainer(TrainConfig cfg)
    : TrainerBase(std::move(cfg), std::nullopt)
{
    setup();
}

Trainer::Trainer(TrainConfig cfg, dnn::Network net)
    : TrainerBase(std::move(cfg),
                  std::optional<dnn::Network>(std::move(net)))
{
    setup();
}

Trainer::Trainer(TrainConfig cfg, hw::Topology topo)
    : Trainer(std::move(cfg), std::nullopt, std::move(topo))
{
}

Trainer::Trainer(TrainConfig cfg, dnn::Network net, hw::Topology topo)
    : Trainer(std::move(cfg), std::optional<dnn::Network>(std::move(net)),
              std::move(topo))
{
}

Trainer::Trainer(TrainConfig cfg, std::optional<dnn::Network> net,
                 hw::Topology topo)
    : TrainerBase(std::move(cfg), std::move(net), std::move(topo))
{
    setup();
}

void
Trainer::setup()
{
    cfg_.mode = ParallelismMode::SyncDp; // reports describe what ran
    for (std::size_t g = 0; g < machine_.gpus().size(); ++g) {
        computeStreams_.push_back(
            &machine_.addStream(g, machine_.laneName(g, "compute")));
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
    cctx.gpuSpec = cfg_.gpuSpec;
    cctx.profiler = &machine_.profiler();
    comm::CommConfig ccfg = cfg_.commConfig;
    ccfg.clusterNodes = cfg_.nodes;
    ccfg.netAlgo = cfg_.netAlgo;
    comm_ = comm::makeCommunicator(cfg_.method, std::move(cctx), ccfg);

    // After communicator construction so a commConfig.audit-enabled
    // auditor is seen and wired into the profiler and trackers.
    machine_.wireAuditor();

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
            buckets_.push_back(
                Bucket{bucket.layerName, bucket.bytes, 0,
                       cfg_.totalGpus()});
        }
        bucketOfWeighted_.push_back(buckets_.size() - 1);
    }
}

Trainer::~Trainer() = default;

void
Trainer::issueWorker(std::size_t g)
{
    cuda::HostThread &worker = *workers_[g];
    cuda::Stream &stream = *computeStreams_[g];
    const int batch = cfg_.batchPerGpu;

    // Prefetch the next mini-batch over PCIe (not gating compute;
    // MXNet's data iterator stays ahead of the GPUs).
    const sim::Bytes batch_bytes =
        static_cast<sim::Bytes>(batch) * net_.inputShape().bytes();
    const hw::NodeId gpu = machine_.gpus()[g];
    worker.call(kMemcpyApi, sim::usToTicks(cfg_.commConfig.memcpyIssueUs),
                [this, gpu, batch_bytes]() {
                    const sim::Tick start = machine_.queue().now();
                    hw::NodeId host = -1;
                    const hw::Topology &topo = machine_.topology();
                    for (std::size_t l :
                         topo.linksOf(gpu, hw::LinkType::PCIe)) {
                        const hw::NodeId peer =
                            topo.links()[l].peer(gpu);
                        if (topo.nodeKind(peer) == hw::NodeKind::Cpu)
                            host = peer;
                    }
                    if (host < 0)
                        return; // no host path modeled
                    // The issuing cudaMemcpyAsync record is the copy's
                    // causal parent (host->device issue edge).
                    const profiling::CauseToken issue =
                        machine_.profiler().currentCause();
                    machine_.fabric().transfer(
                        host, gpu, batch_bytes,
                        [this, gpu, batch_bytes, start, issue]() {
                            machine_.profiler().recordCopy(
                                kHtoD, -1, gpu, batch_bytes, start,
                                machine_.queue().now(), 0, {issue.id()});
                        });
                });

    // FP then BP kernels; with overlap enabled, weighted layers
    // publish their gradient bucket the moment their backward
    // kernels retire.
    std::function<void(int)> on_gradient;
    if (cfg_.overlapBpWu) {
        on_gradient = [this](int weighted_idx) {
            onGradientReady(bucketOfWeighted_[weighted_idx]);
        };
    }
    issueFpBp(worker, stream, layerCosts(), cfg_, std::move(on_gradient));

    // Wait for BP through the engine's dependency tracking (not a
    // CUDA API), then block in cudaStreamSynchronize until the
    // weight update lands — the blocked interval nvprof attributes
    // to the sync API (paper Table III).
    worker.waitStream(stream);
    worker.post([this, g]() { onWorkerBpDone(g); });
    worker.syncEvent(barrier_, sim::usToTicks(cfg_.syncEntryUs),
                     cuda::HostThread::streamSyncApi());
    worker.post([this, g]() { onWorkerIterationDone(g); });
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
    const sim::Bytes bytes = buckets_[bucket_idx].bytes;
    if (cfg_.useAllReduce) {
        // Fused collective + replicated local update: every GPU ends
        // up with the summed gradients and applies SGD itself.
        const profiling::Name api = nccl ? kNcclAllReduceApi : kPeerCopyApi;
        commThread_->call(
            api, comm_->perCallHostOverhead(),
            [this, bucket_idx, bytes]() {
                // Later buckets retire from BP first and nothing
                // downstream waits per-bucket, so priority follows
                // BP retirement order (fifo ignores it).
                comm_->allReduce(bytes, static_cast<int>(bucket_idx),
                                 [this, bucket_idx]() {
                                     onBucketReduced(bucket_idx);
                                 });
            });
        return;
    }
    const profiling::Name api = nccl ? kNcclReduceApi : kPeerCopyApi;
    commThread_->call(api, comm_->perCallHostOverhead(),
                      [this, bucket_idx, bytes]() {
                          comm_->reduce(bytes,
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
    const sim::Bytes bytes = buckets_[bucket_idx].bytes;
    const sim::Tick dur = cuda::kernelDuration(
        cfg_.gpuSpec,
        cuda::KernelCost{bytes / 2.0, 3.0 * bytes, false});
    commThread_->call(
        kLaunchApi, machine_.launchOverhead(),
        [this, bucket_idx, dur]() {
            updateStream_->enqueueKernel(kSgdUpdate, dur);
            if (cfg_.useAllReduce) {
                // Replicated update: every GPU already holds the
                // summed gradients; no broadcast follows.
                updateStream_->enqueueHostFn([this, bucket_idx]() {
                    onBucketBroadcast(bucket_idx);
                });
                return;
            }
            updateStream_->enqueueHostFn([this, bucket_idx]() {
                const profiling::Name api =
                    cfg_.method == comm::CommMethod::NCCL ? kNcclBcastApi
                                                          : kPeerCopyApi;
                const sim::Bytes bytes = buckets_[bucket_idx].bytes;
                // Broadcasts outrank every pending reduce: the
                // weights they carry gate the iteration barrier,
                // while a reduce still has the update ahead of it.
                const int prio =
                    static_cast<int>(buckets_.size() + bucket_idx);
                commThread_->call(
                    api, comm_->perCallHostOverhead(),
                    [this, bucket_idx, bytes, prio]() {
                        comm_->broadcast(bytes, prio,
                                         [this, bucket_idx]() {
                                             onBucketBroadcast(
                                                 bucket_idx);
                                         });
                    });
            });
        });
}

void
Trainer::onBucketBroadcast(std::size_t /*bucket_idx*/)
{
    if (++broadcastsDone_ == buckets_.size())
        barrier_->signal();
}

void
Trainer::onWorkerBpDone(std::size_t /*g*/)
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
Trainer::onWorkerIterationDone(std::size_t /*g*/)
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

TrainReport
Trainer::run()
{
    TrainReport report;
    report.config = cfg_;
    report.iterations = cfg_.iterationsPerEpoch();

    try {
        machine_.setupDataParallelMemory(net_);
    } catch (const sim::FatalError &err) {
        report.oom = true;
        report.oomDetail = err.what();
        return report;
    }

    machine_.fillMemoryReport(report);

    if (cfg_.measuredIterations <= 0)
        return report; // memory-only probe

    startIteration(0);
    machine_.queue().run();

    machine_.finishRun(report, [this](sim::Auditor &auditor) {
        auditor.expect(comm_->idle(), machine_.queue().now(),
                       "communicator busy after the queue drained");
    });

    const double measured = cfg_.measuredIterations;
    const double iters = static_cast<double>(report.iterations);
    report.iterationSeconds =
        sim::ticksToSec(static_cast<sim::Tick>(sumIterTicks_)) /
        measured;
    report.setupSeconds = cfg_.setupOnceSeconds;
    report.epochSeconds =
        report.iterationSeconds * iters + report.setupSeconds;
    report.fpBpSeconds =
        sim::ticksToSec(static_cast<sim::Tick>(sumFpBpTicks_)) /
        measured * iters;
    report.wuSeconds =
        sim::ticksToSec(static_cast<sim::Tick>(sumWuTicks_)) /
        measured * iters;

    const profiling::Profiler &prof = machine_.profiler();
    report.syncApiFraction =
        prof.apiTimeFraction("cudaStreamSynchronize");
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
    return report;
}

TrainReport
Trainer::simulate(const TrainConfig &cfg)
{
    Trainer trainer(cfg);
    return trainer.run();
}

} // namespace dgxsim::core
