#include "core/async_trainer.hh"

#include <algorithm>

#include "core/fp_bp_schedule.hh"
#include "cuda/kernel_model.hh"
#include "sim/auditor.hh"
#include "sim/logging.hh"

namespace dgxsim::core {

namespace {

const profiling::Name kPtoP("PtoP");

} // namespace

AsyncTrainer::AsyncTrainer(TrainConfig cfg)
    : TrainerBase(std::move(cfg), std::nullopt)
{
    setup();
}

AsyncTrainer::AsyncTrainer(TrainConfig cfg, hw::Topology topo)
    : TrainerBase(std::move(cfg), std::nullopt, std::move(topo))
{
    setup();
}

void
AsyncTrainer::setup()
{
    cfg_.mode = ParallelismMode::AsyncPs; // reports describe what ran
    for (std::size_t g = 0; g < machine_.gpus().size(); ++g) {
        computeStreams_.push_back(
            &machine_.addStream(g, "compute" + std::to_string(g)));
        workers_.push_back(
            &machine_.addHostThread("worker" + std::to_string(g)));
    }
    serverStream_ = &machine_.addStream(0, "server");
    machine_.wireAuditor();
}

AsyncTrainer::~AsyncTrainer() = default;

void
AsyncTrainer::workerIteration(std::size_t g)
{
    if (itersLeft_[g] == 0)
        return;
    --itersLeft_[g];

    cuda::HostThread &worker = *workers_[g];
    cuda::Stream &stream = *computeStreams_[g];

    // Compute on whatever weights the last pull delivered.
    pulledVersion_[g] = version_;
    issueFpBp(worker, stream, layerCosts(), cfg_);
    worker.waitStream(stream);

    // Push: move the full gradient set to the server GPU; the update
    // applies as soon as it lands, regardless of the other workers.
    static const profiling::Name peer_copy_api("cudaMemcpyPeerAsync");
    worker.call(
        peer_copy_api, sim::usToTicks(cfg_.commConfig.memcpyIssueUs),
        [this, g]() {
            const sim::Bytes bytes = net_.paramBytes();
            const sim::Tick start = machine_.queue().now();
            machine_.fabric().transfer(
                machine_.gpus()[g], machine_.gpus()[0], bytes,
                [this, g, bytes, start]() {
                    machine_.profiler().recordCopy(
                        kPtoP, machine_.gpus()[g], machine_.gpus()[0],
                        bytes, start, machine_.queue().now());
                    applyPush(g);
                });
        });
}

void
AsyncTrainer::applyPush(std::size_t g)
{
    // Server-side SGD update, serialized with other pushes on the
    // server stream.
    const sim::Bytes bytes = net_.paramBytes();
    const sim::Tick dur = cuda::kernelDuration(
        cfg_.gpuSpec,
        cuda::KernelCost{bytes / 2.0, 3.0 * bytes, false});
    static const profiling::Name sgd_update("sgdUpdate");
    serverStream_->enqueueKernel(sgd_update, dur);
    serverStream_->enqueueHostFn([this, g]() {
        ++version_;
        ++pushes_;
        imagesDone_ += cfg_.batchPerGpu;
        // Updates applied since this worker pulled, excluding its own.
        const int staleness =
            static_cast<int>(version_ - pulledVersion_[g]) - 1;
        stalenessSum_ += staleness;
        maxStaleness_ = std::max(maxStaleness_, staleness);

        // Pull fresh weights and go again.
        const sim::Bytes bytes = net_.paramBytes();
        const sim::Tick start = machine_.queue().now();
        machine_.fabric().transfer(
            machine_.gpus()[0], machine_.gpus()[g], bytes,
            [this, g, bytes, start]() {
                machine_.profiler().recordCopy(
                    kPtoP, machine_.gpus()[0], machine_.gpus()[g],
                    bytes, start, machine_.queue().now());
                workerIteration(g);
            });
    });
}

TrainReport
AsyncTrainer::run()
{
    return run(cfg_.asyncItersPerWorker);
}

TrainReport
AsyncTrainer::run(int iterations_per_worker)
{
    TrainReport report;
    report.config = cfg_;
    report.iterations = cfg_.iterationsPerEpoch();

    // The workers replicate the full model exactly like the
    // synchronous trainer (the server GPU doubles as worker 0), so
    // the data-parallel layout applies unchanged.
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

    if (iterations_per_worker < 1)
        sim::fatal("need at least one iteration per worker");
    itersLeft_.assign(machine_.gpus().size(), iterations_per_worker);
    pulledVersion_.assign(machine_.gpus().size(), 0);

    for (std::size_t g = 0; g < machine_.gpus().size(); ++g)
        workerIteration(g);
    const sim::Tick end = machine_.queue().run();

    machine_.finishAudit(report);
    report.digest = machine_.digest();

    report.pushes = pushes_;
    const double secs = sim::ticksToSec(end);
    report.throughputImagesPerSec =
        secs > 0 ? static_cast<double>(imagesDone_) / secs : 0;
    report.setupSeconds = cfg_.setupOnceSeconds;
    report.epochSeconds =
        report.throughputImagesPerSec > 0
            ? static_cast<double>(cfg_.datasetImages) /
                      report.throughputImagesPerSec +
                  report.setupSeconds
            : 0;
    report.iterationSeconds =
        report.iterations > 0
            ? (report.epochSeconds - report.setupSeconds) /
                  static_cast<double>(report.iterations)
            : 0;
    report.avgStaleness =
        pushes_ > 0 ? static_cast<double>(stalenessSum_) /
                          static_cast<double>(pushes_)
                    : 0;
    report.maxStaleness = maxStaleness_;

    const profiling::Profiler &prof = machine_.profiler();
    report.syncApiFraction =
        prof.apiTimeFraction("cudaStreamSynchronize");
    // Push + pull traffic per steady-state round of worker
    // iterations.
    report.interGpuBytesPerIter =
        static_cast<double>(prof.copiedBytes("PtoP")) /
        static_cast<double>(iterations_per_worker);
    return report;
}

TrainReport
AsyncTrainer::simulate(const TrainConfig &cfg,
                       int iterations_per_worker)
{
    AsyncTrainer trainer(cfg);
    return iterations_per_worker > 0
               ? trainer.run(iterations_per_worker)
               : trainer.run();
}

} // namespace dgxsim::core
