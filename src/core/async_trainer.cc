#include "core/async_trainer.hh"

#include <algorithm>

#include "core/fp_bp_schedule.hh"
#include "sim/logging.hh"

namespace dgxsim::core {

AsyncTrainer::AsyncTrainer(TrainConfig cfg,
                           std::optional<dnn::Network> net,
                           std::optional<hw::Topology> topo)
    : TrainerBase(std::move(cfg), std::move(net), std::move(topo))
{
    for (std::size_t g = 0; g < machine_.gpus().size(); ++g) {
        computeStreams_.push_back(
            &machine_.addStream(g, "compute" + std::to_string(g)));
        workers_.push_back(
            &machine_.addHostThread("worker" + std::to_string(g)));
    }
    serverStream_ = &machine_.addStream(0, "server");
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
    worker.call(peer_copy_api,
                sim::usToTicks(cfg_.commConfig.memcpyIssueUs),
                [this, g]() {
                    peerCopy(g, 0, net_.paramBytes(),
                             [this, g]() { applyPush(g); });
                });
}

void
AsyncTrainer::applyPush(std::size_t g)
{
    // Server-side SGD update, serialized with other pushes on the
    // server stream.
    enqueueSgdUpdate(*serverStream_, net_.paramBytes());
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
        peerCopy(0, g, net_.paramBytes(),
                 [this, g]() { workerIteration(g); });
    });
}

void
AsyncTrainer::planMemory(TrainReport &)
{
    // The workers replicate the full model exactly like the
    // synchronous trainer (the server GPU doubles as worker 0), so
    // the data-parallel layout applies unchanged.
    machine_.setupDataParallelMemory(net_);
}

void
AsyncTrainer::kickOff()
{
    if (cfg_.asyncItersPerWorker < 1)
        sim::fatal("need at least one iteration per worker");
    itersLeft_.assign(machine_.gpus().size(), cfg_.asyncItersPerWorker);
    pulledVersion_.assign(machine_.gpus().size(), 0);
    for (std::size_t g = 0; g < machine_.gpus().size(); ++g)
        workerIteration(g);
}

void
AsyncTrainer::fillReport(TrainReport &report, sim::Tick end) const
{
    report.pushes = pushes_;
    const double secs = sim::ticksToSec(end);
    report.throughputImagesPerSec =
        secs > 0 ? static_cast<double>(imagesDone_) / secs : 0;
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
    // Push + pull traffic per steady-state round of worker
    // iterations.
    report.interGpuBytesPerIter =
        static_cast<double>(machine_.profiler().copiedBytes("PtoP")) /
        static_cast<double>(cfg_.asyncItersPerWorker);
}

} // namespace dgxsim::core
