#include "core/trainer_base.hh"

#include "core/async_trainer.hh"
#include "core/model_parallel_trainer.hh"
#include "core/trainer.hh"
#include "cuda/kernel_model.hh"
#include "dnn/models.hh"
#include "sim/auditor.hh"
#include "sim/logging.hh"

namespace dgxsim::core {

namespace {

const profiling::Name kPtoP("PtoP");
const profiling::Name kSgdUpdate("sgdUpdate");

/**
 * Fold the platform's GPU spec into the config: a gpuSpec left at the
 * default V100 yields to the platform's device, carrying over any
 * what-if speedupFactor; an explicitly overridden spec (--p100,
 * ground-truth tweaks) wins over the platform.
 */
TrainConfig
withPlatformSpec(TrainConfig cfg)
{
    hw::GpuSpec def = hw::GpuSpec::voltaV100();
    def.speedupFactor = cfg.gpuSpec.speedupFactor;
    if (cfg.gpuSpec == def) {
        const double speedup = cfg.gpuSpec.speedupFactor;
        cfg.gpuSpec = hw::makePlatform(cfg.platform).gpuSpec;
        cfg.gpuSpec.speedupFactor = speedup;
    }
    return cfg;
}

} // namespace

TrainerBase::TrainerBase(TrainConfig cfg,
                         std::optional<dnn::Network> net,
                         std::optional<hw::Topology> topo)
    : cfg_(topo ? std::move(cfg) : withPlatformSpec(std::move(cfg))),
      machine_(topo ? Machine(cfg_, std::move(*topo))
                    : Machine(cfg_, hw::makePlatform(cfg_.platform))),
      net_(net ? std::move(*net) : dnn::buildByName(cfg_.model)),
      // Only a net built from cfg_.model may share the cached table;
      // a caller-supplied network gets a private one.
      layerCosts_(layerCostsFor(net_, cfg_, !net))
{
}

TrainerBase::~TrainerBase() = default;

std::unique_ptr<TrainerBase>
TrainerBase::make(const TrainConfig &cfg, std::optional<dnn::Network> net,
                  std::optional<hw::Topology> topo)
{
    switch (cfg.mode) {
    case ParallelismMode::SyncDp:
        return std::unique_ptr<TrainerBase>(
            new Trainer(cfg, std::move(net), std::move(topo)));
    case ParallelismMode::AsyncPs:
        return std::unique_ptr<TrainerBase>(
            new AsyncTrainer(cfg, std::move(net), std::move(topo)));
    case ParallelismMode::ModelParallel:
    case ParallelismMode::Pipeline:
        return std::unique_ptr<TrainerBase>(new ModelParallelTrainer(
            cfg, std::move(net), std::move(topo)));
    }
    sim::fatal("no trainer for parallelism mode ",
               static_cast<int>(cfg.mode));
}

TrainReport
TrainerBase::simulate(const TrainConfig &cfg)
{
    return make(cfg)->run();
}

std::optional<int>
TrainerBase::maxBatchPerGpu(TrainConfig cfg,
                            const std::vector<int> &candidates)
{
    std::optional<int> best;
    for (int batch : candidates) {
        cfg.batchPerGpu = batch;
        cfg.measuredIterations = 0; // memory probe only
        if (!simulate(cfg).oom)
            best = batch;
    }
    return best;
}

TrainReport
TrainerBase::run()
{
    TrainReport report;
    report.config = cfg_;
    report.iterations = cfg_.iterationsPerEpoch();

    try {
        planMemory(report);
    } catch (const sim::FatalError &err) {
        report.oom = true;
        report.oomDetail = err.what();
        return report;
    }

    machine_.fillMemoryReport(report);

    if (cfg_.measuredIterations <= 0)
        return report; // memory-only probe

    kickOff();
    const sim::Tick end = machine_.queue().run();

    machine_.finishRun(report, [this](sim::Auditor &auditor) {
        auditIdle(auditor);
    });

    report.setupSeconds = cfg_.setupOnceSeconds;
    report.syncApiFraction =
        machine_.profiler().apiTimeFraction("cudaStreamSynchronize");
    fillReport(report, end);
    return report;
}

void
TrainerBase::enqueueSgdUpdate(cuda::Stream &stream,
                              sim::Bytes bytes) const
{
    stream.enqueueKernel(
        kSgdUpdate,
        cuda::kernelDuration(
            cfg_.gpuSpec,
            cuda::KernelCost{bytes / 2.0, 3.0 * bytes, false}));
}

void
TrainerBase::recordPeerCopy(hw::NodeId src, hw::NodeId dst,
                            sim::Bytes bytes, sim::Tick start)
{
    machine_.profiler().recordCopy(kPtoP, src, dst, bytes, start,
                                   machine_.queue().now());
}

} // namespace dgxsim::core
