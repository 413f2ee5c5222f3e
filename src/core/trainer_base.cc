#include "core/trainer_base.hh"

#include "core/async_trainer.hh"
#include "core/model_parallel_trainer.hh"
#include "core/trainer.hh"
#include "dnn/models.hh"
#include "sim/logging.hh"

namespace dgxsim::core {

namespace {

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
                         std::optional<dnn::Network> net)
    : cfg_(withPlatformSpec(std::move(cfg))),
      machine_(cfg_, hw::makePlatform(cfg_.platform)),
      net_(net ? std::move(*net) : dnn::buildByName(cfg_.model)),
      // Only a net built from cfg_.model may share the cached table;
      // a caller-supplied network gets a private one.
      layerCosts_(layerCostsFor(net_, cfg_, !net))
{
}

TrainerBase::TrainerBase(TrainConfig cfg,
                         std::optional<dnn::Network> net,
                         hw::Topology topo)
    : cfg_(std::move(cfg)),
      machine_(cfg_, std::move(topo)),
      net_(net ? std::move(*net) : dnn::buildByName(cfg_.model)),
      layerCosts_(layerCostsFor(net_, cfg_, !net))
{
}

TrainerBase::~TrainerBase() = default;

std::unique_ptr<TrainerBase>
TrainerBase::make(const TrainConfig &cfg)
{
    switch (cfg.mode) {
    case ParallelismMode::SyncDp:
        return std::make_unique<Trainer>(cfg);
    case ParallelismMode::AsyncPs:
        return std::make_unique<AsyncTrainer>(cfg);
    case ParallelismMode::ModelParallel:
    case ParallelismMode::Pipeline:
        return std::make_unique<ModelParallelTrainer>(cfg);
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

} // namespace dgxsim::core
