/**
 * @file
 * The common interface of every training strategy.
 *
 * A trainer is a parallelization strategy (core/parallelism.hh) over
 * the shared core::Machine substrate: it owns the iteration schedule
 * and nothing else. All strategies produce the same TrainReport —
 * epoch and iteration time, determinism digest, peak memory, OOM
 * verdict — so the campaign runner, baseline gating, determinism
 * harness and CLI treat every mode uniformly. make() and simulate()
 * dispatch on TrainConfig::mode.
 */

#ifndef DGXSIM_CORE_TRAINER_BASE_HH
#define DGXSIM_CORE_TRAINER_BASE_HH

#include <memory>
#include <optional>
#include <vector>

#include "core/layer_costs.hh"
#include "core/machine.hh"
#include "core/parallelism.hh"
#include "core/report.hh"
#include "core/train_config.hh"
#include "dnn/network.hh"
#include "hw/topology.hh"

namespace dgxsim::core {

/** Base class of all training strategies. */
class TrainerBase
{
  public:
    TrainerBase(const TrainerBase &) = delete;
    TrainerBase &operator=(const TrainerBase &) = delete;
    virtual ~TrainerBase();

    /**
     * Run the simulation.
     * @return the report; report.oom is set instead of throwing when
     * the configuration does not fit in GPU memory.
     */
    virtual TrainReport run() = 0;

    /** @return the configuration the strategy runs. */
    const TrainConfig &config() const { return cfg_; }

    /** @return the profiler with all records of the measured run. */
    const profiling::Profiler &profiler() const
    {
        return machine_.profiler();
    }

    /** @return the fabric (for link statistics). */
    const hw::Fabric &fabric() const { return machine_.fabric(); }

    /**
     * Construct the strategy for cfg.mode on the platform
     * cfg.platform names (fatal when the mode is outside the enum or
     * the platform is unknown).
     */
    static std::unique_ptr<TrainerBase> make(const TrainConfig &cfg);

    /** Convenience: make(cfg)->run(). */
    static TrainReport simulate(const TrainConfig &cfg);

    /**
     * @return the largest per-GPU batch size (from @p candidates in
     * increasing order) that fits in memory under cfg.mode, or
     * nullopt if none do.
     */
    static std::optional<int> maxBatchPerGpu(
        TrainConfig cfg, const std::vector<int> &candidates);

  protected:
    /**
     * Build the machine from the platform registry entry cfg.platform
     * names. A cfg.gpuSpec left at the default V100 is replaced by
     * the platform's GPU (preserving speedupFactor); an explicit
     * override — --p100, what-if ground-truth tweaks — wins over the
     * platform. Builds cfg.model when @p net is empty.
     */
    TrainerBase(TrainConfig cfg, std::optional<dnn::Network> net);

    /**
     * Build the machine over an explicit topology, bypassing the
     * platform registry (cfg.platform is ignored; cfg.gpuSpec is used
     * as given). Builds cfg.model when @p net is empty.
     */
    TrainerBase(TrainConfig cfg, std::optional<dnn::Network> net,
                hw::Topology topo);

    /**
     * @return the per-layer kernel costs for net_ under cfg_, shared
     * through the process-wide cache when net_ came from cfg_.model.
     */
    const LayerCostTable &layerCosts() const { return *layerCosts_; }

    TrainConfig cfg_;
    Machine machine_;
    dnn::Network net_;
    std::shared_ptr<const LayerCostTable> layerCosts_;
};

} // namespace dgxsim::core

#endif // DGXSIM_CORE_TRAINER_BASE_HH
