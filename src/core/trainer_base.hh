/**
 * @file
 * The one entry point and the one run envelope of every training
 * strategy.
 *
 * A trainer is a parallelization strategy (core/parallelism.hh) over
 * the shared core::Machine substrate: it owns the iteration schedule
 * and nothing else. make() builds the strategy cfg.mode names, and is
 * the only way to build one. run() is the envelope every strategy
 * shares — report header, memory plan with the OOM verdict, the
 * memory-only probe, the event loop, the end-of-run audit and the
 * common report fields — so the campaign runner, baseline gating,
 * determinism harness and CLI treat every mode uniformly. A strategy
 * supplies only its memory layout, its kick-off, its idle audit and
 * its own report fields.
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
    TrainReport run();

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
     * Construct the strategy for cfg.mode (fatal when the mode is
     * outside the enum).
     *
     * @param net the network to train (cfg.model is then ignored);
     *        builds cfg.model when empty.
     * @param topo an explicit topology, bypassing the platform
     *        registry (cfg.platform is ignored, cfg.gpuSpec used as
     *        given). When empty, the machine is the platform
     *        cfg.platform names (fatal when unknown), and a
     *        cfg.gpuSpec left at the default V100 is replaced by the
     *        platform's GPU (preserving speedupFactor); an explicit
     *        override — --p100, what-if ground-truth tweaks — wins
     *        over the platform.
     */
    static std::unique_ptr<TrainerBase>
    make(const TrainConfig &cfg, std::optional<dnn::Network> net = {},
         std::optional<hw::Topology> topo = {});

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
    /** See make() for @p net and @p topo. */
    TrainerBase(TrainConfig cfg, std::optional<dnn::Network> net,
                std::optional<hw::Topology> topo);

    /**
     * @return the per-layer kernel costs for net_ under cfg_, shared
     * through the process-wide cache when net_ came from cfg_.model.
     */
    const LayerCostTable &layerCosts() const { return *layerCosts_; }

    /** Enqueue the SGD update of @p bytes of weights on @p stream. */
    void enqueueSgdUpdate(cuda::Stream &stream, sim::Bytes bytes) const;

    /**
     * Move @p bytes from rank @p from's GPU to rank @p to's over the
     * fabric, record the copy as PtoP, then call @p then. A template,
     * so the continuation rides in the transfer's own callback.
     */
    template <typename Then>
    void
    peerCopy(std::size_t from, std::size_t to, sim::Bytes bytes,
             Then then)
    {
        const hw::NodeId src = machine_.gpus()[from];
        const hw::NodeId dst = machine_.gpus()[to];
        const sim::Tick start = machine_.queue().now();
        machine_.fabric().transfer(
            src, dst, bytes,
            [this, src, dst, bytes, start, then = std::move(then)]() {
                recordPeerCopy(src, dst, bytes, start);
                then();
            });
    }

    TrainConfig cfg_;
    Machine machine_;
    dnn::Network net_;
    std::shared_ptr<const LayerCostTable> layerCosts_;

  private:
    /**
     * Allocate the strategy's memory layout (throws sim::FatalError
     * on OOM), after setting any header fields of @p report it owns.
     */
    virtual void planMemory(TrainReport &report) = 0;

    /** Issue the measured run's first work onto the event queue. */
    virtual void kickOff() = 0;

    /** Strategy checks of the end-of-run audit (components idle). */
    virtual void auditIdle(sim::Auditor &) {}

    /** Fill the strategy's own fields once the queue drained at @p end. */
    virtual void fillReport(TrainReport &report, sim::Tick end) const = 0;

    void recordPeerCopy(hw::NodeId src, hw::NodeId dst, sim::Bytes bytes,
                        sim::Tick start);
};

} // namespace dgxsim::core

#endif // DGXSIM_CORE_TRAINER_BASE_HH
