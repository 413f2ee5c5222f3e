/**
 * @file
 * Precomputed per-layer kernel costs, memoized below whole-run
 * granularity.
 *
 * The FP/BP schedule evaluates the roofline kernel model and builds
 * the "<kind>_fwd"/"<kind>_bwd" label strings once per layer per
 * iteration per simulated run. Those values are a pure function of
 * (model, per-GPU batch, tensor-core flag, GPU spec) — a campaign
 * grid sweeping gpus and methods re-derives the identical table for
 * every cell sharing that sub-key. layerCostsFor() computes the table
 * once and shares it process-wide (thread-safe; campaign workers run
 * concurrently), which also lets the schedule's launch lambdas
 * capture a single table pointer instead of heap-allocating per-layer
 * closures.
 *
 * The cache is only consulted when the network actually is
 * dnn::buildByName(model) — a trainer handed a custom network gets a
 * private, uncached table.
 */

#ifndef DGXSIM_CORE_LAYER_COSTS_HH
#define DGXSIM_CORE_LAYER_COSTS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/train_config.hh"
#include "dnn/network.hh"
#include "profiling/interner.hh"
#include "sim/types.hh"

namespace dgxsim::core {

/** Fixed per-layer values consumed by the FP/BP kernel schedule. */
struct LayerCost
{
    sim::Tick fwdDuration = 0; ///< forward kernel duration
    sim::Tick bwdDuration = 0; ///< duration of each backward kernel
    int bwdKernels = 1;        ///< backward kernel count
    bool weighted = false;     ///< layer has trainable parameters
    profiling::Name fwdName;   ///< "<kind>_fwd" profiler label
    profiling::Name bwdName;   ///< "<kind>_bwd" profiler label
};

/** One network's schedule costs under one configuration. */
struct LayerCostTable
{
    std::vector<LayerCost> layers; ///< forward order
    int weightedLayers = 0;
};

/**
 * Evaluate the kernel model for every layer of @p net under @p cfg.
 * Pure: exactly the arithmetic the schedule used to perform inline,
 * in the same order, so durations are bit-identical.
 */
LayerCostTable computeLayerCosts(const dnn::Network &net,
                                 const TrainConfig &cfg);

/**
 * @return the (possibly shared) cost table for @p net under @p cfg.
 * With @p cacheable true the process-wide cache keyed by
 * (model, batchPerGpu, useTensorCores, gpuSpec) is consulted first —
 * pass true only when @p net is dnn::buildByName(cfg.model).
 */
std::shared_ptr<const LayerCostTable>
layerCostsFor(const dnn::Network &net, const TrainConfig &cfg,
              bool cacheable);

/**
 * Drop every cached table. Outstanding shared_ptr holders keep their
 * tables alive; only future lookups recompute.
 */
void clearLayerCostCache();

} // namespace dgxsim::core

#endif // DGXSIM_CORE_LAYER_COSTS_HH
