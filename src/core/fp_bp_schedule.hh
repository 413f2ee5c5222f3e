/**
 * @file
 * Shared FP/BP kernel-issuing schedule used by the synchronous
 * Trainer and the asynchronous AsyncTrainer: one forward kernel per
 * layer, then the backward kernels in reverse order, with an optional
 * marker after each weighted layer's gradients retire.
 *
 * Kernel durations and profiler labels come from a LayerCostTable
 * (core/layer_costs.hh), computed once per (model, batch, GPU spec)
 * sub-key instead of once per layer per iteration. A forward launch
 * captures {stream, table entry}, a backward launch {worker target,
 * layer index, weighted index} and a marker {worker target, weighted
 * index}: each fits std::function's inline buffer, so issuing an
 * iteration makes no closure allocation. The host thread's and the
 * stream's op queues still allocate as they grow.
 */

#ifndef DGXSIM_CORE_FP_BP_SCHEDULE_HH
#define DGXSIM_CORE_FP_BP_SCHEDULE_HH

#include <functional>

#include "core/layer_costs.hh"
#include "core/train_config.hh"
#include "cuda/host_thread.hh"
#include "cuda/stream.hh"

namespace dgxsim::core {

/**
 * What one worker's launches reach: its compute stream, the cost
 * table and the gradient marker. The launches point at it, so it must
 * outlive the iteration's backward kernels.
 */
struct FpBpTarget
{
    cuda::Stream *stream = nullptr;
    const LayerCostTable *costs = nullptr;
    /**
     * Invoked (from the stream, in execution order) after each
     * weighted layer's backward kernels retire, with the weighted-layer
     * index in forward order. Empty to skip the markers.
     */
    std::function<void(int)> onGradient;
};

/**
 * Issue one iteration's forward and backward kernels from
 * @p target's cost table onto its stream through @p worker (charging
 * per-launch host overhead).
 */
inline void
issueFpBp(cuda::HostThread &worker, const FpBpTarget &target,
          const TrainConfig &cfg)
{
    static const profiling::Name launch_api("cudaLaunchKernel");
    const sim::Tick launch = sim::usToTicks(cfg.gpuSpec.launchOverheadUs);
    cuda::Stream &stream = *target.stream;
    const LayerCostTable &costs = *target.costs;

    for (const LayerCost &cost : costs.layers) {
        worker.call(launch_api, launch, [&stream, &cost]() {
            stream.enqueueKernel(cost.fwdName, cost.fwdDuration);
        });
    }

    const FpBpTarget *to = &target;
    int weighted_idx = costs.weightedLayers;
    for (int layer = static_cast<int>(costs.layers.size()); layer-- > 0;) {
        const LayerCost &cost = costs.layers[layer];
        if (cost.weighted)
            --weighted_idx;
        const int marker =
            (cost.weighted && target.onGradient) ? weighted_idx : -1;
        worker.call(
            launch_api, static_cast<sim::Tick>(cost.bwdKernels) * launch,
            [to, layer, marker]() {
                const LayerCost &cost = to->costs->layers[layer];
                for (int k = 0; k < cost.bwdKernels; ++k)
                    to->stream->enqueueKernel(cost.bwdName,
                                              cost.bwdDuration);
                if (marker >= 0) {
                    to->stream->enqueueHostFn(
                        [to, marker]() { to->onGradient(marker); });
                }
            });
    }
}

} // namespace dgxsim::core

#endif // DGXSIM_CORE_FP_BP_SCHEDULE_HH
