/**
 * @file
 * Shared FP/BP kernel-issuing schedule used by the synchronous
 * Trainer and the asynchronous AsyncTrainer: one forward kernel per
 * layer, then the backward kernels in reverse order, with an optional
 * marker after each weighted layer's gradients retire.
 *
 * Kernel durations and profiler labels come from a LayerCostTable
 * (core/layer_costs.hh), computed once per (model, batch, GPU spec)
 * sub-key instead of once per layer per iteration. The launch lambdas
 * capture only {stream, table entry} pointers, which fit std::function's
 * small-buffer storage — no per-launch heap allocation.
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
 * Issue one iteration's forward and backward kernels from @p costs
 * onto @p stream through @p worker (charging per-launch host
 * overhead).
 *
 * @param on_gradient Invoked (from the stream, in execution order)
 *        after each weighted layer's backward kernels retire, with
 *        the weighted-layer index in forward order. Pass an empty
 *        function to skip the markers.
 */
inline void
issueFpBp(cuda::HostThread &worker, cuda::Stream &stream,
          const LayerCostTable &costs, const TrainConfig &cfg,
          std::function<void(int)> on_gradient = {})
{
    static const profiling::Name launch_api("cudaLaunchKernel");
    const sim::Tick launch = sim::usToTicks(cfg.gpuSpec.launchOverheadUs);

    for (const LayerCost &cost : costs.layers) {
        worker.call(launch_api, launch, [&stream, &cost]() {
            stream.enqueueKernel(cost.fwdName, cost.fwdDuration);
        });
    }

    int weighted_idx = costs.weightedLayers;
    for (auto it = costs.layers.rbegin(); it != costs.layers.rend();
         ++it) {
        const LayerCost &cost = *it;
        if (cost.weighted)
            --weighted_idx;
        const int marker =
            (cost.weighted && on_gradient) ? weighted_idx : -1;
        worker.call(
            launch_api, static_cast<sim::Tick>(cost.bwdKernels) * launch,
            [&stream, &cost, marker, on_gradient]() {
                for (int k = 0; k < cost.bwdKernels; ++k)
                    stream.enqueueKernel(cost.bwdName,
                                         cost.bwdDuration);
                if (marker >= 0) {
                    stream.enqueueHostFn(
                        [on_gradient, marker]() {
                            on_gradient(marker);
                        });
                }
            });
    }
}

} // namespace dgxsim::core

#endif // DGXSIM_CORE_FP_BP_SCHEDULE_HH
