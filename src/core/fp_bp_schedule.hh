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
#include "cuda/kernel_model.hh"
#include "cuda/stream.hh"
#include "dnn/network.hh"

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

/**
 * Convenience overload deriving costs from @p net inline (uncached;
 * the launch lambdas reference @p net, which callers already keep
 * alive through the run). Trainers hold a shared LayerCostTable
 * instead; this exists for tests and one-off harnesses.
 */
inline void
issueFpBp(cuda::HostThread &worker, cuda::Stream &stream,
          const dnn::Network &net, const TrainConfig &cfg,
          std::function<void(int)> on_gradient = {})
{
    static const profiling::Name launch_api("cudaLaunchKernel");
    const hw::GpuSpec &spec = cfg.gpuSpec;
    const int batch = cfg.batchPerGpu;
    const sim::Tick launch = sim::usToTicks(spec.launchOverheadUs);

    for (const auto &layer_ptr : net.layers()) {
        const dnn::Layer &layer = *layer_ptr;
        const sim::Tick dur = cuda::kernelDuration(
            spec,
            cuda::KernelCost{layer.forwardFlops(batch),
                             layer.forwardBytes(batch),
                             layer.tensorEligible() &&
                                 cfg.useTensorCores,
                             layer.efficiencyScale()});
        worker.call(launch_api, launch, [&stream, &layer, dur]() {
            stream.enqueueKernel(
                profiling::Name(
                    std::string(dnn::layerKindName(layer.kind())) + "_fwd"),
                dur);
        });
    }

    int weighted_total = net.weightedLayers();
    int weighted_idx = weighted_total;
    for (auto it = net.layers().rbegin(); it != net.layers().rend();
         ++it) {
        const dnn::Layer &layer = **it;
        const bool weighted = layer.paramCount() > 0;
        if (weighted)
            --weighted_idx;
        const int kernels = layer.backwardKernels();
        const double flops = layer.backwardFlops(batch) / kernels;
        const double bytes = layer.backwardBytes(batch) / kernels;
        const sim::Tick dur = cuda::kernelDuration(
            spec, cuda::KernelCost{flops, bytes,
                                   layer.tensorEligible() &&
                                       cfg.useTensorCores,
                                   layer.efficiencyScale()});
        const int marker =
            (weighted && on_gradient) ? weighted_idx : -1;
        worker.call(
            launch_api, static_cast<sim::Tick>(kernels) * launch,
            [&stream, &layer, dur, kernels, marker, on_gradient]() {
                const profiling::Name name(
                    std::string(dnn::layerKindName(layer.kind())) + "_bwd");
                for (int k = 0; k < kernels; ++k)
                    stream.enqueueKernel(name, dur);
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
