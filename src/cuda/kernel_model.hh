/**
 * @file
 * Analytical kernel-duration model.
 *
 * A kernel is characterized by its arithmetic work (FLOPs), the bytes
 * it moves through HBM, and whether it can use the tensor cores. The
 * duration is a roofline with an occupancy-dependent efficiency term:
 * small kernels (small mini-batches, small layers) under-utilize the
 * 80 SMs of a V100 and run far from peak, which is the mechanism
 * behind the paper's observation that larger batch sizes cut epoch
 * time almost linearly until the compute cores saturate.
 */

#ifndef DGXSIM_CUDA_KERNEL_MODEL_HH
#define DGXSIM_CUDA_KERNEL_MODEL_HH

#include <algorithm>

#include "hw/gpu_spec.hh"
#include "sim/types.hh"

namespace dgxsim::cuda {

/** Work characterization of one kernel launch. */
struct KernelCost
{
    double flops = 0;      ///< arithmetic operations
    double bytes = 0;      ///< HBM traffic
    bool tensorOk = false; ///< eligible for tensor cores (GEMM/conv)
    double effScale = 1.0; ///< shape-dependent efficiency multiplier
};

/**
 * @return the device-side duration of a kernel with cost @p cost on a
 * GPU described by @p spec.
 */
/**
 * Apply GpuSpec::speedupFactor to a modeled duration. Guarded so the
 * default factor of 1.0 returns @p base untouched (bit-exact with the
 * unscaled model — the committed baselines depend on it).
 */
inline sim::Tick
applySpeedup(const hw::GpuSpec &spec, sim::Tick base)
{
    if (spec.speedupFactor == 1.0)
        return base;
    return sim::checkedTick(0, static_cast<double>(base) /
                                   spec.speedupFactor,
                            "GPU speedup factor ", spec.speedupFactor,
                            " stretches a ", base, "-tick kernel to");
}

inline sim::Tick
kernelDuration(const hw::GpuSpec &spec, const KernelCost &cost)
{
    const sim::Tick tail = sim::usToTicks(spec.kernelTailUs);
    if (cost.flops <= 0 && cost.bytes <= 0)
        return applySpeedup(spec, tail);

    const double peak_now = spec.peakFlopsPerTick(cost.tensorOk);
    const double peak_fp32 = spec.peakFlopsPerTick(false);
    // Faster pipelines need proportionally more resident work to
    // saturate, so scale the half-saturation point with the peak.
    const double sat =
        spec.satWorkPerSm * std::max(1.0, peak_now / peak_fp32);
    const double work_per_sm = cost.flops / std::max(1, spec.numSms);
    const double eff = spec.effMax * cost.effScale *
                       (work_per_sm / (work_per_sm + sat));

    double t_compute = 0;
    if (cost.flops > 0 && eff > 0)
        t_compute = cost.flops / (peak_now * eff);
    double t_mem = 0;
    if (cost.bytes > 0)
        t_mem = cost.bytes / spec.memBytesPerTick();

    return applySpeedup(
        spec, tail + static_cast<sim::Tick>(std::max(t_compute, t_mem)));
}

} // namespace dgxsim::cuda

#endif // DGXSIM_CUDA_KERNEL_MODEL_HH
