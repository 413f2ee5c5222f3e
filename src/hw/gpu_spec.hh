/**
 * @file
 * Static hardware descriptions for the GPUs and host CPUs of the
 * simulated DGX-1 node.
 *
 * The compute-side parameters feed the analytical kernel-time model
 * (see dnn/cost_model.hh): a kernel runs at `effMax` of peak once its
 * per-SM work exceeds the half-saturation point, reproducing how
 * larger mini-batches raise SM utilization on a real V100.
 */

#ifndef DGXSIM_HW_GPU_SPEC_HH
#define DGXSIM_HW_GPU_SPEC_HH

#include <compare>
#include <string>

#include "sim/types.hh"

namespace dgxsim::hw {

/** Description of one GPU device. */
struct GpuSpec
{
    std::string name;
    int numSms = 0;
    /** Peak single-precision throughput in TFLOP/s. */
    double fp32Tflops = 0;
    /** Peak tensor-core throughput in TFLOP/s (0 if absent). */
    double tensorTflops = 0;
    /** HBM bandwidth in GB/s. */
    double memBwGBps = 0;
    /** Device memory capacity in bytes. */
    sim::Bytes memCapacity = 0;

    /** Host-side CPU occupancy of one kernel-launch API call (us). */
    double launchOverheadUs = 0;
    /** Fixed device-side cost per kernel (scheduling, ramp-up; us). */
    double kernelTailUs = 0;
    /** Fraction of peak FLOPs achievable by saturating DNN kernels. */
    double effMax = 0;
    /**
     * Per-SM work (FLOPs) at which a kernel reaches half of effMax.
     * Smaller kernels run at proportionally lower efficiency.
     */
    double satWorkPerSm = 0;
    /**
     * What-if ablation knob: divide every modeled kernel duration by
     * this factor (analysis::WhatIf "kernel_speedup" ground truth).
     * The default 1.0 is bit-exact with the unscaled model.
     */
    double speedupFactor = 1.0;

    /** Member-wise comparison (platform-default detection, cache
     * keys). */
    auto operator<=>(const GpuSpec &) const = default;

    /** Tesla V100-SXM2-16GB as shipped in the Volta DGX-1. */
    static GpuSpec voltaV100();

    /** Tesla P100-SXM2-16GB (Pascal DGX-1), for cross-generation
     * ablations. */
    static GpuSpec pascalP100();

    /** @return peak FLOPs per tick for the selected math pipeline. */
    double
    peakFlopsPerTick(bool tensor_cores) const
    {
        const double tflops =
            tensor_cores && tensorTflops > 0 ? tensorTflops : fp32Tflops;
        // 1 TFLOP/s == 1e12 flops / 1e12 ps == 1 flop per tick.
        return tflops;
    }

    /** @return HBM bandwidth in bytes per tick. */
    double
    memBytesPerTick() const
    {
        return sim::gbpsToBytesPerTick(memBwGBps);
    }
};

/** Description of one host CPU socket. */
struct HostSpec
{
    std::string name;
    int cores = 0;
    /** Effective PCIe bandwidth per direction to each GPU (GB/s). */
    double pcieGBps = 0;
    /** Effective inter-socket (QPI) bandwidth per direction (GB/s). */
    double qpiGBps = 0;
    /** Host software overhead added to each staged host copy (us). */
    double stagingOverheadUs = 0;

    /** Member-wise equality (platform-default detection). */
    bool operator==(const HostSpec &) const = default;

    /** Intel Xeon E5-2698 v4 as shipped in the DGX-1. */
    static HostSpec xeonE52698v4();
};

} // namespace dgxsim::hw

#endif // DGXSIM_HW_GPU_SPEC_HH
