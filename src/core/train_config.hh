/**
 * @file
 * Configuration of one simulated training run, mirroring the knobs
 * the paper sweeps: workload, GPU count, per-GPU batch size,
 * communication method, and dataset size (strong vs. weak scaling).
 */

#ifndef DGXSIM_CORE_TRAIN_CONFIG_HH
#define DGXSIM_CORE_TRAIN_CONFIG_HH

#include <compare>
#include <cstdint>
#include <string>

#include "comm/factory.hh"
#include "core/parallelism.hh"
#include "hw/cluster.hh"
#include "hw/gpu_spec.hh"
#include "hw/platform.hh"

namespace dgxsim::core {

/** Memory-model constants (calibrated against Table IV's trends). */
struct MemoryModel
{
    /** CUDA context + cuDNN/cuBLAS handles per GPU (GB). */
    double contextGB = 0.55;
    /**
     * Multiplier on stored layer outputs covering forward maps,
     * backward gradient maps, and allocator fragmentation.
     */
    double activationFactor = 2.45;
    /** Multiplier on the largest single-layer cuDNN workspace. */
    double workspaceFactor = 2.0;
    /**
     * Fixed cuDNN algorithm/workspace pool per convolution layer
     * (MB): autotuning keeps per-layer plans and scratch resident,
     * so deep networks carry a large batch-independent footprint —
     * what makes Table IV's growth sublinear in batch size.
     */
    double cudnnPoolMBPerConv = 30.0;
    /**
     * Extra parameter-array copies the root GPU keeps for gradient
     * aggregation and master weights (x paramBytes).
     */
    double rootCommFactor = 2.0;
    /** Input mini-batch staging buffers (double buffering). */
    double datasetBuffers = 2.0;

    auto operator<=>(const MemoryModel &) const = default;
};

/** One training experiment. */
struct TrainConfig
{
    /** Zoo model name (see dnn::modelNames()). */
    std::string model = "resnet-50";
    /** Number of data-parallel GPUs (1, 2, 4 or 8 in the paper).
     * When nodes > 1 this is the per-node count; see totalGpus(). */
    int numGpus = 1;
    /**
     * Cluster nodes joined by the inter-node NIC/switch fabric
     * (hw/cluster.hh). 1 is the paper's single box and leaves every
     * digest and baseline byte-identical; > 1 stands up N platform
     * replicas and switches the communicator to the hierarchical
     * two-level schedule.
     */
    int nodes = 1;
    /** Inter-node network, by registry name (nodes > 1 only). */
    std::string interconnect = hw::kDefaultInterconnect;
    /** Mini-batch size per GPU (16, 32 or 64 in the paper). */
    int batchPerGpu = 16;
    /** Inter-GPU communication method. */
    comm::CommMethod method = comm::CommMethod::NCCL;
    /**
     * Parallelization strategy (core/parallelism.hh). Every mode
     * runs on the same Machine substrate; sync_dp is the paper's
     * measured schedule, async_ps and model_parallel the extensions
     * it discusses. Selects the trainer via TrainerBase::make().
     */
    ParallelismMode mode = ParallelismMode::SyncDp;
    /**
     * async_ps only: steady-state iterations each worker simulates
     * before extrapolating to the epoch (the async analogue of
     * measuredIterations).
     */
    int asyncItersPerWorker = 30;
    /**
     * model_parallel only: pipeline depth (microbatches per global
     * batch). 0 selects numGpus.
     */
    int microbatches = 0;
    /** Images per epoch (256K in the paper's strong-scaling runs). */
    std::uint64_t datasetImages = 256000;
    /** Steady-state iterations to simulate before extrapolating. */
    int measuredIterations = 2;
    /**
     * Idealized BP/WU overlap: push each gradient bucket the moment
     * its layer's backward kernels retire. MXNet supports this
     * pipelining, but the paper's profiles show near-serial behavior
     * (kvstore work contends with BP; "the actual communication time
     * is larger than the time required for the WU stage"), so the
     * default models the measured machine; enable for the overlap
     * ablation benchmark.
     */
    bool overlapBpWu = false;
    /**
     * Use tensor cores (fp16 math). The paper's MXNet 18.04 runs
     * train in fp32, so this defaults off; turn on for ablations.
     */
    bool useTensorCores = false;
    /**
     * Serial per-GPU dispatch cost of the framework engine at each
     * iteration (data iterator + executor setup). This cost grows
     * with GPU count per iteration and is what keeps short-iteration
     * workloads (LeNet) from scaling linearly — the CUDA-API
     * overhead effect of paper Table III.
     */
    double engineDispatchUs = 165.0;
    /**
     * One-time per-run setup: cuDNN algorithm autotuning, stream and
     * kvstore creation. Fixed per epoch, so weak scaling (more
     * images per epoch) amortizes it better than strong scaling —
     * the paper's Fig. 5 effect for the small networks.
     */
    double setupOnceSeconds = 0.5;
    /**
     * Extension: replace the paper-era Reduce + root-update +
     * Broadcast weight update with a single fused ring AllReduce
     * followed by replicated local updates (what later MXNet/Horovod
     * stacks do). Off by default to match the measured machine.
     */
    bool useAllReduce = false;
    /**
     * Extension: fuse consecutive gradient buckets until each
     * message reaches at least this many megabytes before
     * communicating (gradient bucketing a la Horovod/DDP). 0 keeps
     * MXNet's one-array-per-layer behavior.
     */
    double bucketFusionMB = 0.0;
    /**
     * Run the simulation invariant auditor (sim/auditor.hh): byte
     * conservation per flow, link-capacity and busy-time bounds,
     * record ordering, memory-capacity limits, and end-of-run
     * quiescence are validated while the run executes. Violations
     * abort the run with a diagnostic. Also forced on by the
     * DGXSIM_AUDIT environment variable.
     */
    bool audit = false;
    /**
     * Timing-only run: the profiler keeps its running totals and the
     * Auditor still sees every record, but no record is stored and
     * the report's digest is 0. Every other report field is
     * bit-identical to a full run's. Set by callers that never read
     * records or digests (advise, `check --no-digest`, `sweep`); no
     * CLI option sets it.
     */
    bool timingOnly = false;
    /**
     * What-if ablation knob: scale the bandwidth of every NVLink in
     * the fabric by this factor before the run (analysis::WhatIf
     * "nvlink_bw" ground truth). 1.0 leaves the fabric untouched.
     */
    double nvlinkBwScale = 1.0;
    /**
     * What-if ablation knob: scale the bandwidth of every inter-node
     * IB link by this factor before the run (analysis::WhatIf
     * "ib_bw" ground truth). 1.0 leaves the fabric untouched; only
     * meaningful when nodes > 1.
     */
    double ibBwScale = 1.0;
    /**
     * Host entry overhead of the iteration-end cudaStreamSynchronize
     * (us). Exposed so the analysis engine's "api_overhead" what-if
     * can scale it like every other modeled API cost.
     */
    double syncEntryUs = 2.0;
    /**
     * Hardware substrate to simulate on, by registry name
     * (hw/platform.hh). The default is the paper's DGX-1V; any other
     * name swaps topology + device specs under the same workload.
     * Ignored by the explicit-topology trainer constructors.
     */
    std::string platform = hw::kDefaultPlatform;
    /**
     * GPU model (swap for pascalP100() in ablations). When left at
     * the default V100 it yields to the selected platform's GPU; an
     * explicit override always wins (see TrainerBase).
     */
    hw::GpuSpec gpuSpec = hw::GpuSpec::voltaV100();
    /** Communication tunables. */
    comm::CommConfig commConfig;
    /** Memory-model constants. */
    MemoryModel memoryModel;

    /**
     * Member-wise order: a config is its own simulate-cache key
     * (campaign::cachedSimulate), so a new field joins the key with
     * no further edit. The order is partial only through NaN, which
     * no parser lets in: CLI options, record JSON and what-if values
     * are finite-checked.
     */
    auto operator<=>(const TrainConfig &) const = default;

    /** @return GPUs across the whole cluster. */
    int totalGpus() const { return nodes * numGpus; }

    /** @return global mini-batch size across all GPUs. */
    int globalBatch() const { return totalGpus() * batchPerGpu; }

    /** @return iterations in one epoch of datasetImages. */
    std::uint64_t
    iterationsPerEpoch() const
    {
        const std::uint64_t global =
            static_cast<std::uint64_t>(globalBatch());
        return (datasetImages + global - 1) / global;
    }
};

} // namespace dgxsim::core

#endif // DGXSIM_CORE_TRAIN_CONFIG_HH
