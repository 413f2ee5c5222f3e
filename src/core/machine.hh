/**
 * @file
 * The shared DGX-1 substrate every trainer runs on.
 *
 * A Machine owns the pieces all parallelization strategies need and
 * used to hand-roll separately: the simulation event queue, the
 * profiler, the fabric (topology + fluid flow network), one
 * cuda::Device (with memory tracker) per participating GPU, and the
 * CUDA streams / host threads the strategy creates through the
 * factory methods here. It also centralizes the cross-cutting
 * plumbing: invariant-auditor wiring, the shared memory planner
 * (data-parallel and model-parallel layouts), launch-overhead
 * helpers, end-of-run quiescence auditing, the determinism digest,
 * and the memory fields of the common TrainReport.
 *
 * Trainers (core/trainer_base.hh) are thin strategies over this
 * class: adding a new parallelism mode means writing the iteration
 * schedule, not re-plumbing the substrate.
 */

#ifndef DGXSIM_CORE_MACHINE_HH
#define DGXSIM_CORE_MACHINE_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hh"
#include "core/train_config.hh"
#include "cuda/device.hh"
#include "cuda/host_thread.hh"
#include "cuda/stream.hh"
#include "dnn/network.hh"
#include "hw/cluster.hh"
#include "hw/fabric.hh"
#include "hw/platform.hh"
#include "profiling/profiler.hh"
#include "sim/event_queue.hh"

namespace dgxsim::core {

/** The simulated host + GPU substrate for one training run. */
class Machine
{
  public:
    /**
     * Build the substrate: fabric over @p topo, the first
     * cfg.numGpus GPUs as devices. Validates numGpus, batchPerGpu
     * and datasetImages (fatal on nonsense). Single-node only
     * (cfg.nodes must be 1); cluster runs go through the Platform
     * or Cluster constructors.
     */
    Machine(const TrainConfig &cfg, hw::Topology topo,
            hw::HostSpec host = hw::HostSpec::xeonE52698v4());

    /**
     * Build the substrate a registered platform describes. When
     * cfg.nodes > 1 this stands up cfg.nodes replicas joined by
     * cfg.interconnect (hw::makeCluster) with cfg.numGpus GPUs per
     * node, selected node-major.
     */
    Machine(const TrainConfig &cfg, const hw::Platform &platform);

    /** Build the substrate over an explicit cluster. */
    Machine(const TrainConfig &cfg, const hw::Cluster &cluster);
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;
    ~Machine();

    sim::EventQueue &queue() { return queue_; }
    profiling::Profiler &profiler() { return profiler_; }
    const profiling::Profiler &profiler() const { return profiler_; }
    hw::Fabric &fabric() { return *fabric_; }
    const hw::Fabric &fabric() const { return *fabric_; }
    const hw::Topology &topology() const { return fabric_->topology(); }

    /** @return the participating GPU nodes, in rank order. */
    const std::vector<hw::NodeId> &gpus() const { return gpus_; }

    /** @return device of rank @p g (0 is the root/server GPU). */
    cuda::Device &device(std::size_t g) { return *devices_[g]; }
    const cuda::Device &device(std::size_t g) const
    {
        return *devices_[g];
    }

    /**
     * Create a stream on the GPU of rank @p g. The Machine owns it
     * and includes it in the end-of-run drain audit.
     */
    cuda::Stream &addStream(std::size_t g, std::string name);

    /** Create a host worker thread owned by the Machine. */
    cuda::HostThread &addHostThread(std::string name);

    /**
     * Per-node namespace for stream/thread names: rank @p g maps to
     * "<base><g>" on a single node (byte-identical to the historical
     * names) and to "n<node>.<base><local>" on a cluster.
     */
    std::string laneName(std::size_t g, const std::string &base) const;

    /** @return the cluster node rank @p g lives on (0 if nodes==1). */
    int nodeOf(std::size_t g) const;

    /** @return per-call kernel-launch overhead of the GPU spec. */
    sim::Tick launchOverhead() const;

    /**
     * Wire the invariant auditor (sim/auditor.hh) into the profiler
     * and every device memory tracker when cfg.audit asks for one or
     * the fabric already carries one (commConfig.audit or the
     * DGXSIM_AUDIT environment override). Call after communicator
     * construction so a communicator-enabled auditor is seen.
     */
    void wireAuditor();

    /**
     * Allocate the data-parallel replica layout on every device:
     * context, weights, gradients, activations, workspace and dataset
     * buffers per GPU, plus the root GPU's aggregation buffers when
     * more than one GPU participates. Shared by the synchronous and
     * asynchronous trainers. Throws sim::FatalError on OOM.
     */
    void setupDataParallelMemory(const dnn::Network &net);

    /**
     * Allocate the pipeline layout: each stage holds only its layers'
     * weights and gradients, the activations of its peak in-flight
     * microbatch count (schedule-reported: the full microbatch count
     * for gpipe fill-drain, min(m, stages - s) for 1F1B), its own
     * workspace pool, and — on stage 0 — the input staging buffers
     * for all @p staged_microbatches. Throws sim::FatalError on OOM.
     * @param stages [first, last] layer index per stage.
     * @param live_microbatches peak live microbatches per stage (one
     *        entry per stage).
     * @param staged_microbatches total microbatches per iteration
     *        (sizes stage 0's dataset staging).
     */
    void setupModelParallelMemory(
        const dnn::Network &net,
        const std::vector<std::pair<std::size_t, std::size_t>> &stages,
        int microbatch_size, const std::vector<int> &live_microbatches,
        int staged_microbatches);

    /** Fill the report's gpu0/gpux memory fields from the trackers. */
    void fillMemoryReport(TrainReport &report) const;

    /**
     * End of a run: when an auditor is attached, check the event
     * queue and flow network are quiescent, run @p extra (strategy
     * checks, e.g. communicator idle), verify every Machine-owned
     * stream drained, and record the audit counters into @p report.
     * Then stamp report.digest with digest(), except in a timing-only
     * run (TrainConfig::timingOnly), whose digest stays 0.
     */
    void finishRun(TrainReport &report,
                   const std::function<void(sim::Auditor &)> &extra = {});

    /**
     * Order-sensitive digest of the profiler record stream folded
     * with the final simulation state (clock, executed events,
     * per-link bytes) — the determinism contract every mode obeys
     * (core/determinism.hh).
     */
    std::uint64_t digest() const;

  private:
    /** Shared validation + what-if link scaling for every ctor. */
    void commonInit();

    const TrainConfig &cfg_;
    sim::EventQueue queue_;
    profiling::Profiler profiler_;
    std::unique_ptr<hw::Fabric> fabric_;
    std::vector<hw::NodeId> gpus_;
    std::vector<std::unique_ptr<cuda::Device>> devices_;
    std::vector<std::unique_ptr<cuda::Stream>> streams_;
    std::vector<std::unique_ptr<cuda::HostThread>> threads_;
};

} // namespace dgxsim::core

#endif // DGXSIM_CORE_MACHINE_HH
