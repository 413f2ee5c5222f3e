/**
 * @file
 * Dependency-DAG and critical-path engine over profiler records.
 *
 * A finished run leaves the profiler holding every kernel, API call
 * and copy with stable ids and causal edges (see profiling/profiler.hh
 * for the edge taxonomy). Dag rebuilds the graph, walks the critical
 * path backward from the record that ends last, and attributes every
 * tick of the makespan to one of four categories:
 *
 *  - Compute: kernels on compute/update streams,
 *  - Comm:    copies plus communication kernels (NCCL hop kernels,
 *             parameter-server accumulate) — the *exposed* part, i.e.
 *             only where communication is the binding constraint,
 *  - Api:     host CUDA-API occupancy on the binding chain,
 *  - Idle:    binding-chain gaps no record explains.
 *
 * The walk partitions [0, makespan] exactly, so the four categories
 * sum tick-exact to the epoch makespan by construction — the paper's
 * "where does the time go" tables, computed instead of eyeballed.
 */

#ifndef DGXSIM_ANALYSIS_DAG_HH
#define DGXSIM_ANALYSIS_DAG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/topology.hh"
#include "profiling/profiler.hh"
#include "sim/types.hh"

namespace dgxsim::analysis {

/** Attribution category of one critical-path segment. */
enum class Category
{
    Compute,
    Comm,
    /** Copies routed over the inter-node NIC/switch fabric plus
     * kernels on "ib." lanes (hierarchical collectives); separate
     * from Comm so a cluster run shows where the wire time lives. */
    InterNodeComm,
    Api,
    Idle,
};

/** @return a short lowercase category name. */
const char *categoryName(Category c);

/** One record lifted into the DAG. */
struct Node
{
    profiling::RecordId id = profiling::kNoRecord;
    profiling::RecordKind kind = profiling::RecordKind::Kernel;
    /** Kernel name, API name, or copy kind. */
    profiling::Name name;
    /** Serialized lane: stream, host thread, or copy route
     * ("<kind> <src>><dst>"). */
    profiling::Name lane;
    sim::Tick start = 0;
    sim::Tick end = 0;
    /** GPU id for kernels; -1 for host APIs and copies. */
    int device = -1;
    Category category = Category::Compute;
    /** API only: the call stalled on device work (end-dependencies). */
    bool blocking = false;
    /** API only: fixed host-occupancy portion. */
    sim::Tick overhead = 0;
    /** Copy only: payload routed over NVLink (what-if scalable). */
    bool nvlinkCopy = false;
    /** Copy only: payload crossed the inter-node fabric (what-if
     * "ib_bw" scalable). */
    bool interNodeCopy = false;
    /**
     * Inter-node copy only: estimated share of the duration spent on
     * the IB wire legs (uncontended serialization + latency over the
     * route's IB links, clamped to 1). The ib_bw replay scales only
     * this share — the PCIe host-staging legs of the route keep
     * their time whatever the fabric speed.
     */
    double ibFraction = 0;
    /**
     * Kernel only: duration produced by the roofline model
     * (cuda::kernelDuration), so GpuSpec::speedupFactor scales it.
     * NCCL ring-hop kernels are bandwidth/latency-modeled instead.
     */
    bool scalableKernel = false;
    /** Predecessors that end at or before this node starts. */
    std::vector<std::int32_t> startPreds;
    /** Blocking-API predecessors ending inside (start, end]. */
    std::vector<std::int32_t> endPreds;
    /**
     * Predecessors still running when this node starts (an async
     * issuer: a launch API whose record ends after the kernel it
     * issued begins). The replay anchors these start-to-start, with
     * the offset scaled by the issuer's duration change.
     */
    std::vector<std::int32_t> issuePreds;

    sim::Tick duration() const { return end - start; }
};

/** One piece of the critical-path partition of [0, makespan]. */
struct Segment
{
    sim::Tick start = 0;
    sim::Tick end = 0;
    Category category = Category::Idle;
    /** Node index the ticks are attributed to; -1 for idle gaps. */
    std::int32_t node = -1;
};

/** Critical-path attribution: a tick-exact partition of the run. */
struct Attribution
{
    sim::Tick makespan = 0;
    sim::Tick compute = 0;
    sim::Tick comm = 0;
    /** Exposed inter-node (NIC/IB) communication; 0 on one node. */
    sim::Tick interNodeComm = 0;
    sim::Tick api = 0;
    sim::Tick idle = 0;
    /**
     * The share of idle spent waiting for a pipeline-stage kernel:
     * an idle segment directly feeding a "stage*" lane kernel is the
     * schedule's fill/drain (or steady-state starvation) bubble,
     * not generic dead time. Always <= idle; 0 outside the
     * model-parallel/pipeline modes.
     */
    sim::Tick pipelineBubble = 0;
    /** Binding-chain work: makespan minus idle (<= makespan). */
    sim::Tick criticalPath = 0;
    /** Back-to-front partition segments, in time order. */
    std::vector<Segment> segments;

    /** @return the category sum (== makespan, always). */
    sim::Tick
    total() const
    {
        return compute + comm + interNodeComm + api + idle;
    }
};

/** Per-device view of the attribution. */
struct DeviceBreakdown
{
    int device = -1;
    /** Total kernel-busy ticks on the device (all lanes). */
    sim::Tick kernelBusy = 0;
    /** Ticks of the critical path bound to this device's kernels. */
    sim::Tick critical = 0;
};

/** One top-k critical-path contributor (aggregated by record name). */
struct Contributor
{
    std::string name;
    Category category = Category::Idle;
    sim::Tick critical = 0;
    std::uint64_t segments = 0;
};

/** Aggregate view of one gradient-compression codec kernel
 * (comm/compression.hh names them gradCompress_* / gradDecompress_*). */
struct CodecKernelStats
{
    std::string name;
    /** Total busy ticks across all devices and lanes. */
    sim::Tick busy = 0;
    /** Ticks of the critical path bound to this kernel name. */
    sim::Tick critical = 0;
    std::uint64_t launches = 0;
};

/** The causal DAG of one finished run. */
class Dag
{
  public:
    /**
     * Build the graph from @p prof's current record set. @p topo
     * classifies copy routes (NVLink vs. PCIe) for what-if scaling.
     * Beyond the recorded edges, time-respecting per-lane program-
     * order edges are added (kernels per (device, stream), APIs per
     * thread, copies per route), so serialized lanes chain even
     * where the emitting site recorded no explicit edge.
     */
    Dag(const profiling::Profiler &prof, const hw::Topology &topo);

    const std::vector<Node> &nodes() const { return nodes_; }

    /** @return the end of the last record (the run's makespan). */
    sim::Tick makespan() const { return makespan_; }

    /** @return total directed edges (explicit + implicit). */
    std::uint64_t edgeCount() const { return edges_; }

    /** @return recorded deps dropped as non-causal (diagnostic). */
    std::uint64_t droppedDeps() const { return droppedDeps_; }

    /**
     * Walk the binding chain backward from the sink and partition
     * [0, makespan] into attributed segments. The partition is exact:
     * attribution.total() == makespan() on every input.
     */
    Attribution attribute() const;

    /** Per-device kernel-busy and critical-path breakdown. */
    std::vector<DeviceBreakdown>
    deviceBreakdown(const Attribution &attr) const;

    /** Top-@p k critical-path contributors by aggregated name. */
    std::vector<Contributor> topContributors(const Attribution &attr,
                                             std::size_t k) const;

    /**
     * Busy/critical totals of the gradient-compression codec kernels
     * (gradCompress_* and gradDecompress_*), in name order. Empty when
     * the run used no compressor, so report() only prints the codec
     * section for compressed runs.
     */
    std::vector<CodecKernelStats>
    codecKernelStats(const Attribution &attr) const;

    /** Render attribution + breakdowns as an aligned text report. */
    std::string report(const Attribution &attr, std::size_t top_k = 10) const;

  private:
    void addLaneEdges();

    std::vector<Node> nodes_;
    sim::Tick makespan_ = 0;
    std::uint64_t edges_ = 0;
    std::uint64_t droppedDeps_ = 0;
};

} // namespace dgxsim::analysis

#endif // DGXSIM_ANALYSIS_DAG_HH
