#include "analysis/dag.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "core/text_table.hh"
#include "sim/logging.hh"

namespace dgxsim::analysis {

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::Compute:
        return "compute";
      case Category::Comm:
        return "comm";
      case Category::InterNodeComm:
        return "inter_node_comm";
      case Category::Api:
        return "api";
      default:
        return "idle";
    }
}

namespace {

/** Communication kernels run on the "comm" lane, its per-chunk
 * variants ("comm.c<tag>" scheduler chunks, "comm.z<tag>"
 * compression codecs), or NCCL hop lanes. */
bool
isCommLane(const std::string &lane)
{
    return lane == "comm" || lane.rfind("comm.", 0) == 0 ||
           lane.rfind("nccl.", 0) == 0;
}

/** Inter-node collective kernels run on "ib." lanes
 * (comm/hierarchical_communicator.cc). */
bool
isInterNodeLane(const std::string &lane)
{
    return lane.rfind("ib.", 0) == 0;
}

bool
isNvlinkRoute(const hw::Topology &topo, int src, int dst)
{
    if (src < 0 || dst < 0)
        return false;
    const hw::Route &route =
        topo.findRoute(static_cast<hw::NodeId>(src),
                       static_cast<hw::NodeId>(dst));
    return route.kind == hw::RouteKind::DirectNvlink ||
           route.kind == hw::RouteKind::SwitchNvlink ||
           route.kind == hw::RouteKind::StagedNvlink;
}

bool
isInterNodeRoute(const hw::Topology &topo, int src, int dst)
{
    if (src < 0 || dst < 0)
        return false;
    const hw::Route &route =
        topo.findRoute(static_cast<hw::NodeId>(src),
                       static_cast<hw::NodeId>(dst));
    return route.kind == hw::RouteKind::InterNode;
}

} // namespace

Dag::Dag(const profiling::Profiler &prof, const hw::Topology &topo)
{
    const profiling::RecordId base = prof.firstId();
    const std::size_t count = prof.recordCount();
    nodes_.reserve(count);

    for (std::size_t i = 0; i < count; ++i) {
        const profiling::RecordId id =
            base + static_cast<profiling::RecordId>(i);
        const profiling::RecordRef &ref = prof.recordRef(id);
        Node node;
        node.id = id;
        node.kind = ref.kind;
        const std::vector<profiling::RecordId> *deps = nullptr;
        switch (ref.kind) {
          case profiling::RecordKind::Kernel: {
            const profiling::KernelRecord &k = prof.kernels()[ref.index];
            node.name = k.name;
            node.lane = k.stream;
            node.start = k.start;
            node.end = k.end;
            node.device = k.device;
            node.category = isInterNodeLane(k.stream)
                                ? Category::InterNodeComm
                                : isCommLane(k.stream)
                                      ? Category::Comm
                                      : Category::Compute;
            // NCCL hop kernels are modeled from link bandwidth and
            // hop latency, not the roofline, so a GPU speedup does
            // not touch them; everything else goes through
            // cuda::kernelDuration.
            node.scalableKernel = k.stream.rfind("nccl.", 0) != 0;
            deps = &k.deps;
            break;
          }
          case profiling::RecordKind::Api: {
            const profiling::ApiRecord &a = prof.apis()[ref.index];
            node.name = a.name;
            node.lane = a.thread;
            node.start = a.start;
            node.end = a.end;
            node.category = Category::Api;
            node.blocking = a.blocking;
            node.overhead = a.overheadTicks();
            deps = &a.deps;
            break;
          }
          default: {
            const profiling::CopyRecord &c = prof.copies()[ref.index];
            node.name = c.kind;
            node.lane = c.kind.str() + " " + std::to_string(c.src) + ">" +
                        std::to_string(c.dst);
            node.start = c.start;
            node.end = c.end;
            node.interNodeCopy = isInterNodeRoute(topo, c.src, c.dst);
            node.category = node.interNodeCopy
                                ? Category::InterNodeComm
                                : Category::Comm;
            node.nvlinkCopy = isNvlinkRoute(topo, c.src, c.dst);
            if (node.interNodeCopy && node.duration() > 0) {
                // Estimate what share of the recorded duration an
                // ib_bw what-if can actually speed up. The route is
                // staged, and only its IB legs scale with the
                // fabric. Per-leg timing is not recorded, so bracket
                // the IB share: at least the uncontended IB
                // serialization + latency, at most everything the
                // uncontended PCIe staging legs cannot account for
                // (max-min contention lives on the IB wire). Take
                // the midpoint of the bracket.
                const hw::Route &route = topo.findRoute(
                    static_cast<hw::NodeId>(c.src),
                    static_cast<hw::NodeId>(c.dst));
                double ib_secs = 0;
                double pcie_secs = 0;
                for (const hw::RouteLeg &leg : route.legs) {
                    const hw::Link &link = topo.links()[leg.linkIndex];
                    const double leg_secs =
                        static_cast<double>(c.wireBytes) /
                            (link.gbpsPerDir() * 1e9) +
                        link.latencyUs * 1e-6;
                    if (link.type == hw::LinkType::IB)
                        ib_secs += leg_secs;
                    else
                        pcie_secs += leg_secs;
                }
                const double dur =
                    static_cast<double>(node.duration());
                const double lo = std::min(
                    1.0, sim::secToTicks(ib_secs) / dur);
                const double hi = std::max(
                    lo, 1.0 - std::min(1.0, sim::secToTicks(
                                                pcie_secs) /
                                                dur));
                node.ibFraction = 0.5 * (lo + hi);
            }
            deps = &c.deps;
            break;
          }
        }
        // Split recorded edges by causality class: end-to-start
        // (pred finished first), end-to-end (what a blocking API
        // waited on), start-to-start (an async issuer still running
        // when its issued work began). Anything else is non-causal
        // noise and gets dropped.
        for (profiling::RecordId dep : *deps) {
            const std::int32_t p =
                static_cast<std::int32_t>(dep - base);
            const Node &pred = nodes_[static_cast<std::size_t>(p)];
            if (pred.end <= node.start) {
                node.startPreds.push_back(p);
            } else if (node.blocking && pred.end <= node.end) {
                node.endPreds.push_back(p);
            } else if (pred.start <= node.start) {
                node.issuePreds.push_back(p);
            } else {
                ++droppedDeps_;
            }
        }
        makespan_ = std::max(makespan_, node.end);
        nodes_.push_back(std::move(node));
    }

    addLaneEdges();

    for (const Node &node : nodes_) {
        edges_ += node.startPreds.size() + node.endPreds.size() +
                  node.issuePreds.size();
    }
}

void
Dag::addLaneEdges()
{
    // Group node indices per serialized lane; the lane string alone
    // could collide across kinds, so prefix with a kind tag.
    std::map<std::string, std::vector<std::int32_t>> lanes;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &node = nodes_[i];
        std::string key;
        switch (node.kind) {
          case profiling::RecordKind::Kernel:
            key = "k:" + std::to_string(node.device) + ":" + node.lane;
            break;
          case profiling::RecordKind::Api:
            key = "a:" + node.lane;
            break;
          default:
            key = "c:" + node.lane;
            break;
        }
        lanes[key].push_back(static_cast<std::int32_t>(i));
    }

    for (auto &[key, members] : lanes) {
        (void)key;
        std::sort(members.begin(), members.end(),
                  [this](std::int32_t a, std::int32_t b) {
                      const Node &na = nodes_[a];
                      const Node &nb = nodes_[b];
                      if (na.start != nb.start)
                          return na.start < nb.start;
                      return na.id < nb.id;
                  });
        // Frontier walk: chain each member to the latest-ending
        // earlier member when the edge is time-respecting. Members
        // of one lane rarely overlap, but interleaved collectives
        // can (distinct hop gates share a link), so the guard stays.
        std::int32_t frontier = -1;
        for (std::int32_t m : members) {
            Node &node = nodes_[m];
            if (frontier >= 0) {
                const Node &prev = nodes_[frontier];
                if (prev.end <= node.start &&
                    std::find(node.startPreds.begin(),
                              node.startPreds.end(),
                              frontier) == node.startPreds.end()) {
                    node.startPreds.push_back(frontier);
                }
            }
            if (frontier < 0 || node.end > nodes_[frontier].end)
                frontier = m;
        }
    }
}

Attribution
Dag::attribute() const
{
    Attribution attr;
    attr.makespan = makespan_;
    if (nodes_.empty())
        return attr;

    // Sink: latest end, ties broken toward the latest-landing record.
    std::int32_t cur = 0;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
        if (nodes_[i].end >= nodes_[cur].end)
            cur = static_cast<std::int32_t>(i);
    }

    const auto binding = [this](const std::vector<std::int32_t> &preds) {
        std::int32_t best = -1;
        for (std::int32_t p : preds) {
            if (best < 0 || nodes_[p].end > nodes_[best].end ||
                (nodes_[p].end == nodes_[best].end && p > best)) {
                best = p;
            }
        }
        return best;
    };

    std::vector<Segment> segments;
    sim::Tick hi = makespan_;
    while (hi > 0) {
        if (cur < 0) {
            segments.push_back({0, hi, Category::Idle, -1});
            hi = 0;
            break;
        }
        const Node &node = nodes_[cur];
        if (node.end < hi) {
            // Nothing on the binding chain explains (node.end, hi].
            segments.push_back({node.end, hi, Category::Idle, -1});
            hi = node.end;
            if (hi == 0)
                break;
        }
        if (node.blocking && !node.endPreds.empty()) {
            // The call's tail is time spent waiting: charge the
            // frontier to the awaited chain, not to the API.
            cur = binding(node.endPreds);
            continue;
        }
        if (node.start < hi) {
            segments.push_back({node.start, hi, node.category, cur});
            hi = node.start;
        }
        // Follow the latest-ending finished predecessor; a node with
        // only an in-flight issuer continues through the issuer (its
        // id is strictly smaller, so the walk still terminates).
        cur = !node.startPreds.empty() ? binding(node.startPreds)
              : !node.issuePreds.empty()
                  ? binding(node.issuePreds)
                  : -1;
    }
    std::reverse(segments.begin(), segments.end());

    // Idle that directly precedes a pipeline-stage kernel on the
    // binding chain is the schedule's bubble: the stage sat starved
    // waiting for an operand, not for a collective or an API.
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
        if (segments[i].category != Category::Idle)
            continue;
        const Segment &next = segments[i + 1];
        if (next.node < 0)
            continue;
        const Node &node = nodes_[next.node];
        if (node.kind == profiling::RecordKind::Kernel &&
            node.lane.rfind("stage", 0) == 0) {
            attr.pipelineBubble += segments[i].end - segments[i].start;
        }
    }

    for (const Segment &seg : segments) {
        const sim::Tick ticks = seg.end - seg.start;
        switch (seg.category) {
          case Category::Compute:
            attr.compute += ticks;
            break;
          case Category::Comm:
            attr.comm += ticks;
            break;
          case Category::InterNodeComm:
            attr.interNodeComm += ticks;
            break;
          case Category::Api:
            attr.api += ticks;
            break;
          default:
            attr.idle += ticks;
            break;
        }
    }
    attr.criticalPath = attr.makespan - attr.idle;
    attr.segments = std::move(segments);

    if (attr.total() != attr.makespan) {
        sim::panic("critical-path attribution lost ticks: ",
                   attr.total(), " vs makespan ", attr.makespan);
    }
    return attr;
}

std::vector<DeviceBreakdown>
Dag::deviceBreakdown(const Attribution &attr) const
{
    std::map<int, DeviceBreakdown> acc;
    for (const Node &node : nodes_) {
        if (node.kind != profiling::RecordKind::Kernel)
            continue;
        DeviceBreakdown &d = acc[node.device];
        d.device = node.device;
        d.kernelBusy += node.duration();
    }
    for (const Segment &seg : attr.segments) {
        if (seg.node < 0)
            continue;
        const Node &node = nodes_[seg.node];
        if (node.kind != profiling::RecordKind::Kernel)
            continue;
        acc[node.device].critical += seg.end - seg.start;
    }
    std::vector<DeviceBreakdown> out;
    out.reserve(acc.size());
    for (const auto &[dev, d] : acc) {
        (void)dev;
        out.push_back(d);
    }
    return out;
}

std::vector<Contributor>
Dag::topContributors(const Attribution &attr, std::size_t k) const
{
    std::map<std::string, Contributor> acc;
    for (const Segment &seg : attr.segments) {
        const std::string name =
            seg.node < 0 ? "(idle)" : nodes_[seg.node].name;
        Contributor &c = acc[name];
        c.name = name;
        c.category = seg.node < 0 ? Category::Idle
                                  : nodes_[seg.node].category;
        c.critical += seg.end - seg.start;
        ++c.segments;
    }
    std::vector<Contributor> out;
    out.reserve(acc.size());
    for (const auto &[name, c] : acc) {
        (void)name;
        out.push_back(c);
    }
    std::sort(out.begin(), out.end(),
              [](const Contributor &a, const Contributor &b) {
                  if (a.critical != b.critical)
                      return a.critical > b.critical;
                  return a.name < b.name;
              });
    if (out.size() > k)
        out.resize(k);
    return out;
}

std::vector<CodecKernelStats>
Dag::codecKernelStats(const Attribution &attr) const
{
    const auto isCodec = [](const std::string &name) {
        return name.rfind("gradCompress_", 0) == 0 ||
               name.rfind("gradDecompress_", 0) == 0;
    };
    std::map<std::string, CodecKernelStats> acc;
    for (const Node &node : nodes_) {
        if (node.kind != profiling::RecordKind::Kernel ||
            !isCodec(node.name))
            continue;
        CodecKernelStats &s = acc[node.name];
        s.name = node.name;
        s.busy += node.duration();
        ++s.launches;
    }
    if (acc.empty())
        return {};
    for (const Segment &seg : attr.segments) {
        if (seg.node < 0)
            continue;
        const Node &node = nodes_[seg.node];
        if (node.kind != profiling::RecordKind::Kernel ||
            !isCodec(node.name))
            continue;
        acc[node.name].critical += seg.end - seg.start;
    }
    std::vector<CodecKernelStats> out;
    out.reserve(acc.size());
    for (const auto &[name, s] : acc) {
        (void)name;
        out.push_back(s);
    }
    return out;
}

std::string
Dag::report(const Attribution &attr, std::size_t top_k) const
{
    std::ostringstream os;
    const double total_ms = sim::ticksToMs(attr.makespan);
    os << "==== Critical-path attribution ====\n";
    {
        core::TextTable table({"category", "time_ms", "share"});
        const auto row = [&](const char *name, sim::Tick ticks) {
            const double ms = sim::ticksToMs(ticks);
            const double share =
                attr.makespan == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(ticks) /
                          static_cast<double>(attr.makespan);
            table.addRow({name, core::TextTable::num(ms, 3),
                          core::TextTable::num(share, 1) + "%"});
        };
        row("compute", attr.compute);
        row("comm", attr.comm);
        row("inter_node_comm", attr.interNodeComm);
        row("api", attr.api);
        row("idle", attr.idle);
        if (attr.pipelineBubble > 0)
            row("  pipeline_bubble", attr.pipelineBubble);
        row("makespan", attr.makespan);
        os << table.str();
    }
    os << "critical path " << core::TextTable::num(
              sim::ticksToMs(attr.criticalPath), 3)
       << " ms of " << core::TextTable::num(total_ms, 3)
       << " ms makespan (" << nodes_.size() << " records, "
       << edges_ << " edges)\n";

    os << "==== Per-device ====\n";
    {
        core::TextTable table(
            {"gpu", "kernel_busy_ms", "critical_ms"});
        for (const DeviceBreakdown &d : deviceBreakdown(attr)) {
            table.addRow(
                {std::to_string(d.device),
                 core::TextTable::num(sim::ticksToMs(d.kernelBusy), 3),
                 core::TextTable::num(sim::ticksToMs(d.critical), 3)});
        }
        os << table.str();
    }

    os << "==== Top critical-path contributors ====\n";
    {
        core::TextTable table(
            {"name", "category", "critical_ms", "segments"});
        for (const Contributor &c : topContributors(attr, top_k)) {
            table.addRow(
                {c.name, categoryName(c.category),
                 core::TextTable::num(sim::ticksToMs(c.critical), 3),
                 std::to_string(c.segments)});
        }
        os << table.str();
    }

    // Compression codec attribution: only compressed runs launch
    // gradCompress_/gradDecompress_ kernels, so uncompressed reports
    // are byte-identical to the pre-compression format.
    const std::vector<CodecKernelStats> codecs =
        codecKernelStats(attr);
    if (!codecs.empty()) {
        os << "==== Gradient-compression kernels ====\n";
        core::TextTable table(
            {"kernel", "busy_ms", "critical_ms", "launches"});
        for (const CodecKernelStats &s : codecs) {
            table.addRow(
                {s.name,
                 core::TextTable::num(sim::ticksToMs(s.busy), 3),
                 core::TextTable::num(sim::ticksToMs(s.critical), 3),
                 std::to_string(s.launches)});
        }
        os << table.str();
    }
    return os.str();
}

} // namespace dgxsim::analysis
