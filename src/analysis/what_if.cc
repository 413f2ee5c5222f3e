#include "analysis/what_if.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/text_table.hh"
#include "core/trainer_base.hh"
#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::analysis {

namespace {

/**
 * Divide a duration by the @p knob speedup/bandwidth factor (exact
 * at 1.0). A tiny factor can stretch it past the tick horizon.
 */
sim::Tick
scaleDiv(sim::Tick t, double factor, const char *knob)
{
    if (factor == 1.0)
        return t;
    return sim::checkedTick(0, static_cast<double>(t) / factor,
                            "what-if ", knob, "=", factor,
                            " stretches a ", t, "-tick duration to");
}

/** Multiply a duration by an overhead factor (exact at 1.0). */
sim::Tick
scaleMul(sim::Tick t, double factor)
{
    if (factor == 1.0)
        return t;
    return sim::checkedTick(0, static_cast<double>(t) * factor,
                            "what-if api_overhead=", factor,
                            " stretches a ", t, "-tick duration to");
}

/**
 * Scale an inter-node copy's time: only the IB-wire share
 * (node.ibFraction) shrinks with the fabric; the PCIe host-staging
 * legs keep their duration (exact at 1.0).
 */
sim::Tick
scaleIbShare(sim::Tick t, double ib_fraction, double factor)
{
    if (factor == 1.0)
        return t;
    const double ib = static_cast<double>(t) * ib_fraction;
    return sim::checkedTick(0, static_cast<double>(t) - ib + ib / factor,
                            "what-if ib_bw=", factor, " stretches a ", t,
                            "-tick duration to");
}

/** Busy (non-waiting) replay duration of one node under @p p. */
sim::Tick
scaledBusy(const Node &node, const WhatIfParams &p)
{
    switch (node.kind) {
      case profiling::RecordKind::Kernel:
        return node.scalableKernel
                   ? scaleDiv(node.duration(), p.kernelSpeedup,
                              "kernel_speedup")
                   : node.duration();
      case profiling::RecordKind::Api: {
        const sim::Tick scaled = scaleMul(node.overhead, p.apiOverhead);
        if (node.blocking && !node.endPreds.empty()) {
            // The tail past the overhead was waiting; the end-deps
            // reproduce it in the replay.
            return scaled;
        }
        return node.duration() - node.overhead + scaled;
      }
      default:
        if (node.interNodeCopy)
            return scaleIbShare(node.duration(), node.ibFraction,
                                p.ibBw);
        return node.nvlinkCopy
                   ? scaleDiv(node.duration(), p.nvlinkBw, "nvlink_bw")
                   : node.duration();
    }
}

/** @return the end of the last record in @p prof. */
sim::Tick
profilerMakespan(const profiling::Profiler &prof)
{
    sim::Tick makespan = 0;
    for (const auto &k : prof.kernels())
        makespan = std::max(makespan, k.end);
    for (const auto &a : prof.apis())
        makespan = std::max(makespan, a.end);
    for (const auto &c : prof.copies())
        makespan = std::max(makespan, c.end);
    return makespan;
}

} // namespace

std::vector<WhatIfCase>
standardWhatIfs()
{
    return {
        {"nvlink_bw=2", {2.0, 1.0, 1.0}},
        {"api_overhead=0", {1.0, 0.0, 1.0}},
        {"kernel_speedup=1.5", {1.0, 1.0, 1.5}},
    };
}

std::vector<WhatIfCase>
parseWhatIfSpecs(const std::string &spec)
{
    std::vector<WhatIfCase> cases;
    std::istringstream in(spec);
    std::string token;
    while (std::getline(in, token, ',')) {
        if (token.empty())
            continue;
        if (token == "standard") {
            for (WhatIfCase &c : standardWhatIfs())
                cases.push_back(std::move(c));
            continue;
        }
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
            sim::fatal("bad what-if spec '", token,
                       "': expected key=value or 'standard'");
        }
        const std::string key = token.substr(0, eq);
        const std::optional<double> parsed =
            sim::parseFinite(std::string_view(token).substr(eq + 1));
        if (!parsed) {
            sim::fatal("bad what-if value in '", token,
                       "': expected a finite number");
        }
        const double value = *parsed;
        WhatIfCase c;
        c.label = token;
        if (key == "nvlink_bw") {
            if (value <= 0)
                sim::fatal("nvlink_bw must be > 0, got ", value);
            c.params.nvlinkBw = value;
        } else if (key == "api_overhead") {
            if (value < 0)
                sim::fatal("api_overhead must be >= 0, got ", value);
            c.params.apiOverhead = value;
        } else if (key == "kernel_speedup") {
            if (value <= 0)
                sim::fatal("kernel_speedup must be > 0, got ", value);
            c.params.kernelSpeedup = value;
        } else if (key == "ib_bw") {
            if (value <= 0)
                sim::fatal("ib_bw must be > 0, got ", value);
            c.params.ibBw = value;
        } else {
            sim::fatal("unknown what-if key '", key,
                       "' (nvlink_bw, ib_bw, api_overhead, "
                       "kernel_speedup)");
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

WhatIf::WhatIf(const Dag &dag, const core::TrainConfig &cfg,
               const core::TrainReport &base)
    : dag_(dag), cfg_(cfg), base_(base)
{
}

sim::Tick
WhatIf::project(const WhatIfParams &params) const
{
    const std::vector<Node> &nodes = dag_.nodes();
    std::vector<sim::Tick> new_start(nodes.size(), 0);
    std::vector<sim::Tick> new_end(nodes.size(), 0);
    sim::Tick makespan = 0;

    // Record ids are assigned at completion time, so index order is a
    // topological order of the DAG: every predecessor is replayed
    // before its dependents.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node &node = nodes[i];

        sim::Tick orig_pred = 0;
        sim::Tick replay_pred = 0;
        std::int32_t binding = -1;
        for (std::int32_t p : node.startPreds) {
            if (nodes[p].end > orig_pred || binding < 0) {
                orig_pred = nodes[p].end;
                binding = p;
            }
            replay_pred = std::max(replay_pred, new_end[p]);
        }
        // Slack preservation: keep the recorded gap over the latest-
        // ending predecessor (or the absolute offset for source
        // nodes), so identity parameters replay the schedule
        // tick-exactly. The gap in front of an NVLink copy is fabric
        // queueing behind other routes' traffic, which shrinks with
        // the bandwidth like the copies themselves.
        const bool anchored =
            node.startPreds.empty() && node.issuePreds.empty();
        sim::Tick slack =
            node.startPreds.empty() ? (anchored ? node.start : 0)
                                    : node.start - orig_pred;
        if (binding >= 0 && node.kind == profiling::RecordKind::Copy) {
            if (node.interNodeCopy) {
                // Queueing behind other staged inter-node rounds
                // shrinks like the rounds themselves: only their IB
                // share speeds up.
                slack = scaleIbShare(slack, node.ibFraction,
                                     params.ibBw);
            } else if (node.nvlinkCopy) {
                slack = scaleDiv(slack, params.nvlinkBw, "nvlink_bw");
            }
        }
        // Stretching knobs can push the replay past what a Tick holds.
        const auto at = [&node](sim::Tick base, auto delta) {
            return sim::checkedTick(base, delta, "what-if replay of ",
                                    node.name, " on ", node.lane,
                                    " reaches");
        };
        sim::Tick start = at(
            node.startPreds.empty() && !anchored ? 0 : replay_pred, slack);
        // An async issuer pins us start-to-start; the issue offset
        // tracks the issuer's duration change (a launch API whose
        // overhead halves issues its kernel that much sooner).
        for (std::int32_t p : node.issuePreds) {
            const Node &pred = nodes[p];
            const sim::Tick offset = node.start - pred.start;
            const sim::Tick orig_dur = pred.duration();
            const sim::Tick new_dur = new_end[p] - new_start[p];
            const sim::Tick pinned =
                orig_dur == 0 || new_dur == orig_dur
                    ? at(new_start[p], offset)
                    : at(new_start[p], static_cast<double>(offset) *
                                           static_cast<double>(new_dur) /
                                           static_cast<double>(orig_dur));
            start = std::max(start, pinned);
        }

        sim::Tick end = at(start, scaledBusy(node, params));
        if (node.blocking && !node.endPreds.empty()) {
            sim::Tick orig_wait = 0;
            sim::Tick replay_wait = 0;
            for (std::int32_t p : node.endPreds) {
                orig_wait = std::max(orig_wait, nodes[p].end);
                replay_wait = std::max(replay_wait, new_end[p]);
            }
            // Exit cost after the awaited chain finished.
            const sim::Tick end_slack = node.end - orig_wait;
            end = std::max(end, at(replay_wait, end_slack));
        }
        new_start[i] = start;
        new_end[i] = end;
        makespan = std::max(makespan, end);
    }
    return makespan;
}

core::TrainConfig
WhatIf::modifiedConfig(core::TrainConfig cfg, const WhatIfParams &params)
{
    cfg.gpuSpec.speedupFactor *= params.kernelSpeedup;
    cfg.nvlinkBwScale *= params.nvlinkBw;
    cfg.ibBwScale *= params.ibBw;
    if (params.apiOverhead != 1.0) {
        const double f = params.apiOverhead;
        cfg.gpuSpec.launchOverheadUs *= f;
        cfg.engineDispatchUs *= f;
        cfg.syncEntryUs *= f;
        cfg.commConfig.memcpyIssueUs *= f;
        cfg.commConfig.ncclSetupUs *= f;
        cfg.commConfig.ncclIterFixedUs *= f;
    }
    return cfg;
}

WhatIfResult
WhatIf::evaluate(const WhatIfCase &c, bool validate) const
{
    WhatIfResult r;
    r.label = c.label;
    r.params = c.params;
    r.baseMakespan = dag_.makespan();
    r.projectedMakespan = project(c.params);

    const double ratio =
        r.baseMakespan == 0
            ? 1.0
            : static_cast<double>(r.projectedMakespan) /
                  static_cast<double>(r.baseMakespan);
    // The makespan covers the measured iteration window; setup is a
    // fixed per-run cost outside it.
    r.projectedEpochSeconds =
        (base_.epochSeconds - base_.setupSeconds) * ratio +
        base_.setupSeconds;

    if (validate) {
        auto trainer =
            core::TrainerBase::make(modifiedConfig(cfg_, c.params));
        const core::TrainReport actual = trainer->run();
        r.actualMakespan = profilerMakespan(trainer->profiler());
        r.actualEpochSeconds = actual.epochSeconds;
        r.errorFraction =
            r.actualMakespan == 0
                ? 0.0
                : std::fabs(static_cast<double>(r.projectedMakespan) -
                            static_cast<double>(r.actualMakespan)) /
                      static_cast<double>(r.actualMakespan);
        r.validated = true;
    }
    return r;
}

std::string
WhatIf::report(const std::vector<WhatIfResult> &results)
{
    std::ostringstream os;
    os << "==== What-if projections ====\n";
    core::TextTable table({"scenario", "projected_ms", "actual_ms",
                           "error", "projected_epoch_s"});
    for (const WhatIfResult &r : results) {
        table.addRow(
            {r.label,
             core::TextTable::num(sim::ticksToMs(r.projectedMakespan),
                                  3),
             r.validated
                 ? core::TextTable::num(
                       sim::ticksToMs(r.actualMakespan), 3)
                 : "-",
             r.validated
                 ? core::TextTable::num(100.0 * r.errorFraction, 2) + "%"
                 : "-",
             core::TextTable::num(r.projectedEpochSeconds, 3)});
    }
    os << table.str();
    return os.str();
}

namespace {

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out;
}

} // namespace

std::string
analysisJson(const Dag &dag, const Attribution &attr,
             const std::vector<WhatIfResult> &results,
             std::size_t top_k)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"makespan_ticks\": " << attr.makespan << ",\n";
    os << "  \"attribution_ticks\": {\n";
    os << "    \"compute\": " << attr.compute << ",\n";
    os << "    \"comm\": " << attr.comm << ",\n";
    os << "    \"inter_node_comm\": " << attr.interNodeComm << ",\n";
    os << "    \"api\": " << attr.api << ",\n";
    os << "    \"idle\": " << attr.idle;
    if (attr.pipelineBubble > 0)
        os << ",\n    \"pipeline_bubble\": " << attr.pipelineBubble;
    os << "\n  },\n";
    os << "  \"critical_path_ticks\": " << attr.criticalPath << ",\n";
    os << "  \"records\": " << dag.nodes().size() << ",\n";
    os << "  \"edges\": " << dag.edgeCount() << ",\n";
    os << "  \"dropped_deps\": " << dag.droppedDeps() << ",\n";

    os << "  \"devices\": [";
    bool first = true;
    for (const DeviceBreakdown &d : dag.deviceBreakdown(attr)) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"gpu\": " << d.device
           << ", \"kernel_busy_ticks\": " << d.kernelBusy
           << ", \"critical_ticks\": " << d.critical << "}";
    }
    os << (first ? "]" : "\n  ]") << ",\n";

    os << "  \"top_contributors\": [";
    first = true;
    for (const Contributor &c : dag.topContributors(attr, top_k)) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"name\": \"" << jsonEscape(c.name)
           << "\", \"category\": \"" << categoryName(c.category)
           << "\", \"critical_ticks\": " << c.critical
           << ", \"segments\": " << c.segments << "}";
    }
    os << (first ? "]" : "\n  ]") << ",\n";

    os << "  \"what_if\": [";
    first = true;
    for (const WhatIfResult &r : results) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"scenario\": \"" << jsonEscape(r.label)
           << "\", \"projected_ticks\": " << r.projectedMakespan
           << ", \"projected_epoch_s\": "
           << fmtDouble(r.projectedEpochSeconds);
        if (r.validated) {
            os << ", \"actual_ticks\": " << r.actualMakespan
               << ", \"actual_epoch_s\": "
               << fmtDouble(r.actualEpochSeconds)
               << ", \"error_fraction\": " << fmtDouble(r.errorFraction);
        }
        os << "}";
    }
    os << (first ? "]" : "\n  ]") << "\n";
    os << "}\n";
    return os.str();
}

} // namespace dgxsim::analysis
