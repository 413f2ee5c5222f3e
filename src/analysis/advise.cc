#include "analysis/advise.hh"

#include <algorithm>
#include <map>
#include <set>

#include "campaign/campaign.hh"
#include "comm/factory.hh"
#include "core/text_table.hh"
#include "dnn/models.hh"
#include "hw/platform.hh"
#include "sim/logging.hh"

namespace dgxsim::analysis {

namespace {

/** A strategy family shares one fully-simulated projection anchor. */
struct FamilyKey
{
    std::string platform;
    core::ParallelismMode mode;
    int stages;

    auto operator<=>(const FamilyKey &) const = default;
};

bool
isStaged(core::ParallelismMode mode)
{
    return mode == core::ParallelismMode::ModelParallel ||
           mode == core::ParallelismMode::Pipeline;
}

std::string
strategyLabel(const core::TrainConfig &cfg,
              const core::TrainConfig &base)
{
    std::string label = core::parallelismModeName(cfg.mode);
    if (cfg.mode == core::ParallelismMode::SyncDp) {
        label += "/";
        label += comm::commMethodName(cfg.method);
    } else if (isStaged(cfg.mode)) {
        if (cfg.numGpus != base.numGpus)
            label += " s" + std::to_string(cfg.numGpus);
        label += " ub" + std::to_string(cfg.microbatches);
    }
    if (cfg.platform != base.platform)
        label += " @" + cfg.platform;
    return label;
}

/** @return the report of a timing-only run of @p cfg: the search
 * reads no record and no digest, so it stores and folds none. */
const core::TrainReport &
simulateTimingOnly(core::TrainConfig cfg)
{
    cfg.timingOnly = true;
    return campaign::cachedSimulate(cfg);
}

/** Memory probe: no event loop, just the planner (OOM + footprint). */
const core::TrainReport &
probe(core::TrainConfig cfg)
{
    cfg.measuredIterations = 0;
    return simulateTimingOnly(cfg);
}

double
peakMemGB(const core::TrainReport &r)
{
    return std::max(r.gpu0.trainingGB(), r.gpux.trainingGB());
}

/**
 * Closed-form what-if: with p uniform stages and the per-microbatch
 * work shrinking as 1/m, one iteration costs ~ (m + p - 1) / m units,
 * so a family anchor at m0 projects to any m in the same family.
 */
double
projectEpoch(double anchor_epoch, int p, int m0, int m)
{
    const double anchor_shape = double(m0 + p - 1) / m0;
    const double shape = double(m + p - 1) / m;
    return anchor_epoch * shape / anchor_shape;
}

/** Scale the anchor's *measured* bubble by the ideal-bubble ratio
 * (p-1)/(m+p-1), so stage skew the anchor saw carries over. */
double
projectBubble(double anchor_bubble, int p, int m0, int m)
{
    const double scaled =
        anchor_bubble * double(m0 + p - 1) / double(m + p - 1);
    return std::clamp(scaled, 0.0, 1.0);
}

} // namespace

AdviseResult
adviseStrategies(const core::TrainConfig &base,
                 const AdviseOptions &opts)
{
    if (opts.topK < 1)
        sim::fatal("--topk must be at least 1, got ", opts.topK);
    for (int stages : opts.stageCounts) {
        if (stages < 2)
            sim::fatal("--stages values must be at least 2, got ",
                       stages);
    }
    std::vector<core::ParallelismMode> modes = opts.modes;
    if (modes.empty()) {
        modes = {core::ParallelismMode::SyncDp,
                 core::ParallelismMode::ModelParallel,
                 core::ParallelismMode::Pipeline};
    }
    std::vector<std::string> platforms = opts.platforms;
    if (platforms.empty())
        platforms = {base.platform};

    const int global_batch = base.globalBatch();
    // A staged candidate needs at least one layer per stage.
    const std::size_t layers = dnn::buildByName(base.model).layers().size();

    // --- Enumerate the candidate space -------------------------------
    std::vector<StrategyRow> rows;
    for (const std::string &platform : platforms) {
        const hw::Platform plat = hw::makePlatform(platform);
        for (core::ParallelismMode mode : modes) {
            if (!isStaged(mode)) {
                if (base.numGpus > plat.topology.numGpus())
                    continue;
                std::vector<comm::CommMethod> methods =
                    mode == core::ParallelismMode::SyncDp
                        ? std::vector<comm::CommMethod>{
                              comm::CommMethod::P2P,
                              comm::CommMethod::NCCL}
                        : std::vector<comm::CommMethod>{base.method};
                for (comm::CommMethod method : methods) {
                    StrategyRow row;
                    row.cfg = base;
                    row.cfg.platform = platform;
                    row.cfg.mode = mode;
                    row.cfg.method = method;
                    row.label = strategyLabel(row.cfg, base);
                    rows.push_back(std::move(row));
                }
                continue;
            }
            std::vector<int> stage_counts = opts.stageCounts;
            if (stage_counts.empty())
                stage_counts = {base.numGpus};
            for (int stages : stage_counts) {
                // The default depth is the base GPU count, which may
                // be 1: no staged candidate then.
                if (stages < 2 || stages > plat.topology.numGpus())
                    continue;
                if (global_batch % stages != 0 ||
                    static_cast<std::size_t>(stages) > layers)
                    continue;
                std::vector<int> ubs = opts.microbatchCounts;
                if (ubs.empty())
                    ubs = {stages, 2 * stages, 4 * stages};
                std::set<int> seen;
                for (int ub : ubs) {
                    // Every microbatch count must divide the global
                    // batch (the trainer's contract); skip the rest.
                    if (ub < 1 || ub > global_batch ||
                        global_batch % ub != 0 || !seen.insert(ub).second)
                        continue;
                    StrategyRow row;
                    row.cfg = base;
                    row.cfg.platform = platform;
                    row.cfg.mode = mode;
                    row.cfg.numGpus = stages;
                    row.cfg.batchPerGpu = global_batch / stages;
                    row.cfg.microbatches = ub;
                    row.label = strategyLabel(row.cfg, base);
                    rows.push_back(std::move(row));
                }
            }
        }
    }
    if (rows.empty())
        sim::fatal("advise: no feasible strategy candidates (check "
                   "--stages/--microbatches divide the global batch)");

    AdviseResult result;

    // --- Phase 1: memory-probe every candidate (cheap what-if) -------
    std::vector<StrategyRow> fitting;
    for (StrategyRow &row : rows) {
        const core::TrainReport &r = probe(row.cfg);
        ++result.probes;
        if (r.oom) {
            row.fits = false;
            result.dropped.push_back(row);
            continue;
        }
        row.memGB = peakMemGB(r);
        fitting.push_back(std::move(row));
    }

    // --- Phase 2: one full-sim anchor per family, project the rest ---
    auto fullSim = [&](StrategyRow &row) {
        const core::TrainReport &r = simulateTimingOnly(row.cfg);
        ++result.fullSims;
        row.simulated = true;
        row.epochSeconds = r.epochSeconds;
        row.bubbleFraction = r.bubbleFraction;
        row.memGB = peakMemGB(r);
    };

    std::map<FamilyKey, std::size_t> anchors;
    for (std::size_t i = 0; i < fitting.size(); ++i) {
        StrategyRow &row = fitting[i];
        if (!isStaged(row.cfg.mode)) {
            // Non-staged strategies have no microbatch axis to
            // project across: each is its own anchor.
            fullSim(row);
            continue;
        }
        const FamilyKey key{row.cfg.platform, row.cfg.mode,
                            row.cfg.numGpus};
        auto [it, fresh] = anchors.try_emplace(key, i);
        if (fresh)
            fullSim(row);
    }
    for (StrategyRow &row : fitting) {
        if (row.simulated)
            continue;
        const FamilyKey key{row.cfg.platform, row.cfg.mode,
                            row.cfg.numGpus};
        const StrategyRow &anchor = fitting[anchors.at(key)];
        const int p = row.cfg.numGpus;
        const int m0 = anchor.cfg.microbatches;
        const int m = row.cfg.microbatches;
        row.epochSeconds =
            projectEpoch(anchor.epochSeconds, p, m0, m);
        row.bubbleFraction =
            projectBubble(anchor.bubbleFraction, p, m0, m);
        ++result.projections;
    }

    // --- Phase 3: re-simulate the projected frontier -----------------
    auto rank = [&]() {
        std::stable_sort(fitting.begin(), fitting.end(),
                         [](const StrategyRow &a,
                            const StrategyRow &b) {
                             return a.epochSeconds < b.epochSeconds;
                         });
    };
    rank();
    for (;;) {
        const std::size_t frontier = std::min(
            static_cast<std::size_t>(opts.topK), fitting.size());
        bool resimmed = false;
        for (std::size_t i = 0; i < frontier; ++i) {
            if (!fitting[i].simulated) {
                fullSim(fitting[i]);
                resimmed = true;
            }
        }
        if (!resimmed)
            break;
        rank(); // full sims can reorder; frontier must converge
    }

    result.ranked = std::move(fitting);
    return result;
}

std::string
adviseTable(const AdviseResult &result)
{
    using core::TextTable;
    TextTable table({"rank", "strategy", "bubble", "mem GB",
                     "epoch (s)", "source"});
    int rank = 0;
    for (const StrategyRow &row : result.ranked) {
        table.addRow(
            {std::to_string(++rank), row.label,
             isStaged(row.cfg.mode)
                 ? TextTable::num(row.bubbleFraction * 100, 1) + "%"
                 : "-",
             TextTable::num(row.memGB, 2),
             TextTable::num(row.epochSeconds, 2),
             row.simulated ? "sim" : "projected"});
    }
    for (const StrategyRow &row : result.dropped) {
        table.addRow({"-", row.label, "-", "-", "-", "oom"});
    }
    return table.str();
}

} // namespace dgxsim::analysis
