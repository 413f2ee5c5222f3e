/**
 * @file
 * Strategy search for `dgxprof advise` (the Proteus-style query).
 *
 * Given one workload (model, global batch, platform), walk the
 * parallelization-strategy space — mode x stage count x microbatch
 * count x (optionally platforms) — and rank the candidates by
 * simulated time-per-epoch. The search is what-if-first: every
 * candidate is memory-probed (cheap, no events), each strategy
 * family gets exactly one fully-simulated anchor, and the remaining
 * cells are projected from their family anchor through the pipeline
 * closed form iter(m) ~ (m + p - 1) / m. Only the projected frontier
 * (top-K) is re-simulated for real, so the ranking's winner is
 * always backed by a full simulation, not a projection. Every
 * simulation the search runs is timing-only
 * (core::TrainConfig::timingOnly): it reads epoch time, bubble and
 * memory, never records or digests.
 */

#ifndef DGXSIM_ANALYSIS_ADVISE_HH
#define DGXSIM_ANALYSIS_ADVISE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/parallelism.hh"
#include "core/train_config.hh"

namespace dgxsim::analysis {

/** The strategy space adviseStrategies() walks. */
struct AdviseOptions
{
    /** Modes to consider; empty = sync_dp, model_parallel, pipeline. */
    std::vector<core::ParallelismMode> modes;
    /**
     * Pipeline depths (GPU counts, each >= 2) for the staged modes;
     * empty = the base config's GPU count. sync_dp always runs at the
     * base GPU count — epochs stay work-comparable because fewer GPUs
     * simply run more iterations over the same dataset.
     */
    std::vector<int> stageCounts;
    /**
     * Microbatch counts for the staged modes; empty derives
     * {p, 2p, 4p} per stage count p, filtered to divisors of the
     * global batch.
     */
    std::vector<int> microbatchCounts;
    /** Extra platforms to consider; empty = the base platform. */
    std::vector<std::string> platforms;
    /** Projected-frontier size re-simulated for real (>= 1). */
    int topK = 3;
};

/** One ranked strategy candidate. */
struct StrategyRow
{
    /** The candidate as a full run: re-simulating it yields records
     * and a digest (the search itself runs timing-only copies). */
    core::TrainConfig cfg;
    /** Human label, e.g. "pipeline s4 ub16" or "sync_dp/nccl". */
    std::string label;
    /** False when the memory probe reported OOM (row unranked). */
    bool fits = true;
    /** True when epochSeconds comes from a full simulation. */
    bool simulated = false;
    double epochSeconds = 0;
    double bubbleFraction = 0;
    /** Peak per-GPU training memory (GB, worst GPU). */
    double memGB = 0;
};

/** The search outcome: ranked candidates plus search-cost counters. */
struct AdviseResult
{
    /** Fitting candidates, fastest epoch first. ranked.front() — the
     * winner — is always fully simulated. */
    std::vector<StrategyRow> ranked;
    /** Candidates dropped by the memory probe. */
    std::vector<StrategyRow> dropped;
    std::size_t probes = 0;
    std::size_t projections = 0;
    std::size_t fullSims = 0;
};

/**
 * Walk the strategy space around @p base and rank it. @p base fixes
 * the workload: model, per-GPU batch, GPU count, platform, dataset.
 * Fatal when opts.topK is below 1 or an opts.stageCounts value is
 * below 2.
 */
AdviseResult adviseStrategies(const core::TrainConfig &base,
                              const AdviseOptions &opts = {});

/** Render the ranked table (bubble, memory, epoch, source). */
std::string adviseTable(const AdviseResult &result);

} // namespace dgxsim::analysis

#endif // DGXSIM_ANALYSIS_ADVISE_HH
