/**
 * @file
 * The campaign runner: many independent training simulations,
 * executed on a host thread pool, with structured results.
 *
 * The paper's contribution is a measurement grid (5 networks x
 * {1,2,4,8} GPUs x {P2P, NCCL}); a campaign is exactly such a grid.
 * Each simulation is a pure single-threaded function of its
 * TrainConfig (the determinism contract of core/determinism.hh), so
 * fanning configurations out across threads cannot change any
 * result — only the wall-clock time to produce them. Results come
 * back in grid order regardless of --jobs, which makes the JSON/CSV
 * output byte-identical at any parallelism and lets a golden
 * baseline be a plain committed file.
 *
 * cachedSimulate() memoizes reports process-wide (thread-safe), so
 * the sweep/check commands and the benchmark harnesses never pay for
 * the same configuration twice.
 */

#ifndef DGXSIM_CAMPAIGN_CAMPAIGN_HH
#define DGXSIM_CAMPAIGN_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/record.hh"
#include "core/cli.hh"
#include "core/train_config.hh"

namespace dgxsim::campaign {

/**
 * A grid of training configurations: a base config plus one value
 * list per run axis (core::cli::axes()), spelled as on the command
 * line; an empty list means the base config's value. The defaults are
 * the rows' grid defaults: the paper's grid of base.model.
 */
struct CampaignSpec
{
    core::TrainConfig base;
    std::array<std::vector<std::string>, core::cli::kAxisCount> values;

    CampaignSpec();

    /** @return the value list of @p axis. */
    std::vector<std::string> &
    operator[](core::cli::Axis axis)
    {
        return values[static_cast<std::size_t>(axis)];
    }

    /**
     * @return the grid expanded to configurations, in grid order
     * (platform outermost, compression innermost). One walk over the
     * axis rows: a cell takes each value of a row's list, or the one
     * value of a row it pins. Non-sync modes contribute no cell at
     * nodes > 1. Fatal when a row rejects a listed value, a GPU count
     * exceeds its platform, or no cell is left.
     */
    std::vector<core::TrainConfig> expand() const;
};

/** @return the grid the axis options of @p args list, over
 * baseConfigFromArgs(@p args); an absent option keeps its row's grid
 * default. */
CampaignSpec campaignSpecFromArgs(const core::cli::Args &args);

/**
 * Simulate @p cfg through a process-wide thread-safe memo cache keyed
 * on the TrainConfig itself (its member-wise order), so configs that
 * differ in any field never share a report. Repeated calls with an
 * equal configuration return the stored report without re-running.
 * The reference stays valid until the next clearSimulationCache().
 */
const core::TrainReport &cachedSimulate(const core::TrainConfig &cfg);

/** Observable state of the simulate memo cache. */
struct SimulationCacheStats
{
    std::size_t entries = 0; ///< reports currently held
    std::uint64_t hits = 0;  ///< lookups served from the cache
    std::uint64_t misses = 0; ///< simulations performed
};

/** @return a snapshot of the simulate cache counters (thread-safe). */
SimulationCacheStats simulationCacheStats();

/**
 * Drop every cached report (and the per-layer cost tables) and reset
 * the hit/miss counters. References previously returned by
 * cachedSimulate() are invalidated.
 */
void clearSimulationCache();

/** Progress callback: (completed so far, total, finished record).
 * Called from worker threads under a lock, in completion order. */
using ProgressFn =
    std::function<void(std::size_t, std::size_t, const RunRecord &)>;

/**
 * Run every configuration in @p configs on up to @p jobs threads and
 * return one RunRecord per configuration, in input order (the order
 * never depends on jobs or scheduling). OOM configurations produce a
 * record with oom=true rather than failing the campaign.
 */
std::vector<RunRecord>
runCampaign(const std::vector<core::TrainConfig> &configs, int jobs,
            const ProgressFn &progress = nullptr);

} // namespace dgxsim::campaign

#endif // DGXSIM_CAMPAIGN_CAMPAIGN_HH
