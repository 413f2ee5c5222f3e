#include "campaign/campaign.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <vector>

#include "campaign/thread_pool.hh"
#include "core/layer_costs.hh"
#include "core/trainer_base.hh"
#include "hw/platform.hh"

namespace dgxsim::campaign {

CampaignSpec::CampaignSpec()
{
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = core::cli::axes()[i].gridDefault;
}

std::vector<core::TrainConfig>
CampaignSpec::expand() const
{
    const auto &rows = core::cli::axes();
    // Read every listed value up front, so a bad one fails the grid
    // even where each cell pins its row.
    core::TrainConfig scratch;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (const std::string &value : values[i])
            rows[i].read(scratch, value);
    }
    std::vector<core::TrainConfig> cells = {base};
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const core::cli::AxisRow &row = rows[i];
        const std::vector<std::string> baseValue = {row.spell(base)};
        const std::vector<std::string> pin =
            row.pinValue ? std::vector<std::string>{row.pinValue}
                         : baseValue;
        const std::vector<std::string> &walk =
            values[i].empty() ? baseValue : values[i];
        std::vector<core::TrainConfig> next;
        for (const core::TrainConfig &cell : cells) {
            const bool pinned = row.pinned && row.pinned(cell);
            for (const std::string &value : pinned ? pin : walk) {
                next.push_back(cell);
                row.read(next.back(), value);
            }
        }
        cells = std::move(next);
    }
    // The multi-node rule: non-sync modes contribute no cell at
    // nodes > 1, and a grid left with none fails as its runs would.
    const auto offCluster = [](const core::TrainConfig &c) {
        return c.nodes > 1 && c.mode != core::ParallelismMode::SyncDp;
    };
    if (std::all_of(cells.begin(), cells.end(), offCluster))
        core::checkClusterMode(cells.front().mode, cells.front().nodes);
    std::erase_if(cells, offCluster);
    // GPU counts beyond a platform fail here, not mid-campaign on a
    // worker thread.
    std::map<std::string, int> platformGpus;
    for (const core::TrainConfig &cell : cells) {
        auto [it, fresh] = platformGpus.try_emplace(cell.platform);
        if (fresh)
            it->second = hw::makePlatform(cell.platform).topology.numGpus();
        core::cli::checkGpusFit(cell, it->second);
    }
    return cells;
}

CampaignSpec
campaignSpecFromArgs(const core::cli::Args &args)
{
    CampaignSpec spec;
    spec.base = core::cli::baseConfigFromArgs(args);
    for (std::size_t i = 0; i < spec.values.size(); ++i) {
        spec.values[i] = core::cli::axisValues(
            args, core::cli::axes()[i], spec.values[i]);
    }
    return spec;
}

namespace {

/** The process-wide simulate memo cache and its bookkeeping. */
struct SimCache
{
    std::mutex mutex;
    std::map<core::TrainConfig, core::TrainReport> entries;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

SimCache &
simCache()
{
    static SimCache cache;
    return cache;
}

} // namespace

const core::TrainReport &
cachedSimulate(const core::TrainConfig &cfg)
{
    SimCache &c = simCache();
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        auto it = c.entries.find(cfg);
        if (it != c.entries.end()) {
            ++c.hits;
            return it->second;
        }
        ++c.misses;
    }
    // Simulate outside the lock so independent configurations run
    // concurrently. Two threads racing on the same config compute the
    // same (deterministic) report; the second insert is a no-op.
    core::TrainReport report = core::TrainerBase::simulate(cfg);
    std::lock_guard<std::mutex> lock(c.mutex);
    return c.entries.emplace(cfg, std::move(report)).first->second;
}

void
clearSimulationCache()
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
    c.hits = 0;
    c.misses = 0;
    core::clearLayerCostCache();
}

SimulationCacheStats
simulationCacheStats()
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return SimulationCacheStats{c.entries.size(), c.hits, c.misses};
}

std::vector<RunRecord>
runCampaign(const std::vector<core::TrainConfig> &configs, int jobs,
            const ProgressFn &progress)
{
    std::vector<RunRecord> records(configs.size());
    std::mutex progressMutex;
    std::size_t completed = 0;
    parallelFor(configs.size(), jobs, [&](std::size_t i) {
        // Each index writes only its own slot: record order is the
        // config order, never the completion order.
        records[i] = recordFromReport(cachedSimulate(configs[i]));
        if (progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            progress(++completed, configs.size(), records[i]);
        }
    });
    return records;
}

} // namespace dgxsim::campaign
