#include "campaign/campaign.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "campaign/thread_pool.hh"
#include "comm/factory.hh"
#include "core/layer_costs.hh"
#include "core/trainer_base.hh"
#include "hw/platform.hh"
#include "sim/logging.hh"

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

std::string
configKey(const core::TrainConfig &cfg)
{
    // Every field that can steer the simulation from the CLI or a
    // campaign spec participates; two configs with equal keys must
    // produce equal reports. %.17g keeps doubles exact.
    const auto format = [&cfg](char *out, std::size_t size) {
        return std::snprintf(
            out, size,
            "%s|plat:%s|nd%d|ic:%s|na%d|g%d|b%d|m%d|pm%d|ub%d|ai%d"
            "|i%" PRIu64
            "|it%d|ov%d|tc%d|ar%d|fu%.17g|au%d|disp%.17g|setup%.17g"
            "|gpu:%s|rings%d|chunk%" PRIu64 "|eff%.17g|hop%.17g"
            "|nfix%.17g|nset%.17g|mcpy%.17g|mq%d"
            "|sch%d|pb%" PRIu64 "|cb%" PRIu64 "|zc%d|zr%.17g"
            "|mm:%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
            "|wi:%.17g,%.17g,%.17g,%.17g%s",
            cfg.model.c_str(), cfg.platform.c_str(), cfg.nodes,
            cfg.interconnect.c_str(),
            static_cast<int>(cfg.netAlgo), cfg.numGpus,
            cfg.batchPerGpu,
            static_cast<int>(cfg.method), static_cast<int>(cfg.mode),
            cfg.microbatches, cfg.asyncItersPerWorker,
            cfg.datasetImages,
            cfg.measuredIterations, cfg.overlapBpWu ? 1 : 0,
            cfg.useTensorCores ? 1 : 0, cfg.useAllReduce ? 1 : 0,
            cfg.bucketFusionMB, cfg.audit ? 1 : 0,
            cfg.engineDispatchUs,
            cfg.setupOnceSeconds, cfg.gpuSpec.name.c_str(),
            cfg.commConfig.ncclRings,
            static_cast<std::uint64_t>(cfg.commConfig.ringChunkBytes),
            cfg.commConfig.ncclLinkEfficiency,
            cfg.commConfig.ringHopLatencyUs,
            cfg.commConfig.ncclIterFixedUs, cfg.commConfig.ncclSetupUs,
            cfg.commConfig.memcpyIssueUs, cfg.commConfig.maxChunks,
            static_cast<int>(cfg.commConfig.scheduler),
            static_cast<std::uint64_t>(cfg.commConfig.partitionBytes),
            static_cast<std::uint64_t>(cfg.commConfig.creditBytes),
            static_cast<int>(cfg.commConfig.compression),
            cfg.commConfig.compressRatio,
            cfg.memoryModel.contextGB,
            cfg.memoryModel.activationFactor,
            cfg.memoryModel.workspaceFactor,
            cfg.memoryModel.cudnnPoolMBPerConv,
            cfg.memoryModel.rootCommFactor,
            cfg.memoryModel.datasetBuffers,
            // What-if ablation knobs (analysis::WhatIf ground truth).
            cfg.gpuSpec.speedupFactor, cfg.nvlinkBwScale,
            cfg.ibBwScale, cfg.syncEntryUs,
            // A timing-only run has no digest, so it never shares an
            // entry with a full one; full keys carry no term for it.
            cfg.timingOnly ? "|timing" : "");
    };
    char buf[768];
    const int n = format(buf, sizeof(buf));
    if (n < 0)
        sim::fatal("configKey: snprintf encoding failure");
    if (static_cast<std::size_t>(n) < sizeof(buf))
        return std::string(buf, static_cast<std::size_t>(n));
    // A long model/platform/GPU name overflowed the stack buffer.
    // Retry with the exact length: a silently truncated key would
    // make distinct configurations collide in the simulate cache and
    // return the wrong cached report.
    std::vector<char> big(static_cast<std::size_t>(n) + 1);
    const int m = format(big.data(), big.size());
    if (m != n)
        sim::fatal("configKey: unstable snprintf length ", m, " vs ",
                   n);
    return std::string(big.data(), static_cast<std::size_t>(n));
}

namespace {

/** The process-wide simulate memo cache and its bookkeeping. */
struct SimCache
{
    std::mutex mutex;
    std::map<std::string, core::TrainReport> entries;
    /** Keys in insertion order; trim evicts from the front (FIFO). */
    std::deque<std::string> order;
    std::size_t limit = 0; ///< 0 = unbounded
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
    const std::string key = configKey(cfg);
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        auto it = c.entries.find(key);
        if (it != c.entries.end()) {
            ++c.hits;
            return it->second;
        }
        ++c.misses;
    }
    // Simulate outside the lock so independent configurations run
    // concurrently. Two threads racing on the same key compute the
    // same (deterministic) report; the second insert is a no-op.
    core::TrainReport report = core::TrainerBase::simulate(cfg);
    std::lock_guard<std::mutex> lock(c.mutex);
    auto [it, inserted] = c.entries.emplace(key, std::move(report));
    if (inserted)
        c.order.push_back(key);
    return it->second;
}

void
clearSimulationCache()
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
    c.order.clear();
    c.hits = 0;
    c.misses = 0;
    core::clearLayerCostCache();
}

void
setSimulationCacheLimit(std::size_t max_entries)
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.limit = max_entries;
}

void
trimSimulationCache()
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    if (c.limit == 0)
        return;
    while (c.entries.size() > c.limit && !c.order.empty()) {
        c.entries.erase(c.order.front());
        c.order.pop_front();
    }
}

SimulationCacheStats
simulationCacheStats()
{
    SimCache &c = simCache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return SimulationCacheStats{c.entries.size(), c.limit, c.hits,
                                c.misses};
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
    // Between grids is the natural eviction point: every record has
    // been copied out, and with the default unbounded limit this is a
    // no-op, so single-grid behavior is unchanged.
    trimSimulationCache();
    return records;
}

} // namespace dgxsim::campaign
