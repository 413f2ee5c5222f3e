#include "core/layer_costs.hh"

#include <mutex>
#include <utility>

#include "cuda/kernel_model.hh"
#include "dnn/layer.hh"

namespace dgxsim::core {

LayerCostTable
computeLayerCosts(const dnn::Network &net, const TrainConfig &cfg)
{
    const hw::GpuSpec &spec = cfg.gpuSpec;
    const int batch = cfg.batchPerGpu;

    LayerCostTable table;
    table.layers.reserve(net.layers().size());
    table.weightedLayers = net.weightedLayers();
    for (const auto &layer_ptr : net.layers()) {
        const dnn::Layer &layer = *layer_ptr;
        LayerCost cost;
        cost.fwdDuration = cuda::kernelDuration(
            spec,
            cuda::KernelCost{layer.forwardFlops(batch),
                             layer.forwardBytes(batch),
                             layer.tensorEligible() &&
                                 cfg.useTensorCores,
                             layer.efficiencyScale()});
        cost.bwdKernels = layer.backwardKernels();
        cost.bwdDuration = cuda::kernelDuration(
            spec,
            cuda::KernelCost{layer.backwardFlops(batch) /
                                 cost.bwdKernels,
                             layer.backwardBytes(batch) /
                                 cost.bwdKernels,
                             layer.tensorEligible() &&
                                 cfg.useTensorCores,
                             layer.efficiencyScale()});
        cost.weighted = layer.paramCount() > 0;
        const char *kind = dnn::layerKindName(layer.kind());
        cost.fwdName = profiling::Name(std::string(kind) + "_fwd");
        cost.bwdName = profiling::Name(std::string(kind) + "_bwd");
        table.layers.push_back(std::move(cost));
    }
    return table;
}

namespace {

/** Everything kernelDuration and the labels depend on. */
struct CacheKey
{
    std::string model;
    int batch;
    bool tensorCores;
    hw::GpuSpec spec;

    bool
    operator==(const CacheKey &other) const
    {
        return batch == other.batch &&
               tensorCores == other.tensorCores &&
               model == other.model && spec == other.spec;
    }
};

struct CostCache
{
    std::mutex mutex;
    /** Linear store: a process sees a handful of distinct keys. */
    std::vector<std::pair<CacheKey, std::shared_ptr<const LayerCostTable>>>
        entries;
};

CostCache &
costCache()
{
    static CostCache cache;
    return cache;
}

} // namespace

std::shared_ptr<const LayerCostTable>
layerCostsFor(const dnn::Network &net, const TrainConfig &cfg,
              bool cacheable)
{
    if (!cacheable) {
        return std::make_shared<const LayerCostTable>(
            computeLayerCosts(net, cfg));
    }
    CacheKey key{cfg.model, cfg.batchPerGpu, cfg.useTensorCores,
                 cfg.gpuSpec};
    CostCache &cache = costCache();
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        for (const auto &[k, table] : cache.entries) {
            if (k == key)
                return table;
        }
    }
    // Compute outside the lock; a racing thread derives the same
    // (deterministic) table and the loser's insert is redundant but
    // harmless — both pointers stay valid for their holders.
    auto table = std::make_shared<const LayerCostTable>(
        computeLayerCosts(net, cfg));
    std::lock_guard<std::mutex> lock(cache.mutex);
    for (const auto &[k, existing] : cache.entries) {
        if (k == key)
            return existing;
    }
    cache.entries.emplace_back(std::move(key), table);
    return table;
}

std::size_t
layerCostCacheSize()
{
    CostCache &cache = costCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return cache.entries.size();
}

void
clearLayerCostCache()
{
    CostCache &cache = costCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.entries.clear();
}

} // namespace dgxsim::core
