#include "core/machine.hh"

#include <algorithm>

#include "sim/auditor.hh"
#include "sim/logging.hh"

namespace dgxsim::core {

namespace {

sim::Bytes
gb(double v)
{
    return static_cast<sim::Bytes>(v * 1e9);
}

} // namespace

Machine::Machine(const TrainConfig &cfg, const hw::Platform &platform)
    : Machine(cfg,
              hw::makeCluster(platform, cfg.nodes, cfg.interconnect))
{
}

Machine::Machine(const TrainConfig &cfg, hw::Topology topo,
                 hw::HostSpec host)
    : cfg_(cfg), profiler_(cfg.timingOnly),
      fabric_(std::make_unique<hw::Fabric>(queue_, std::move(topo),
                                           std::move(host)))
{
    if (cfg_.nodes != 1) {
        sim::fatal("explicit-topology machines are single-node; use "
                   "the platform or cluster constructor for nodes=",
                   cfg_.nodes);
    }
    if (cfg_.numGpus < 1 ||
        cfg_.numGpus > fabric_->topology().numGpus()) {
        sim::fatal("numGpus must be in [1, ",
                   fabric_->topology().numGpus(), "], got ",
                   cfg_.numGpus);
    }
    commonInit();
    gpus_ = fabric_->topology().gpuSet(cfg_.numGpus);
    for (hw::NodeId gpu : gpus_) {
        devices_.push_back(
            std::make_unique<cuda::Device>(gpu, cfg_.gpuSpec));
    }
}

Machine::Machine(const TrainConfig &cfg, const hw::Cluster &cluster)
    : cfg_(cfg), profiler_(cfg.timingOnly),
      fabric_(std::make_unique<hw::Fabric>(queue_, cluster.topology,
                                           cluster.platform.hostSpec))
{
    if (cfg_.nodes != cluster.nodes) {
        sim::fatal("config says ", cfg_.nodes, " nodes but the "
                   "cluster has ", cluster.nodes);
    }
    if (cfg_.numGpus < 1 || cfg_.numGpus > cluster.gpusPerNode) {
        sim::fatal("numGpus must be in [1, ", cluster.gpusPerNode,
                   "], got ", cfg_.numGpus);
    }
    checkClusterMode(cfg_.mode, cfg_.nodes);
    commonInit();
    gpus_ = cluster.gpuSet(cfg_.numGpus);
    for (hw::NodeId gpu : gpus_) {
        devices_.push_back(
            std::make_unique<cuda::Device>(gpu, cfg_.gpuSpec));
    }
}

void
Machine::commonInit()
{
    if (cfg_.batchPerGpu < 1)
        sim::fatal("batchPerGpu must be positive");
    if (cfg_.datasetImages == 0)
        sim::fatal("datasetImages must be positive");

    // What-if ablations: widen (or narrow) every NVLink / IB link
    // before any traffic flows. Guarded so default configs keep the
    // untouched fabric object graph (and byte-identical baselines).
    if (cfg_.nvlinkBwScale != 1.0)
        fabric_->scaleNvlinkBandwidth(cfg_.nvlinkBwScale);
    if (cfg_.ibBwScale != 1.0)
        fabric_->scaleIbBandwidth(cfg_.ibBwScale);
}

Machine::~Machine() = default;

cuda::Stream &
Machine::addStream(std::size_t g, std::string name)
{
    streams_.push_back(std::make_unique<cuda::Stream>(
        queue_, &profiler_, gpus_[g], std::move(name)));
    return *streams_.back();
}

cuda::HostThread &
Machine::addHostThread(std::string name)
{
    threads_.push_back(std::make_unique<cuda::HostThread>(
        queue_, &profiler_, std::move(name)));
    return *threads_.back();
}

std::string
Machine::laneName(std::size_t g, const std::string &base) const
{
    if (cfg_.nodes == 1)
        return base + std::to_string(g);
    return "n" + std::to_string(nodeOf(g)) + "." + base +
           std::to_string(g % static_cast<std::size_t>(cfg_.numGpus));
}

int
Machine::nodeOf(std::size_t g) const
{
    // gpus_ is node-major with cfg_.numGpus ranks per node.
    return static_cast<int>(g / static_cast<std::size_t>(cfg_.numGpus));
}

sim::Tick
Machine::launchOverhead() const
{
    return sim::usToTicks(cfg_.gpuSpec.launchOverheadUs);
}

void
Machine::wireAuditor()
{
    if (!cfg_.audit && !fabric_->auditor())
        return;
    sim::Auditor *auditor = fabric_->enableAudit();
    profiler_.setAuditor(auditor);
    for (auto &dev : devices_)
        dev->mem().setAuditor(auditor);
}

void
Machine::setupDataParallelMemory(const dnn::Network &net)
{
    const MemoryModel &mm = cfg_.memoryModel;
    const sim::Bytes weights = net.paramBytes();
    const sim::Bytes activations = static_cast<sim::Bytes>(
        mm.activationFactor *
        static_cast<double>(net.activationBytes(cfg_.batchPerGpu)));
    int conv_layers = 0;
    for (const auto &layer : net.layers()) {
        if (layer->kind() == dnn::LayerKind::Conv)
            ++conv_layers;
    }
    const sim::Bytes workspace =
        static_cast<sim::Bytes>(
            mm.workspaceFactor *
            static_cast<double>(
                net.maxWorkspaceBytes(cfg_.batchPerGpu))) +
        static_cast<sim::Bytes>(mm.cudnnPoolMBPerConv * 1e6 *
                                conv_layers);
    const sim::Bytes dataset = static_cast<sim::Bytes>(
        mm.datasetBuffers *
        static_cast<double>(cfg_.batchPerGpu) *
        static_cast<double>(net.inputShape().bytes()));

    for (std::size_t g = 0; g < devices_.size(); ++g) {
        cuda::MemoryTracker &mem = devices_[g]->mem();
        // Pre-training: context plus the broadcast model.
        mem.alloc(cuda::MemCategory::Context, gb(mm.contextGB));
        mem.alloc(cuda::MemCategory::Weights, weights);
        // Training-time state.
        mem.alloc(cuda::MemCategory::Gradients, weights);
        mem.alloc(cuda::MemCategory::Activations, activations);
        mem.alloc(cuda::MemCategory::Workspace, workspace);
        mem.alloc(cuda::MemCategory::Dataset, dataset);
        // Error-feedback compressors accumulate what they did not
        // send: one fp32 residual per parameter, device-resident on
        // every worker. Ratio-only sparsifiers without feedback
        // (randomk) keep no such state.
        const comm::Compressor comp = cfg_.commConfig.compression;
        if (cfg_.totalGpus() > 1 &&
            (comp == comm::Compressor::Dgc ||
             comp == comm::Compressor::EfSignSgd ||
             comp == comm::Compressor::OneBit)) {
            mem.alloc(cuda::MemCategory::CommBuffers, weights);
        }
        // Node roots keep aggregation + master-weight copies; on a
        // cluster every node's rank-0 GPU is such a root (it also
        // terminates the inter-node phase). Reduces to "g == 0 &&
        // numGpus > 1" on a single node.
        if (g % static_cast<std::size_t>(cfg_.numGpus) == 0 &&
            cfg_.totalGpus() > 1) {
            mem.alloc(cuda::MemCategory::CommBuffers,
                      static_cast<sim::Bytes>(
                          mm.rootCommFactor *
                          static_cast<double>(weights)));
        }
    }
}

void
Machine::setupModelParallelMemory(
    const dnn::Network &net,
    const std::vector<std::pair<std::size_t, std::size_t>> &stages,
    int microbatch_size, const std::vector<int> &live_microbatches,
    int staged_microbatches)
{
    if (live_microbatches.size() != stages.size())
        sim::fatal("live-microbatch vector has ",
                   live_microbatches.size(), " entries for ",
                   stages.size(), " stages");
    const MemoryModel &mm = cfg_.memoryModel;
    for (std::size_t s = 0; s < stages.size(); ++s) {
        sim::Bytes weights = 0;
        sim::Bytes activations_per_ub = 0;
        sim::Bytes max_workspace = 0;
        int conv_layers = 0;
        for (std::size_t l = stages[s].first; l <= stages[s].second;
             ++l) {
            const dnn::Layer &layer = *net.layers()[l];
            weights += layer.paramBytes();
            activations_per_ub +=
                layer.outputShape().bytes() *
                static_cast<sim::Bytes>(microbatch_size);
            max_workspace = std::max(
                max_workspace, layer.workspaceBytes(microbatch_size));
            if (layer.kind() == dnn::LayerKind::Conv)
                ++conv_layers;
        }
        // The schedule reports how many microbatch activations this
        // stage holds live at once: every one of them for gpipe
        // fill-drain, min(m, stages - s) for 1F1B.
        const sim::Bytes activations = static_cast<sim::Bytes>(
            mm.activationFactor *
            static_cast<double>(activations_per_ub) *
            live_microbatches[s]);
        const sim::Bytes workspace =
            static_cast<sim::Bytes>(
                mm.workspaceFactor *
                static_cast<double>(max_workspace)) +
            static_cast<sim::Bytes>(mm.cudnnPoolMBPerConv * 1e6 *
                                    conv_layers);

        cuda::MemoryTracker &mem = devices_[s]->mem();
        mem.alloc(cuda::MemCategory::Context, gb(mm.contextGB));
        mem.alloc(cuda::MemCategory::Weights, weights);
        mem.alloc(cuda::MemCategory::Gradients, weights);
        mem.alloc(cuda::MemCategory::Activations, activations);
        mem.alloc(cuda::MemCategory::Workspace, workspace);
        if (s == 0) {
            mem.alloc(cuda::MemCategory::Dataset,
                      static_cast<sim::Bytes>(
                          mm.datasetBuffers *
                          static_cast<double>(microbatch_size) *
                          static_cast<double>(staged_microbatches) *
                          static_cast<double>(
                              net.inputShape().bytes())));
        }
    }
}

void
Machine::fillMemoryReport(TrainReport &report) const
{
    report.gpu0.preTraining =
        devices_[0]->mem().usedBy(cuda::MemCategory::Context) +
        devices_[0]->mem().usedBy(cuda::MemCategory::Weights);
    report.gpu0.training = devices_[0]->mem().used();
    const auto &worker_dev = devices_.size() > 1 ? devices_[1]
                                                 : devices_[0];
    report.gpux.preTraining = report.gpu0.preTraining;
    report.gpux.training = worker_dev->mem().used();
}

void
Machine::finishRun(TrainReport &report,
                   const std::function<void(sim::Auditor &)> &extra)
{
    if (sim::Auditor *auditor = fabric_->auditor()) {
        // End-of-run quiescence: nothing pending, nothing in flight.
        auditor->checkQuiescent(queue_, fabric_->flows());
        if (extra)
            extra(*auditor);
        for (const auto &stream : streams_) {
            auditor->expect(stream->drained(), queue_.now(), "stream ",
                            stream->name(),
                            " not drained after the queue drained");
        }
        report.audited = true;
        report.auditChecks = auditor->checksPerformed();
        report.auditViolations = auditor->violationCount();
    }
    if (!cfg_.timingOnly)
        report.digest = digest();
}

std::uint64_t
Machine::digest() const
{
    // Fold the record stream with the final simulation state: equal
    // digests across runs means equal event histories, which is the
    // determinism contract (core/determinism.hh).
    std::uint64_t d = profiler_.digest();
    auto fold = [&d](std::uint64_t v) {
        d ^= v;
        d *= 0x100000001b3ull; // FNV prime
    };
    fold(static_cast<std::uint64_t>(queue_.now()));
    fold(queue_.executedEvents());
    for (std::size_t l = 0; l < fabric_->topology().links().size();
         ++l) {
        fold(static_cast<std::uint64_t>(fabric_->linkBytesMoved(l)));
    }
    return d;
}

} // namespace dgxsim::core
