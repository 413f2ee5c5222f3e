/**
 * @file
 * Cross-module integration invariants: traffic conservation between
 * the trainer and the communication library, steady-state stability,
 * and the FP/BP schedule's kernel accounting.
 */

#include <gtest/gtest.h>

#include "core/fp_bp_schedule.hh"
#include "core/trainer.hh"
#include "dnn/models.hh"

namespace {

using namespace dgxsim;
using namespace dgxsim::core;

TEST(IntegrationTest, P2pTrafficEqualsGradientsPlusWeights)
{
    // At 2 GPUs the P2P schedule moves exactly one gradient copy in
    // and one weight copy out per iteration: 2 x paramBytes.
    TrainConfig cfg;
    cfg.model = "alexnet";
    cfg.numGpus = 2;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::P2P;
    const TrainReport r = Trainer::simulate(cfg);
    const double params =
        static_cast<double>(dnn::buildAlexNet().paramBytes());
    EXPECT_NEAR(r.interGpuBytesPerIter, 2.0 * params, 0.01 * params);
}

TEST(IntegrationTest, NcclRingTrafficMatchesHopCount)
{
    // Ring Reduce and Broadcast each traverse (N-1) hops carrying the
    // full payload, so the per-iteration payload records sum to
    // 2 (N-1) x paramBytes.
    TrainConfig cfg;
    cfg.model = "alexnet";
    cfg.numGpus = 4;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::NCCL;
    const TrainReport r = Trainer::simulate(cfg);
    const double params =
        static_cast<double>(dnn::buildAlexNet().paramBytes());
    EXPECT_NEAR(r.interGpuBytesPerIter, 2.0 * 3.0 * params,
                0.02 * params);
}

TEST(IntegrationTest, SteadyStateIsStableAcrossMeasuredIterations)
{
    TrainConfig cfg;
    cfg.model = "googlenet";
    cfg.numGpus = 4;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::NCCL;
    cfg.measuredIterations = 1;
    const double one = Trainer::simulate(cfg).iterationSeconds;
    cfg.measuredIterations = 4;
    const double four = Trainer::simulate(cfg).iterationSeconds;
    EXPECT_NEAR(one, four, 0.01 * one);
}

TEST(IntegrationTest, DeviceMemoryCategoriesSumToUsed)
{
    cuda::Device dev(0, hw::GpuSpec::voltaV100());
    dev.mem().alloc(cuda::MemCategory::Context, 100);
    dev.mem().alloc(cuda::MemCategory::Weights, 200);
    dev.mem().alloc(cuda::MemCategory::Activations, 300);
    sim::Bytes sum = 0;
    for (int c = 0;
         c < static_cast<int>(cuda::MemCategory::NumCategories); ++c)
        sum += dev.mem().usedBy(static_cast<cuda::MemCategory>(c));
    EXPECT_EQ(sum, dev.mem().used());
}

TEST(FpBpScheduleTest, KernelCountsMatchTheNetwork)
{
    sim::EventQueue queue;
    profiling::Profiler prof;
    cuda::Stream stream(queue, &prof, 0, "s");
    cuda::HostThread worker(queue, &prof, "w");
    TrainConfig cfg;
    cfg.model = "lenet";
    dnn::Network net = dnn::buildLeNet();
    const LayerCostTable costs = computeLayerCosts(net, cfg);

    int markers = 0;
    std::vector<int> marker_order;
    issueFpBp(worker, stream, costs, cfg,
              [&](int weighted_idx) {
                  ++markers;
                  marker_order.push_back(weighted_idx);
              });
    queue.run();

    std::size_t expected = net.layers().size(); // forward kernels
    for (const auto &layer : net.layers())
        expected += layer->backwardKernels();
    EXPECT_EQ(prof.kernels().size(), expected);
    EXPECT_EQ(markers, net.weightedLayers());
    // Markers fire in reverse (BP) order: last weighted layer first.
    ASSERT_EQ(marker_order.size(), 4u);
    EXPECT_EQ(marker_order.front(), 3);
    EXPECT_EQ(marker_order.back(), 0);
}

TEST(FpBpScheduleTest, NoMarkersWithoutCallback)
{
    sim::EventQueue queue;
    profiling::Profiler prof;
    cuda::Stream stream(queue, &prof, 0, "s");
    cuda::HostThread worker(queue, &prof, "w");
    TrainConfig cfg;
    const LayerCostTable costs = computeLayerCosts(dnn::buildLeNet(), cfg);
    issueFpBp(worker, stream, costs, cfg, {});
    queue.run();
    EXPECT_GT(prof.kernels().size(), 0u);
}

TEST(FpBpScheduleTest, ForwardKernelsPrecedeBackward)
{
    sim::EventQueue queue;
    profiling::Profiler prof;
    cuda::Stream stream(queue, &prof, 0, "s");
    cuda::HostThread worker(queue, &prof, "w");
    TrainConfig cfg;
    const LayerCostTable costs = computeLayerCosts(dnn::buildLeNet(), cfg);
    issueFpBp(worker, stream, costs, cfg, {});
    queue.run();
    bool saw_bwd = false;
    for (const auto &k : prof.kernels()) {
        const bool is_bwd =
            k.name.find("_bwd") != std::string::npos;
        if (is_bwd)
            saw_bwd = true;
        if (saw_bwd) {
            EXPECT_NE(k.name.find("_bwd"), std::string::npos)
                << k.name;
        }
    }
    EXPECT_TRUE(saw_bwd);
}

TEST(IntegrationTest, TensorCoresDoNotChangeTraffic)
{
    // Compute mode must not alter communication volume.
    TrainConfig cfg;
    cfg.model = "resnet-50";
    cfg.numGpus = 4;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::NCCL;
    const double fp32 = Trainer::simulate(cfg).interGpuBytesPerIter;
    cfg.useTensorCores = true;
    const double fp16 = Trainer::simulate(cfg).interGpuBytesPerIter;
    EXPECT_NEAR(fp32, fp16, 1.0);
}

} // namespace
