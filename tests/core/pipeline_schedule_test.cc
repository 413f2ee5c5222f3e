/**
 * @file
 * Stage-schedule tests: program shapes, the 1F1B closed form on a
 * uniform synthetic pipeline (tick-exact), the schedule-aware memory
 * planner, and digest parity of the gpipe path with the pre-refactor
 * model_parallel trainer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/stage_schedule.hh"
#include "core/trainer_base.hh"
#include "cuda/kernel_model.hh"
#include "hw/topology.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace {

using namespace dgxsim;
using core::ParallelismMode;
using core::peakLiveMicrobatches;
using core::StageSlot;
using core::TrainConfig;

// --- schedule programs ------------------------------------------------

/** A program must hold exactly one Fwd and one Bwd per microbatch,
 * each Bwd after its own Fwd. */
void
expectWellFormed(const std::vector<StageSlot> &program, int m)
{
    ASSERT_EQ(program.size(), static_cast<std::size_t>(2 * m));
    std::vector<int> fwd_at(static_cast<std::size_t>(m), -1);
    std::vector<int> bwd_at(static_cast<std::size_t>(m), -1);
    for (std::size_t i = 0; i < program.size(); ++i) {
        const StageSlot &slot = program[i];
        ASSERT_GE(slot.microbatch, 0);
        ASSERT_LT(slot.microbatch, m);
        auto &at = slot.op == StageSlot::Op::Fwd ? fwd_at : bwd_at;
        EXPECT_EQ(at[static_cast<std::size_t>(slot.microbatch)], -1)
            << "duplicate slot";
        at[static_cast<std::size_t>(slot.microbatch)] =
            static_cast<int>(i);
    }
    for (int k = 0; k < m; ++k) {
        EXPECT_LT(fwd_at[static_cast<std::size_t>(k)],
                  bwd_at[static_cast<std::size_t>(k)])
            << "Bwd(" << k << ") before its Fwd";
    }
}

TEST(StageScheduleTest, GpipeIsFillDrain)
{
    // Fill-drain keeps every microbatch live on every stage.
    const int m = 6;
    for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(peakLiveMicrobatches(ParallelismMode::ModelParallel,
                                       s, 3, m),
                  m);
    }
}

TEST(StageScheduleTest, OneFOneBWarmupSteadyCooldown)
{
    const std::size_t p = 4;
    const int m = 8;
    for (std::size_t s = 0; s < p; ++s) {
        const auto program = core::oneFOneBProgram(s, p, m);
        expectWellFormed(program, m);
        const int w = std::min(m, static_cast<int>(p - s));
        EXPECT_EQ(peakLiveMicrobatches(ParallelismMode::Pipeline, s, p, m),
                  w);
        // Warmup: w forwards in microbatch order.
        for (int k = 0; k < w; ++k) {
            EXPECT_EQ(program[static_cast<std::size_t>(k)].op,
                      StageSlot::Op::Fwd);
            EXPECT_EQ(program[static_cast<std::size_t>(k)].microbatch,
                      k);
        }
        // Steady state: Bwd(k - w) then Fwd(k).
        std::size_t i = static_cast<std::size_t>(w);
        for (int k = w; k < m; ++k) {
            EXPECT_EQ(program[i].op, StageSlot::Op::Bwd);
            EXPECT_EQ(program[i].microbatch, k - w);
            ++i;
            EXPECT_EQ(program[i].op, StageSlot::Op::Fwd);
            EXPECT_EQ(program[i].microbatch, k);
            ++i;
        }
        // Cooldown: the trailing w backwards.
        for (int k = m - w; k < m; ++k) {
            EXPECT_EQ(program[i].op, StageSlot::Op::Bwd);
            EXPECT_EQ(program[i].microbatch, k);
            ++i;
        }
    }
}

TEST(StageScheduleTest, DeepPipelineShortensOneFOneBPeak)
{
    const ParallelismMode pipe = ParallelismMode::Pipeline;
    // m > p: warmup saturates at pipeline depth; the last stage
    // holds exactly one live microbatch.
    EXPECT_EQ(peakLiveMicrobatches(pipe, 0, 8, 32), 8);
    EXPECT_EQ(peakLiveMicrobatches(pipe, 7, 8, 32), 1);
    // m < p: a stage can never hold more than m.
    EXPECT_EQ(peakLiveMicrobatches(pipe, 0, 8, 4), 4);
}

// --- closed form on a uniform pipeline --------------------------------

/** A layer with fixed compute and no data: zero parameters, zero
 * activations, zero HBM traffic, zero-byte boundary tensors. */
class UniformLayer final : public dnn::Layer
{
  public:
    explicit UniformLayer(const std::string &name)
        : Layer(dnn::LayerKind::Conv, name, dnn::TensorShape{},
                dnn::TensorShape{})
    {
    }
    double forwardFlops(int) const override { return 4e9; }
    double forwardBytes(int) const override { return 0; }
};

dnn::Network
uniformNetwork(int stages)
{
    dnn::Network net("uniform", dnn::TensorShape{});
    for (int i = 0; i < stages; ++i) {
        net.add(std::make_unique<UniformLayer>(
            "u" + std::to_string(i)));
    }
    return net;
}

/** Full NVLink mesh with zero link latency: boundary copies of zero
 * bytes complete in the same tick they start. */
hw::Topology
zeroLatencyMesh(int gpus)
{
    hw::Topology topo;
    std::vector<hw::NodeId> ids;
    for (int g = 0; g < gpus; ++g) {
        ids.push_back(topo.addNode(hw::NodeKind::Gpu,
                                   "GPU" + std::to_string(g)));
    }
    for (int a = 0; a < gpus; ++a) {
        for (int b = a + 1; b < gpus; ++b) {
            topo.addLink(hw::Link{ids[static_cast<std::size_t>(a)],
                                  ids[static_cast<std::size_t>(b)],
                                  hw::LinkType::NVLink, 1, 25.0,
                                  0.0});
        }
    }
    return topo;
}

TrainConfig
uniformConfig(int gpus, int microbatches, ParallelismMode mode)
{
    TrainConfig cfg;
    cfg.model = "uniform";
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.mode = mode;
    cfg.microbatches = microbatches;
    cfg.audit = true;
    // Uniform stages need uniform kernels: no fixed per-launch tail.
    cfg.gpuSpec.kernelTailUs = 0;
    return cfg;
}

/** One stage's fwd (== bwd) kernel ticks under uniformConfig. */
sim::Tick
uniformStageTicks(const TrainConfig &cfg)
{
    const UniformLayer layer("probe");
    const int ub_size = cfg.globalBatch() / cfg.microbatches;
    return cuda::kernelDuration(
        cfg.gpuSpec,
        cuda::KernelCost{layer.forwardFlops(ub_size), 0, false, 1.0});
}

TEST(PipelineClosedFormTest, OneFOneBMatchesBubbleTheory)
{
    const int p = 4;
    const int m = 8;
    const TrainConfig cfg =
        uniformConfig(p, m, ParallelismMode::Pipeline);
    const core::TrainReport r =
        core::TrainerBase::make(cfg, uniformNetwork(p),
                                zeroLatencyMesh(p))
            ->run();
    ASSERT_FALSE(r.oom);

    // f == b (no parameters, so backward FLOPs default to forward);
    // zero-byte boundaries and zero link latency make every transfer
    // instantaneous. Uniform 1F1B theory: makespan is exactly
    // (m + p - 1) * (f + b) ticks and the bubble fraction is
    // (p - 1) / (m + p - 1).
    const sim::Tick f = uniformStageTicks(cfg);
    ASSERT_GT(f, 0);
    const sim::Tick expected =
        static_cast<sim::Tick>(m + p - 1) * (2 * f);
    EXPECT_DOUBLE_EQ(r.iterationSeconds, sim::ticksToSec(expected));
    EXPECT_NEAR(r.bubbleFraction,
                static_cast<double>(p - 1) / (m + p - 1), 1e-12);
    EXPECT_TRUE(r.audited);
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(PipelineClosedFormTest, GpipeMatchesTheSameClosedForm)
{
    // With f == b and uniform stages, gpipe's fill-drain makespan is
    // also (m + p - 1)(f + b): 1F1B's win here is memory, not time.
    const int p = 4;
    const int m = 8;
    const TrainConfig cfg =
        uniformConfig(p, m, ParallelismMode::ModelParallel);
    const core::TrainReport r =
        core::TrainerBase::make(cfg, uniformNetwork(p),
                                zeroLatencyMesh(p))
            ->run();
    ASSERT_FALSE(r.oom);
    const sim::Tick f = uniformStageTicks(cfg);
    const sim::Tick expected =
        static_cast<sim::Tick>(m + p - 1) * (2 * f);
    EXPECT_DOUBLE_EQ(r.iterationSeconds, sim::ticksToSec(expected));
    EXPECT_NEAR(r.bubbleFraction,
                static_cast<double>(p - 1) / (m + p - 1), 1e-12);
}

// --- schedule-aware memory planner ------------------------------------

TEST(PipelineMemoryTest, ReportsPeakLiveMicrobatchesPerStage)
{
    TrainConfig cfg;
    cfg.model = "resnet-50";
    cfg.numGpus = 4;
    cfg.batchPerGpu = 16;
    cfg.microbatches = 8;

    cfg.mode = ParallelismMode::Pipeline;
    const auto pipe = core::TrainerBase::simulate(cfg);
    ASSERT_FALSE(pipe.oom);
    EXPECT_EQ(pipe.stagePeakLiveMicrobatches,
              (std::vector<int>{4, 3, 2, 1}));

    cfg.mode = ParallelismMode::ModelParallel;
    const auto gpipe = core::TrainerBase::simulate(cfg);
    ASSERT_FALSE(gpipe.oom);
    EXPECT_EQ(gpipe.stagePeakLiveMicrobatches,
              (std::vector<int>{8, 8, 8, 8}));

    // The planner charge is visible as real bytes: every 1F1B stage
    // holds at most `stages` live microbatches instead of all 8.
    EXPECT_LT(pipe.gpu0.training, gpipe.gpu0.training);
}

TEST(PipelineMemoryTest, OneFOneBRaisesMaxBatch)
{
    // Deep microbatching under gpipe keeps every activation live and
    // OOMs first; 1F1B caps the live set at the stage count, so the
    // same model fits a strictly larger per-GPU batch.
    TrainConfig cfg;
    cfg.model = "bert-base";
    cfg.numGpus = 8;
    cfg.microbatches = 32;

    cfg.mode = ParallelismMode::ModelParallel;
    const auto gpipe_best = core::TrainerBase::maxBatchPerGpu(
        cfg, {4, 8, 16, 32, 64, 128});
    cfg.mode = ParallelismMode::Pipeline;
    const auto pipe_best = core::TrainerBase::maxBatchPerGpu(
        cfg, {4, 8, 16, 32, 64, 128});

    ASSERT_TRUE(pipe_best.has_value());
    ASSERT_TRUE(gpipe_best.has_value());
    EXPECT_GT(*pipe_best, *gpipe_best);
}

// --- digest parity with the pre-refactor trainer ----------------------

/**
 * The gpipe path replays the legacy model_parallel event stream
 * bit-for-bit. These digests were recorded on the pre-refactor
 * trainer; any drift means the refactor changed the simulated
 * history, not just the code structure.
 */
TEST(PipelineDigestParityTest, GpipeReplaysPreRefactorDigests)
{
    const struct
    {
        const char *model;
        int gpus;
        int batch;
        int microbatches;
        std::uint64_t digest;
    } pins[] = {
        {"lenet", 4, 16, 0, 0xd4bb6dfd0b100d35ull},
        {"alexnet", 8, 32, 0, 0x16e69bc2a7b968a9ull},
        {"resnet-50", 4, 16, 8, 0x20f12e1f18818ff0ull},
    };
    for (const auto &pin : pins) {
        TrainConfig cfg;
        cfg.model = pin.model;
        cfg.numGpus = pin.gpus;
        cfg.batchPerGpu = pin.batch;
        cfg.microbatches = pin.microbatches;
        cfg.mode = ParallelismMode::ModelParallel;
        const auto r = core::TrainerBase::simulate(cfg);
        ASSERT_FALSE(r.oom) << pin.model;
        EXPECT_EQ(r.digest, pin.digest) << pin.model;
    }
}

TEST(PipelineDigestParityTest, PipelineModeIsDeterministic)
{
    TrainConfig cfg;
    cfg.model = "lenet";
    cfg.numGpus = 4;
    cfg.batchPerGpu = 16;
    cfg.mode = ParallelismMode::Pipeline;
    const auto a = core::TrainerBase::simulate(cfg);
    const auto b = core::TrainerBase::simulate(cfg);
    ASSERT_FALSE(a.oom);
    EXPECT_EQ(a.digest, b.digest);
    // 1F1B produces a different event history than gpipe.
    cfg.mode = ParallelismMode::ModelParallel;
    const auto g = core::TrainerBase::simulate(cfg);
    EXPECT_NE(a.digest, g.digest);
}

} // namespace
