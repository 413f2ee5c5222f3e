/**
 * @file
 * Pipelined model-parallel training simulator (extension of paper
 * Sec. I).
 *
 * The paper chooses data parallelism because convolution-dominated
 * networks replicate cheaply, noting that model parallelism suits
 * networks "with more fully-connected layers than convolution
 * layers". This trainer quantifies that folklore on the same DGX-1
 * model: the network's layers are partitioned into contiguous stages
 * (balanced by forward FLOPs), each stage lives on one GPU, boundary
 * activations flow forward over NVLink during FP and their gradients
 * flow backward during BP, and weight updates are purely local (no
 * gradient exchange at all).
 *
 * The per-stage execution order follows core/stage_schedule.hh:
 *
 *  - ParallelismMode::ModelParallel runs the gpipe fill-drain
 *    schedule through the legacy eager dispatcher, whose record
 *    stream (and digest) is pinned bit-for-bit by parity tests.
 *  - ParallelismMode::Pipeline runs the 1F1B schedule through a
 *    programmed dispatcher: each stage walks its oneFOneBProgram as
 *    operands arrive, stage-boundary tensors move through
 *    comm::StagePump (so --scheduler/--partition-bytes policies
 *    shape activation traffic), and the memory planner charges only
 *    the schedule's peak live microbatches per stage — the 1F1B
 *    memory win shows up directly in maxBatchPerGpu.
 */

#ifndef DGXSIM_CORE_MODEL_PARALLEL_TRAINER_HH
#define DGXSIM_CORE_MODEL_PARALLEL_TRAINER_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "comm/stage_pump.hh"
#include "core/stage_schedule.hh"
#include "core/trainer_base.hh"

namespace dgxsim::core {

/**
 * Pipelined model-parallel trainer (gpipe or 1F1B schedule); built by
 * TrainerBase::make. cfg.batchPerGpu x cfg.numGpus forms the global
 * batch (matching the data-parallel trainer's totals so the two
 * parallelism modes compare at equal work). cfg.microbatches is the
 * pipeline depth (0 selects numGpus).
 */
class ModelParallelTrainer : public TrainerBase
{
  public:
    ~ModelParallelTrainer() override;

    /** @return the per-stage layer partition (layer index ranges). */
    const std::vector<std::pair<std::size_t, std::size_t>> &
    stages() const
    {
        return stages_;
    }

  private:
    friend class TrainerBase;
    ModelParallelTrainer(TrainConfig cfg, std::optional<dnn::Network> net,
                         std::optional<hw::Topology> topo);

    void planMemory(TrainReport &report) override;
    void kickOff() override;
    void auditIdle(sim::Auditor &auditor) override;
    void fillReport(TrainReport &report, sim::Tick end) const override;

    void partition();

    /** Chain microbatch @p m through FP at stage @p s (gpipe). */
    void forwardStage(int m, std::size_t s);
    /** Chain microbatch @p m through BP at stage @p s (gpipe). */
    void backwardStage(int m, std::size_t s);

    /** Per-stage dispatch state of the programmed (1F1B) path. */
    struct StageState {
        std::vector<StageSlot> program;
        std::size_t nextSlot = 0;
        /** Microbatches whose forward operand has arrived. */
        std::vector<char> fwdReady;
        /** Microbatches whose backward operand has arrived. */
        std::vector<char> bwdReady;
        /** Activations held live right now (checked against the
         * planned peak). */
        int liveNow = 0;
        /** Backwards completed (local sgdUpdate trigger). */
        int bwdDone = 0;
    };

    /** Launch the programmed dispatcher across all stages. */
    void runProgrammed();
    /** Enqueue every ready slot of stage @p s, in program order. */
    void tryAdvance(std::size_t s);
    void enqueueFwd(std::size_t s, int m);
    void enqueueBwd(std::size_t s, int m);

    sim::Tick stageKernelTicks(std::size_t s, bool backward) const;
    sim::Bytes boundaryBytes(std::size_t s) const;
    sim::Bytes stageParamBytes(std::size_t s) const;

    int microbatches_ = 0;
    int microbatchSize_ = 0;
    std::vector<cuda::Stream *> streams_;
    /** Per-stage kernel labels "stage<s>_fwd" / "stage<s>_bwd". */
    std::vector<profiling::Name> fwdLabels_;
    std::vector<profiling::Name> bwdLabels_;
    /** [first, last] layer index per stage. */
    std::vector<std::pair<std::size_t, std::size_t>> stages_;
    int microbatchesDone_ = 0;

    /** Programmed-path state; empty on the gpipe path. */
    std::vector<StageState> states_;
    /** fwdPumps_[s]: stage s -> s+1; bwdPumps_[s]: stage s -> s-1. */
    std::vector<std::unique_ptr<comm::StagePump>> fwdPumps_;
    std::vector<std::unique_ptr<comm::StagePump>> bwdPumps_;
};

} // namespace dgxsim::core

#endif // DGXSIM_CORE_MODEL_PARALLEL_TRAINER_HH
