/**
 * @file
 * Pipeline stage schedules as two pure functions of (stage, #stages,
 * #microbatches): the 1F1B slot program — the order in which a stage
 * runs microbatch forwards and backwards — and, per mode, the peak
 * number of microbatch activations a stage holds live at once, which
 * is what the Machine memory planner charges instead of the
 * historical "all microbatches live" assumption.
 *
 * Two schedules exist:
 *  - gpipe (ParallelismMode::ModelParallel): fill-drain, all forwards
 *    then all backwards. Its order emerges from the trainer's eager
 *    dispatcher and per-stage stream serialization, so it needs no
 *    program; its peak-live count is the full microbatch count,
 *    matching the old planner byte-for-byte.
 *  - 1f1b (ParallelismMode::Pipeline): oneFOneBProgram. Peak-live
 *    per stage drops to min(m, stages - s), which is the memory win
 *    that makes deep pipelines fit.
 */

#ifndef DGXSIM_CORE_STAGE_SCHEDULE_HH
#define DGXSIM_CORE_STAGE_SCHEDULE_HH

#include <cstddef>
#include <vector>

#include "core/parallelism.hh"

namespace dgxsim::core {

/** One work item in a stage's program. */
struct StageSlot {
    enum class Op { Fwd, Bwd };
    Op op = Op::Fwd;
    /** Which microbatch this slot processes, in [0, microbatches). */
    int microbatch = 0;
};

/**
 * The 1F1B slot sequence stage @p stage executes: warmup of
 * w = min(m, stages - stage) forwards, then steady-state
 * Bwd(k - w)/Fwd(k) pairs, then cooldown backwards. Exactly one Fwd
 * and one Bwd per microbatch.
 */
std::vector<StageSlot> oneFOneBProgram(std::size_t stage,
                                       std::size_t stages,
                                       int microbatches);

/**
 * Peak number of microbatch activations stage @p stage holds live at
 * once (forward done, backward not yet consumed) under @p mode:
 * min(m, stages - stage) for Pipeline (1F1B), m for ModelParallel
 * (gpipe). The memory planner charges this many activation copies.
 */
int peakLiveMicrobatches(ParallelismMode mode, std::size_t stage,
                         std::size_t stages, int microbatches);

} // namespace dgxsim::core

#endif // DGXSIM_CORE_STAGE_SCHEDULE_HH
