#include "core/stage_schedule.hh"

#include <algorithm>

namespace dgxsim::core {

std::vector<StageSlot>
oneFOneBProgram(std::size_t stage, std::size_t stages, int microbatches)
{
    // Warmup depth shrinks toward the last stage: the final stage
    // turns each microbatch around immediately (w = 1), the first
    // stage must issue a full pipeline's worth before its first
    // backward arrives (w = stages, capped at m).
    const int w = peakLiveMicrobatches(ParallelismMode::Pipeline, stage,
                                       stages, microbatches);
    std::vector<StageSlot> program;
    program.reserve(2 * static_cast<std::size_t>(microbatches));
    for (int m = 0; m < w; ++m)
        program.push_back({StageSlot::Op::Fwd, m});
    for (int k = w; k < microbatches; ++k) {
        program.push_back({StageSlot::Op::Bwd, k - w});
        program.push_back({StageSlot::Op::Fwd, k});
    }
    for (int m = microbatches - w; m < microbatches; ++m)
        program.push_back({StageSlot::Op::Bwd, m});
    return program;
}

int
peakLiveMicrobatches(ParallelismMode mode, std::size_t stage,
                     std::size_t stages, int microbatches)
{
    if (mode != ParallelismMode::Pipeline)
        return microbatches; // gpipe fill-drain keeps every one live
    const int depth = static_cast<int>(stages - stage);
    return std::max(1, std::min(microbatches, depth));
}

} // namespace dgxsim::core
