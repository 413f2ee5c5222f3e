#include "core/parallelism.hh"

#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::core {

const char *
parallelismModeName(ParallelismMode mode)
{
    switch (mode) {
    case ParallelismMode::SyncDp:
        return "sync_dp";
    case ParallelismMode::AsyncPs:
        return "async_ps";
    case ParallelismMode::ModelParallel:
        return "model_parallel";
    case ParallelismMode::Pipeline:
        return "pipeline";
    }
    return "?";
}

ParallelismMode
parseParallelismMode(const std::string &name)
{
    if (name == "sync_dp" || name == "sync")
        return ParallelismMode::SyncDp;
    if (name == "async_ps" || name == "async")
        return ParallelismMode::AsyncPs;
    if (name == "model_parallel" || name == "mp")
        return ParallelismMode::ModelParallel;
    if (name == "pipeline" || name == "1f1b")
        return ParallelismMode::Pipeline;
    std::vector<std::string> known;
    for (ParallelismMode mode : allParallelismModes())
        known.push_back(parallelismModeName(mode));
    sim::fatal("unknown parallelism mode '", name,
               "' (expected sync_dp, async_ps, model_parallel or "
               "pipeline)",
               sim::didYouMean(name, known));
}

const std::vector<ParallelismMode> &
allParallelismModes()
{
    static const std::vector<ParallelismMode> modes = {
        ParallelismMode::SyncDp, ParallelismMode::AsyncPs,
        ParallelismMode::ModelParallel, ParallelismMode::Pipeline};
    return modes;
}

void
checkClusterMode(ParallelismMode mode, int nodes)
{
    if (nodes > 1 && mode != ParallelismMode::SyncDp) {
        sim::fatal("multi-node clusters support only the sync_dp "
                   "mode, got ", parallelismModeName(mode));
    }
}

} // namespace dgxsim::core
