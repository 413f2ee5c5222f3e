/**
 * @file
 * The parallelization strategies the simulator models. The paper
 * profiles synchronous data parallelism; asynchronous parameter-server
 * training (Sec. II-B) and pipelined model parallelism (Sec. I) are
 * the two roads it discusses but does not measure. Every trainer is a
 * strategy over the same core::Machine substrate, selected by this
 * enum (TrainConfig::mode).
 */

#ifndef DGXSIM_CORE_PARALLELISM_HH
#define DGXSIM_CORE_PARALLELISM_HH

#include <string>
#include <vector>

namespace dgxsim::core {

/** How the workload is split across the GPUs. */
enum class ParallelismMode {
    /** Synchronous data-parallel SGD — the paper's subject. */
    SyncDp,
    /** Asynchronous parameter-server SGD (no barrier, staleness). */
    AsyncPs,
    /** GPipe-style pipelined model parallelism (layer stages). */
    ModelParallel,
    /** 1F1B pipelined model parallelism (bounded live microbatches). */
    Pipeline,
};

/** @return the canonical CLI/JSON name ("sync_dp", "async_ps",
 * "model_parallel", "pipeline"). */
const char *parallelismModeName(ParallelismMode mode);

/**
 * Parse a mode name (fatal otherwise, with a did-you-mean hint for
 * near-miss typos). Accepts the canonical names plus the historical
 * aliases "sync", "async", "mp" and "1f1b".
 */
ParallelismMode parseParallelismMode(const std::string &name);

/** @return every mode, in enum order. */
const std::vector<ParallelismMode> &allParallelismModes();

/** Fatal unless @p mode runs on @p nodes cluster nodes: multi-node
 * clusters support only sync_dp. */
void checkClusterMode(ParallelismMode mode, int nodes);

} // namespace dgxsim::core

#endif // DGXSIM_CORE_PARALLELISM_HH
