/**
 * @file
 * Shared helpers for the programs that regenerate the paper's tables
 * and figures.
 *
 * Every program is a plain main() that prints one paper-style text
 * report to stdout and nothing else: its committed copy under
 * results/ is named on a results/baselines.manifest line, and the
 * dgxprof_golden_baselines ctest requires the two to match byte for
 * byte. Simulation results are memoized, so a report that reads one
 * cell several times simulates it once.
 */

#ifndef DGXSIM_BENCH_BENCH_COMMON_HH
#define DGXSIM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "campaign/campaign.hh"
#include "core/scaling.hh"
#include "core/text_table.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"

namespace dgxsim::bench {

/**
 * Memoized training simulation, shared with the campaign subsystem:
 * campaign::cachedSimulate keys on the full configuration, so every
 * table of a report (and a campaign run in the same process) reuses
 * the same report per cell.
 */
inline const core::TrainReport &
run(const std::string &model, int gpus, int batch,
    comm::CommMethod method,
    std::uint64_t dataset_images = 256000, bool overlap = false)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = batch;
    cfg.method = method;
    cfg.datasetImages = dataset_images;
    cfg.overlapBpWu = overlap;
    return campaign::cachedSimulate(cfg);
}

/** The five paper workloads in Table I order. */
inline const std::vector<std::string> &
paperModels()
{
    return dnn::modelNames();
}

} // namespace dgxsim::bench

#endif // DGXSIM_BENCH_BENCH_COMMON_HH
