/**
 * @file
 * Strong- and weak-scaling sweeps (paper Sec. IV-C / Fig. 3 / Fig. 5).
 *
 * Strong scaling fixes the dataset (256K images) and adds GPUs; weak
 * scaling grows the dataset proportionally (256K/512K/1024K/2048K for
 * 1/2/4/8 GPUs) so per-GPU work stays constant.
 */

#ifndef DGXSIM_CORE_SCALING_HH
#define DGXSIM_CORE_SCALING_HH

#include <vector>

#include "core/report.hh"

namespace dgxsim::core {

/** One point of a scaling curve. */
struct ScalingPoint
{
    int gpus = 1;
    TrainReport report;
    /**
     * Throughput speedup over the 1-GPU run (for weak scaling the
     * epoch time is normalized by the dataset growth first).
     */
    double speedup = 1.0;
};

/** Run @p base at each GPU count with a fixed dataset. */
std::vector<ScalingPoint> strongScaling(TrainConfig base,
                                        const std::vector<int> &gpus);

/**
 * Run @p base at each GPU count, scaling the dataset by the GPU
 * count (base.datasetImages is the 1-GPU dataset).
 */
std::vector<ScalingPoint> weakScaling(TrainConfig base,
                                      const std::vector<int> &gpus);

} // namespace dgxsim::core

#endif // DGXSIM_CORE_SCALING_HH
