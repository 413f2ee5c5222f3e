#include "core/scaling.hh"

#include "core/trainer_base.hh"

namespace dgxsim::core {

namespace {

std::vector<ScalingPoint>
sweep(TrainConfig base, const std::vector<int> &gpus, bool weak)
{
    std::vector<ScalingPoint> points;
    const std::uint64_t unit_images = base.datasetImages;
    double base_time = 0;
    for (int count : gpus) {
        TrainConfig cfg = base;
        cfg.numGpus = count;
        if (weak)
            cfg.datasetImages = unit_images * count;
        ScalingPoint point;
        point.gpus = count;
        point.report = TrainerBase::simulate(cfg);
        // Normalize to time-per-unit-dataset so weak scaling is a
        // throughput comparison.
        const double unit_time =
            point.report.epochSeconds /
            (weak ? static_cast<double>(count) : 1.0);
        if (points.empty())
            base_time = unit_time;
        point.speedup = unit_time > 0 ? base_time / unit_time : 0;
        points.push_back(std::move(point));
    }
    return points;
}

} // namespace

std::vector<ScalingPoint>
strongScaling(TrainConfig base, const std::vector<int> &gpus)
{
    return sweep(std::move(base), gpus, false);
}

std::vector<ScalingPoint>
weakScaling(TrainConfig base, const std::vector<int> &gpus)
{
    return sweep(std::move(base), gpus, true);
}

} // namespace dgxsim::core
