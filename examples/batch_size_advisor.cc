/**
 * @file
 * Batch-size advisor: for every zoo model, probe the memory model to
 * find the largest per-GPU batch that fits a 16 GB V100, and show
 * the throughput each batch size achieves — automating the paper's
 * Sec. V-D memory study for a practitioner choosing a batch size.
 */

#include <cstdio>
#include <vector>

#include "core/text_table.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"

int
main()
{
    using namespace dgxsim;
    using core::TextTable;

    const std::vector<int> candidates = {16, 32, 64, 128, 256, 512};

    std::printf("=== Maximum per-GPU batch size on a 16 GB V100 "
                "(4-GPU training, NCCL) ===\n");
    TextTable caps({"network", "max batch/GPU", "training mem GPU0",
                    "throughput (img/s)"});
    for (const std::string &model : dnn::modelNames()) {
        core::TrainConfig cfg;
        cfg.model = model;
        cfg.numGpus = 4;
        cfg.method = comm::CommMethod::NCCL;
        const auto best = core::TrainerBase::maxBatchPerGpu(cfg, candidates);
        if (!best) {
            caps.addRow({model, "none", "-", "-"});
            continue;
        }
        cfg.batchPerGpu = *best;
        const core::TrainReport r = core::TrainerBase::simulate(cfg);
        const double imgs_per_sec =
            static_cast<double>(cfg.datasetImages) /
            (r.epochSeconds - r.setupSeconds);
        caps.addRow({model, std::to_string(*best),
                     TextTable::num(r.gpu0.trainingGB(), 2) + " GB",
                     TextTable::num(imgs_per_sec, 0)});
    }
    std::printf("%s\n", caps.str().c_str());

    std::printf("=== Inception-v3 batch sweep (4 GPUs, NCCL) ===\n");
    TextTable sweep({"batch/GPU", "fits?", "GPU0 mem", "epoch (s)",
                     "img/s"});
    for (int batch : candidates) {
        core::TrainConfig cfg;
        cfg.model = "inception-v3";
        cfg.numGpus = 4;
        cfg.batchPerGpu = batch;
        cfg.method = comm::CommMethod::NCCL;
        const core::TrainReport r = core::TrainerBase::simulate(cfg);
        if (r.oom) {
            sweep.addRow({std::to_string(batch), "OOM", "-", "-", "-"});
            continue;
        }
        sweep.addRow(
            {std::to_string(batch), "yes",
             TextTable::num(r.gpu0.trainingGB(), 2) + " GB",
             TextTable::num(r.epochSeconds, 1),
             TextTable::num(static_cast<double>(cfg.datasetImages) /
                                (r.epochSeconds - r.setupSeconds),
                            0)});
    }
    std::printf("%s\n", sweep.str().c_str());
    std::printf("Insight (paper Sec. V-D): increasing batch size cuts "
                "epoch time, but feature-map memory — not the model — "
                "caps the usable batch.\n");
    return 0;
}
