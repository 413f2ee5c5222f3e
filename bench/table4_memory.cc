/**
 * @file
 * Regenerates paper Table IV: per-GPU memory during pre-training and
 * training with 4 GPUs (NCCL), separating the parameter-server GPU0
 * from the worker GPUs, plus the batch-size limits of Sec. V-D.
 */

#include "bench_common.hh"

namespace {

using namespace dgxsim;
using bench::run;
using comm::CommMethod;

void
printTable()
{
    std::printf("=== Table IV: memory usage, 4 GPUs, NCCL ===\n");
    core::TextTable table({"Network", "Batch", "Pre-train GPUz (GB)",
                           "Train GPU0 (GB)", "Train GPUx (GB)",
                           "GPU0 extra (%)", "vs b16 (%)"});
    for (const std::string &model : bench::paperModels()) {
        const double base =
            run(model, 4, 16, CommMethod::NCCL).gpu0.trainingGB();
        for (int batch : {16, 32, 64}) {
            const core::TrainReport &r =
                run(model, 4, batch, CommMethod::NCCL);
            if (r.oom) {
                table.addRow({model, std::to_string(batch), "-", "OOM",
                              "OOM", "-", "-"});
                continue;
            }
            table.addRow(
                {model, std::to_string(batch),
                 core::TextTable::num(r.gpu0.preTrainingGB(), 2),
                 core::TextTable::num(r.gpu0.trainingGB(), 2),
                 core::TextTable::num(r.gpux.trainingGB(), 2),
                 core::TextTable::num(
                     100.0 * (r.gpu0.trainingGB() -
                              r.gpux.trainingGB()) /
                         r.gpux.trainingGB(),
                     1),
                 core::TextTable::num(
                     100.0 * (r.gpu0.trainingGB() - base) / base, 1)});
        }
    }
    std::printf("%s", table.str().c_str());

    std::printf("\n-- Batch-size limits (16 GB V100) --\n");
    core::TextTable caps({"network", "max batch/GPU"});
    for (const std::string &model : bench::paperModels()) {
        core::TrainConfig cfg;
        cfg.model = model;
        cfg.numGpus = 4;
        cfg.method = CommMethod::NCCL;
        const auto best = core::TrainerBase::maxBatchPerGpu(
            cfg, {16, 32, 64, 128, 256, 512});
        caps.addRow({model, best ? std::to_string(*best) : "none"});
    }
    std::printf("%s", caps.str().c_str());
    std::printf(
        "\nPaper reference points: Inception-v3 needs ~11 GB on GPU0 "
        "at batch 64 and grows ~1.83x from batch 16; batch 64 is the "
        "ceiling for Inception-v3 and ResNet, 128 for GoogLeNet; "
        "GPU0's extra share shrinks as batch grows; pre-training "
        "memory is equal on all GPUs and barely moves with batch.\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
