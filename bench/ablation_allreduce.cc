/**
 * @file
 * Extension ablation: what would the paper's numbers look like if
 * MXNet had used a fused ring AllReduce (with replicated local
 * updates) instead of Reduce + root update + Broadcast — and how much
 * does Horovod/DDP-style gradient-bucket fusion add on top?
 *
 * The interplay is the interesting part: AllReduce alone wins for
 * AlexNet's few huge buckets but *loses* for ResNet/Inception's
 * hundreds of small ones (each lock-step ring pays its latency), and
 * fusion is what makes it pay off everywhere — the modern-stack
 * lesson, forecast from the paper's machine model.
 */

#include <cstdio>

#include "core/text_table.hh"
#include "core/trainer.hh"

namespace {

using namespace dgxsim;
using comm::CommMethod;

core::TrainReport
runCfg(const std::string &model, int gpus, bool allreduce,
       double fusion_mb)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.method = CommMethod::NCCL;
    cfg.useAllReduce = allreduce;
    cfg.bucketFusionMB = fusion_mb;
    return core::Trainer::simulate(cfg);
}

void
printTable()
{
    std::printf("=== Extension: fused AllReduce and gradient "
                "bucketing (NCCL, batch 16) ===\n");
    for (int gpus : {4, 8}) {
        std::printf("\n-- %d GPUs --\n", gpus);
        core::TextTable table({"network", "reduce+bcast (s)",
                               "allreduce (s)",
                               "allreduce+16MB fusion (s)",
                               "best vs paper-era"});
        for (const char *model :
             {"lenet", "alexnet", "googlenet", "resnet-50",
              "inception-v3"}) {
            const double base =
                runCfg(model, gpus, false, 0).epochSeconds;
            const double ar = runCfg(model, gpus, true, 0).epochSeconds;
            const double fused =
                runCfg(model, gpus, true, 16.0).epochSeconds;
            const double best = std::min(ar, fused);
            table.addRow({model, core::TextTable::num(base, 2),
                          core::TextTable::num(ar, 2),
                          core::TextTable::num(fused, 2),
                          core::TextTable::num(base / best, 2) + "x"});
        }
        std::printf("%s", table.str().c_str());
    }
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
