/**
 * @file
 * GPU-generation ablation supporting the paper's Sec. I claim that
 * "multi-GPU communication latency cannot be hidden by simply
 * increasing ... compute capability of the GPUs": swap the V100 for
 * the Pascal-DGX-1's P100, and separately turn the V100's tensor
 * cores on (fp16 training), and watch the WU share of the epoch grow
 * as compute shrinks.
 */

#include <cstdio>

#include "core/text_table.hh"
#include "core/trainer.hh"

namespace {

using namespace dgxsim;
using comm::CommMethod;

core::TrainReport
runGen(const std::string &model, const std::string &platform,
       bool tensor)
{
    // The Pascal machine is a registered platform (dgx1p = the
    // DGX-1's topology with P100s), so the ablation just flips the
    // platform axis instead of hand-wiring a GpuSpec.
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = 8;
    cfg.batchPerGpu = 16;
    cfg.method = CommMethod::NCCL;
    cfg.platform = platform;
    cfg.useTensorCores = tensor;
    return core::Trainer::simulate(cfg);
}

void
printTable()
{
    std::printf("=== Ablation: GPU generation and tensor cores "
                "(8 GPUs, NCCL, batch 16) ===\n");
    core::TextTable table({"network", "config", "epoch (s)",
                           "FP+BP (s)", "WU (s)", "WU share"});
    for (const char *model :
         {"lenet", "alexnet", "googlenet", "resnet-50",
          "inception-v3"}) {
        struct Gen
        {
            const char *label;
            const char *platform;
            bool tensor;
        };
        const Gen gens[] = {
            {"P100 (Pascal DGX-1)", "dgx1p", false},
            {"V100 fp32", "dgx1v", false},
            {"V100 tensor cores", "dgx1v", true},
        };
        for (const Gen &gen : gens) {
            const auto r = runGen(model, gen.platform, gen.tensor);
            const double total = r.fpBpSeconds + r.wuSeconds;
            table.addRow(
                {model, gen.label,
                 core::TextTable::num(r.epochSeconds, 2),
                 core::TextTable::num(r.fpBpSeconds, 2),
                 core::TextTable::num(r.wuSeconds, 2),
                 core::TextTable::num(
                     total > 0 ? 100.0 * r.wuSeconds / total : 0, 1) +
                     "%"});
        }
    }
    std::printf("%s", table.str().c_str());
    std::printf(
        "\nReading: from P100 to V100 to tensor cores, FP+BP shrinks "
        "while WU barely moves, so communication's share of the epoch "
        "grows — faster GPUs make the paper's communication "
        "bottleneck worse, not better.\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
