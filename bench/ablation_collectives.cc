/**
 * @file
 * Design-choice ablations on the communication library:
 *
 *  1. NCCL ring chunk size — pipelining depth vs. per-chunk latency
 *     (DESIGN.md's "chunked pipelined ring" decision);
 *  2. idealized BP/WU overlap on/off for both methods (MXNet's
 *     pipelining of Fig. 1, which the measured machine barely
 *     realizes);
 *  3. the PCIe-only topology (Tallent et al.-style NVLink-vs-PCIe
 *     comparison the paper cites).
 */

#include <cstdio>

#include "core/text_table.hh"
#include "core/trainer.hh"

namespace {

using namespace dgxsim;
using comm::CommMethod;

core::TrainReport
runCfg(const std::string &model, CommMethod method, sim::Bytes chunk,
       bool overlap, bool pcie_only)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = 8;
    cfg.batchPerGpu = 16;
    cfg.method = method;
    cfg.overlapBpWu = overlap;
    if (chunk > 0)
        cfg.commConfig.ringChunkBytes = chunk;
    core::Trainer trainer(cfg, pcie_only ? hw::Topology::pcieOnly8Gpu()
                                         : hw::Topology::dgx1Volta());
    return trainer.run();
}

void
printTables()
{
    std::printf("=== Ablation 1: NCCL ring chunk size (8 GPUs, "
                "batch 16) ===\n");
    core::TextTable chunks({"network", "128 KiB", "512 KiB", "2 MiB",
                            "64 MiB (no pipeline)"});
    for (const char *model : {"alexnet", "resnet-50"}) {
        std::vector<std::string> row = {model};
        for (sim::Bytes chunk :
             {sim::Bytes(128) << 10, sim::Bytes(512) << 10,
              sim::Bytes(2) << 20, sim::Bytes(64) << 20}) {
            row.push_back(core::TextTable::num(
                runCfg(model, CommMethod::NCCL, chunk, false, false)
                    .epochSeconds,
                2));
        }
        chunks.addRow(row);
    }
    std::printf("%s", chunks.str().c_str());

    std::printf("\n=== Ablation 2: idealized BP/WU overlap (8 GPUs, "
                "batch 16) ===\n");
    core::TextTable overlap({"network", "method", "serial WU (s)",
                             "overlapped WU (s)", "epoch gain"});
    for (const char *model : {"alexnet", "resnet-50", "inception-v3"}) {
        for (CommMethod m : {CommMethod::P2P, CommMethod::NCCL}) {
            const core::TrainReport serial =
                runCfg(model, m, 0, false, false);
            const core::TrainReport pipe =
                runCfg(model, m, 0, true, false);
            overlap.addRow(
                {model, comm::commMethodName(m),
                 core::TextTable::num(serial.wuSeconds, 2),
                 core::TextTable::num(pipe.wuSeconds, 2),
                 core::TextTable::num(serial.epochSeconds /
                                          pipe.epochSeconds,
                                      2) +
                     "x"});
        }
    }
    std::printf("%s", overlap.str().c_str());

    std::printf("\n=== Ablation 3: NVLink vs PCIe-only box (8 GPUs, "
                "batch 16, P2P) ===\n");
    core::TextTable pcie({"network", "DGX-1 NVLink (s)",
                          "PCIe-only (s)", "NVLink advantage"});
    for (const char *model : {"alexnet", "resnet-50"}) {
        const double nvlink =
            runCfg(model, CommMethod::P2P, 0, false, false)
                .epochSeconds;
        const double only_pcie =
            runCfg(model, CommMethod::P2P, 0, false, true)
                .epochSeconds;
        pcie.addRow({model, core::TextTable::num(nvlink, 2),
                     core::TextTable::num(only_pcie, 2),
                     core::TextTable::num(only_pcie / nvlink, 2) + "x"});
    }
    std::printf("%s", pcie.str().c_str());
}

} // namespace

int
main()
{
    printTables();
    return 0;
}
