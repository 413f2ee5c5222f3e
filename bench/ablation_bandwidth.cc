/**
 * @file
 * Ablation for the paper's Sec. I claim: "only increasing the
 * bandwidth of the interconnect network cannot completely eliminate
 * the communication bottleneck". Scales every NVLink's bandwidth and
 * re-measures the 8-GPU epoch time: compute-bound and
 * software-overhead-bound components do not move.
 */

#include <cstdio>

#include "core/text_table.hh"
#include "core/trainer_base.hh"

namespace {

using namespace dgxsim;
using comm::CommMethod;

core::TrainReport
runScaled(const std::string &model, CommMethod method, double bw_scale)
{
    // nvlinkBwScale is the config-level knob for exactly this
    // experiment (Machine scales the fabric before any traffic), so
    // the bench needs no hand-built topology.
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = 8;
    cfg.batchPerGpu = 16;
    cfg.method = method;
    cfg.nvlinkBwScale = bw_scale;
    return core::TrainerBase::simulate(cfg);
}

const double kScales[] = {0.5, 1.0, 2.0, 4.0, 8.0};

void
printTable()
{
    std::printf("=== Ablation: NVLink bandwidth scaling, 8 GPUs, "
                "batch 16 ===\n");
    for (CommMethod method : {CommMethod::P2P, CommMethod::NCCL}) {
        std::printf("\n-- %s --\n", comm::commMethodName(method));
        core::TextTable table({"network", "BW x0.5", "x1", "x2", "x4",
                               "x8", "x8 gain over x1"});
        for (const char *model :
             {"lenet", "alexnet", "googlenet", "resnet-50",
              "inception-v3"}) {
            std::vector<double> times;
            for (double scale : kScales)
                times.push_back(
                    runScaled(model, method, scale).epochSeconds);
            table.addRow({model, core::TextTable::num(times[0], 2),
                          core::TextTable::num(times[1], 2),
                          core::TextTable::num(times[2], 2),
                          core::TextTable::num(times[3], 2),
                          core::TextTable::num(times[4], 2),
                          core::TextTable::num(times[1] / times[4], 2) +
                              "x"});
        }
        std::printf("%s", table.str().c_str());
    }
    std::printf(
        "\nReading: even 8x NVLink bandwidth leaves most of the epoch "
        "untouched — the per-transfer software overheads, kernel "
        "latencies and compute floor persist, which is the paper's "
        "argument that efficient DNN/framework implementations must "
        "accompany faster interconnects.\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
