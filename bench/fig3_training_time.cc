/**
 * @file
 * Regenerates paper Fig. 3: training time per epoch for the five
 * workloads with P2P and NCCL communication, at 1/2/4/8 GPUs and
 * batch sizes 16/32/64 (256K-image dataset, strong scaling).
 *
 * Output: one series per (network, method), epoch seconds per
 * (gpus, batch) cell — the quantities Fig. 3's bars show — plus the
 * speedup factors the paper quotes in Sec. V-A.
 */

#include "bench_common.hh"

namespace {

using namespace dgxsim;
using bench::run;
using comm::CommMethod;

void
printFigure()
{
    std::printf("=== Fig. 3: training time per epoch (seconds, 256K "
                "images) ===\n");
    for (const std::string &model : bench::paperModels()) {
        for (CommMethod method : {CommMethod::P2P, CommMethod::NCCL}) {
            std::printf("\n-- %s with %s --\n", model.c_str(),
                        comm::commMethodName(method));
            core::TextTable table(
                {"batch", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs",
                 "speedup@2", "speedup@4", "speedup@8"});
            for (int batch : {16, 32, 64}) {
                const double t1 =
                    run(model, 1, batch, method).epochSeconds;
                const double t2 =
                    run(model, 2, batch, method).epochSeconds;
                const double t4 =
                    run(model, 4, batch, method).epochSeconds;
                const double t8 =
                    run(model, 8, batch, method).epochSeconds;
                table.addRow({std::to_string(batch),
                              core::TextTable::num(t1, 2),
                              core::TextTable::num(t2, 2),
                              core::TextTable::num(t4, 2),
                              core::TextTable::num(t8, 2),
                              core::TextTable::num(t1 / t2, 2),
                              core::TextTable::num(t1 / t4, 2),
                              core::TextTable::num(t1 / t8, 2)});
            }
            std::printf("%s", table.str().c_str());
        }
    }
    std::printf(
        "\nPaper reference points: LeNet b16 P2P speedups 1.62 / 2.37 "
        "/ 3.36 and NCCL 1.56 / 2.27 / 2.77; LeNet 4-GPU P2P batch "
        "16->32->64 cuts time by 1.92x and 3.67x; NCCL beats P2P for "
        "GoogLeNet/ResNet/Inception-v3 at 4 and 8 GPUs; P2P wins for "
        "LeNet and AlexNet.\n");
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
