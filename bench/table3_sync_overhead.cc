/**
 * @file
 * Regenerates paper Table III: the share of CUDA API time spent in
 * cudaStreamSynchronize while training LeNet, across batch sizes and
 * GPU counts. The paper uses this to explain LeNet's non-linear
 * FP+BP scaling: short iterations cannot amortize host-side
 * synchronization.
 */

#include "bench_common.hh"

namespace {

using namespace dgxsim;
using bench::run;
using comm::CommMethod;

void
printTable()
{
    std::printf("=== Table III: cudaStreamSynchronize share of CUDA "
                "API time, LeNet (NCCL) ===\n");
    core::TextTable table(
        {"Batch Size", "GPU Count", "Time (%)"});
    for (int batch : {16, 32, 64}) {
        for (int gpus : {1, 2, 4, 8}) {
            const core::TrainReport &r =
                run("lenet", gpus, batch, CommMethod::NCCL);
            table.addRow({std::to_string(batch), std::to_string(gpus),
                          core::TextTable::num(
                              100.0 * r.syncApiFraction, 1)});
        }
    }
    std::printf("%s", table.str().c_str());
    std::printf(
        "\nPaper trend check: the synchronization share grows "
        "steeply with GPU count (workers idle at the iteration "
        "barrier while communication and straggling dispatch "
        "complete). Known deviation: the paper also reports the "
        "share falling as batch size grows; here per-iteration sync "
        "cost is batch-independent, so the share is flat in batch.\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
