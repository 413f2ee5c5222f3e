/**
 * @file
 * Regenerates paper Table II: the overhead of the NCCL code path
 * relative to P2P when training on a single GPU (where neither
 * method moves data between GPUs — the difference is pure software
 * overhead plus NCCL's local Reduce/Broadcast kernels).
 */

#include "bench_common.hh"

namespace {

using namespace dgxsim;
using bench::run;
using comm::CommMethod;

double
overheadPercent(const std::string &model, int batch)
{
    const double p2p = run(model, 1, batch, CommMethod::P2P).epochSeconds;
    const double nccl =
        run(model, 1, batch, CommMethod::NCCL).epochSeconds;
    return 100.0 * (nccl - p2p) / p2p;
}

void
printTable()
{
    std::printf("=== Table II: NCCL overhead vs. P2P on one GPU "
                "===\n");
    core::TextTable table({"Network", "Batch Size",
                           "NCCL Overhead (%)"});
    for (const std::string &model : bench::paperModels()) {
        for (int batch : {16, 32, 64}) {
            table.addRow({model, std::to_string(batch),
                          core::TextTable::num(
                              overheadPercent(model, batch), 1)});
        }
    }
    std::printf("%s", table.str().c_str());
    std::printf(
        "\nPaper reference points: ~21.8%% for LeNet at batch 16; the "
        "large networks (ResNet, GoogLeNet, Inception-v3) stay in the "
        "low single digits and vary by less than 3.6 points across "
        "batch sizes. Known deviation: the paper reports the small-"
        "network overhead percentage *rising* with batch size, while "
        "this model's per-iteration overhead is fixed so the "
        "percentage drifts down slightly.\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
