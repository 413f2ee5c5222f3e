/**
 * @file
 * Regenerates paper Fig. 4: the breakdown of epoch time into
 * computation (FP+BP) and exposed communication (WU) for the five
 * workloads under NCCL, across (GPU count, batch size) pairs.
 */

#include "bench_common.hh"

namespace {

using namespace dgxsim;
using bench::run;
using comm::CommMethod;

void
printFigure()
{
    std::printf("=== Fig. 4: epoch time split into FP+BP and WU "
                "(NCCL) ===\n");
    for (const std::string &model : bench::paperModels()) {
        std::printf("\n-- %s --\n", model.c_str());
        core::TextTable table({"(gpus, batch)", "FP+BP (s)", "WU (s)",
                               "WU share (%)"});
        for (int gpus : {1, 2, 4, 8}) {
            for (int batch : {16, 32, 64}) {
                const core::TrainReport &r =
                    run(model, gpus, batch, CommMethod::NCCL);
                const double total = r.fpBpSeconds + r.wuSeconds;
                std::string cell = "(";
                cell += std::to_string(gpus);
                cell += ", ";
                cell += std::to_string(batch);
                cell += ")";
                table.addRow(
                    {cell,
                     core::TextTable::num(r.fpBpSeconds, 2),
                     core::TextTable::num(r.wuSeconds, 2),
                     core::TextTable::num(
                         total > 0 ? 100.0 * r.wuSeconds / total : 0,
                         1)});
            }
        }
        std::printf("%s", table.str().c_str());
    }

    std::printf("\n-- WU-stage epoch-time scaling 2 -> 4 -> 8 GPUs "
                "(batch 16) --\n");
    core::TextTable scaling({"network", "WU@2 (s)", "WU@4 (s)",
                             "WU@8 (s)", "2/4 ratio", "4/8 ratio"});
    for (const std::string &model : bench::paperModels()) {
        const double w2 = run(model, 2, 16, CommMethod::NCCL).wuSeconds;
        const double w4 = run(model, 4, 16, CommMethod::NCCL).wuSeconds;
        const double w8 = run(model, 8, 16, CommMethod::NCCL).wuSeconds;
        scaling.addRow({model, core::TextTable::num(w2, 2),
                        core::TextTable::num(w4, 2),
                        core::TextTable::num(w8, 2),
                        core::TextTable::num(w2 / w4, 2),
                        core::TextTable::num(w4 / w8, 2)});
    }
    std::printf("%s", scaling.str().c_str());
    std::printf(
        "\nPaper reference points: FP+BP dominates as GPUs scale for "
        "the compute-intensive workloads; single-GPU WU is nearly two "
        "orders of magnitude below FP+BP; LeNet's WU drops with GPU "
        "count while its FP+BP scales non-linearly.\n");
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
