/**
 * @file
 * Extension study: the two roads the paper mentions but does not
 * measure — asynchronous SGD (Sec. II-B) and model parallelism
 * (Sec. I) — quantified on the same simulated DGX-1 and compared
 * against the synchronous data-parallel baseline the paper profiles.
 */

#include <cstdio>

#include "core/text_table.hh"
#include "core/trainer_base.hh"

namespace {

using namespace dgxsim;
using comm::CommMethod;

core::TrainConfig
makeConfig(const std::string &model, int gpus)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.method = CommMethod::P2P;
    return cfg;
}

void
printTables()
{
    std::printf("=== Extension: asynchronous SGD vs. the paper's "
                "synchronous schedule (P2P, batch 16/GPU) ===\n");
    core::TextTable async_table(
        {"network", "gpus", "sync epoch (s)", "async epoch (s)",
         "async gain", "staleness avg", "staleness max"});
    for (const char *model : {"lenet", "alexnet", "resnet-50"}) {
        for (int gpus : {2, 4, 8}) {
            auto cfg = makeConfig(model, gpus);
            const auto sync = core::TrainerBase::simulate(cfg);
            cfg.mode = core::ParallelismMode::AsyncPs;
            const auto async = core::TrainerBase::simulate(cfg);
            async_table.addRow(
                {model, std::to_string(gpus),
                 core::TextTable::num(sync.epochSeconds, 2),
                 core::TextTable::num(async.epochSeconds, 2),
                 core::TextTable::num(
                     sync.epochSeconds / async.epochSeconds, 2) +
                     "x",
                 core::TextTable::num(async.avgStaleness, 2),
                 std::to_string(async.maxStaleness)});
        }
    }
    std::printf("%s", async_table.str().c_str());
    std::printf("Reading: removing the barrier buys up to ~2x on the "
                "short-iteration workloads, but average staleness "
                "approaches N-1 updates — the delayed-gradient "
                "problem the paper cites as ASGD's accuracy cost.\n");

    std::printf("\n=== Extension: model parallelism vs. data "
                "parallelism (4 GPUs, equal global batch 64) ===\n");
    core::TextTable mp_table(
        {"network", "data-par (s)", "model-par ub1 (s)",
         "model-par ub4 (s)", "bubble ub4", "last-stage params"});
    for (const char *model :
         {"alexnet", "googlenet", "resnet-50", "inception-v3"}) {
        auto cfg = makeConfig(model, 4);
        cfg.method = CommMethod::NCCL;
        const auto dp = core::TrainerBase::simulate(cfg);
        cfg.mode = core::ParallelismMode::ModelParallel;
        cfg.microbatches = 1;
        const auto mp1 = core::TrainerBase::simulate(cfg);
        cfg.microbatches = 4;
        const auto mp4 = core::TrainerBase::simulate(cfg);
        mp_table.addRow(
            {model, core::TextTable::num(dp.epochSeconds, 2),
             core::TextTable::num(mp1.epochSeconds, 2),
             core::TextTable::num(mp4.epochSeconds, 2),
             core::TextTable::num(100.0 * mp4.bubbleFraction, 0) + "%",
             core::TextTable::num(
                 mp4.stageParamBytes.back() / 1e6, 0) +
                 " MB"});
    }
    std::printf("%s", mp_table.str().c_str());
    std::printf(
        "Reading: pipelined model parallelism beats data parallelism "
        "only for AlexNet, whose 233 MB of fully connected weights "
        "make gradient exchange expensive while its boundary "
        "activations are small — precisely the paper's Sec. I rule "
        "of thumb about when each parallelism model fits.\n");
}

} // namespace

int
main()
{
    printTables();
    return 0;
}
