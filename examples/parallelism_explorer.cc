/**
 * @file
 * Parallelism explorer: for a chosen workload, compare every
 * training strategy the library models — the paper's synchronous
 * data parallelism (P2P and NCCL), the modern fused-AllReduce +
 * gradient-fusion variant, asynchronous SGD, and pipelined model
 * parallelism — and dump a chrome://tracing timeline of the winner.
 *
 *   ./build/examples/parallelism_explorer [model] [gpus] [batch]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/text_table.hh"
#include "core/trainer_base.hh"

int
main(int argc, char **argv)
{
    using namespace dgxsim;
    using core::TextTable;

    core::TrainConfig cfg;
    cfg.model = argc > 1 ? argv[1] : "alexnet";
    cfg.numGpus = argc > 2 ? std::atoi(argv[2]) : 4;
    cfg.batchPerGpu = argc > 3 ? std::atoi(argv[3]) : 16;

    std::printf("Training strategies for %s on %d V100s (batch %d/GPU, "
                "%d global):\n\n",
                cfg.model.c_str(), cfg.numGpus, cfg.batchPerGpu,
                cfg.globalBatch());

    TextTable table({"strategy", "epoch (s)", "notes"});

    cfg.method = comm::CommMethod::P2P;
    const auto p2p = core::TrainerBase::simulate(cfg);
    table.addRow({"sync data-parallel, P2P kvstore",
                  TextTable::num(p2p.epochSeconds, 2),
                  "paper baseline"});

    cfg.method = comm::CommMethod::NCCL;
    const auto nccl = core::TrainerBase::simulate(cfg);
    table.addRow({"sync data-parallel, NCCL kvstore",
                  TextTable::num(nccl.epochSeconds, 2),
                  "paper baseline"});

    cfg.useAllReduce = true;
    cfg.bucketFusionMB = 16.0;
    const auto modern = core::TrainerBase::simulate(cfg);
    table.addRow({"fused AllReduce + 16MB bucketing",
                  TextTable::num(modern.epochSeconds, 2),
                  "modern-stack extension"});
    cfg.useAllReduce = false;
    cfg.bucketFusionMB = 0.0;

    cfg.method = comm::CommMethod::P2P;
    cfg.mode = core::ParallelismMode::AsyncPs;
    const auto async = core::TrainerBase::simulate(cfg);
    table.addRow(
        {"async SGD (no barrier)",
         TextTable::num(async.epochSeconds, 2),
         "staleness avg " + TextTable::num(async.avgStaleness, 1) +
             ", max " + std::to_string(async.maxStaleness)});

    cfg.mode = core::ParallelismMode::ModelParallel;
    const auto mp = core::TrainerBase::simulate(cfg);
    table.addRow(
        {"model-parallel pipeline",
         TextTable::num(mp.epochSeconds, 2),
         "bubble " + TextTable::num(100 * mp.bubbleFraction, 0) +
             "%, last stage " +
             TextTable::num(mp.stageParamBytes.back() / 1e6, 0) +
             " MB of weights"});

    std::printf("%s\n", table.str().c_str());

    // Timeline of one NCCL iteration for chrome://tracing.
    core::TrainConfig trace_cfg = cfg;
    trace_cfg.method = comm::CommMethod::NCCL;
    trace_cfg.mode = core::ParallelismMode::SyncDp;
    trace_cfg.measuredIterations = 1;
    const auto tracer = core::TrainerBase::make(trace_cfg);
    tracer->run();
    const std::string path = "/tmp/dgxsim_" + cfg.model + "_trace.json";
    tracer->profiler().writeChromeTrace(path);
    std::printf("One-iteration timeline written to %s — open it at "
                "chrome://tracing or ui.perfetto.dev.\n",
                path.c_str());
    return 0;
}
