/**
 * @file
 * Quickstart: simulate one training epoch of ResNet-50 on a Volta
 * DGX-1 with 4 GPUs and NCCL communication, then print the training
 * report and the nvprof-style profile.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [model] [gpus] [batch] [p2p|nccl]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/trainer_base.hh"

int
main(int argc, char **argv)
{
    using namespace dgxsim;

    core::TrainConfig cfg;
    cfg.model = argc > 1 ? argv[1] : "resnet-50";
    cfg.numGpus = argc > 2 ? std::atoi(argv[2]) : 4;
    cfg.batchPerGpu = argc > 3 ? std::atoi(argv[3]) : 16;
    cfg.method = argc > 4 ? comm::parseCommMethod(argv[4])
                          : comm::CommMethod::NCCL;

    std::printf("dgxsim quickstart: training %s on %d V100(s), batch "
                "%d/GPU, %s kvstore\n\n",
                cfg.model.c_str(), cfg.numGpus, cfg.batchPerGpu,
                comm::commMethodName(cfg.method));

    const auto trainer = core::TrainerBase::make(cfg);
    const core::TrainReport report = trainer->run();

    if (report.oom) {
        std::printf("configuration does not fit in GPU memory:\n  %s\n",
                    report.oomDetail.c_str());
        return 1;
    }

    std::printf("epoch time:          %8.2f s (%llu iterations of %.2f "
                "ms)\n",
                report.epochSeconds,
                static_cast<unsigned long long>(report.iterations),
                report.iterationSeconds * 1e3);
    std::printf("  FP+BP (compute):   %8.2f s\n", report.fpBpSeconds);
    std::printf("  WU (communication):%8.2f s\n", report.wuSeconds);
    std::printf("  one-time setup:    %8.2f s\n", report.setupSeconds);
    std::printf("cudaStreamSynchronize: %.1f%% of CUDA API time\n",
                100.0 * report.syncApiFraction);
    std::printf("inter-GPU traffic:   %8.1f MB per iteration\n",
                report.interGpuBytesPerIter / 1e6);
    std::printf("memory: pre-training %.2f GB; training GPU0 %.2f GB, "
                "workers %.2f GB\n\n",
                report.gpu0.preTrainingGB(), report.gpu0.trainingGB(),
                report.gpux.trainingGB());

    std::printf("%s\n", trainer->profiler().report().c_str());
    return 0;
}
