/**
 * @file
 * Custom-network example: define a new CNN with the NetworkBuilder
 * API (a VGG-style network with a heavyweight fully connected head),
 * then answer the questions the paper answers for its five
 * workloads: how does training scale across GPUs, and which
 * communication method should you pick?
 *
 * This demonstrates the library as a design tool: the model zoo is
 * not special — anything expressible as layers can be profiled.
 */

#include <algorithm>
#include <cstdio>

#include "core/text_table.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"
#include "dnn/network.hh"

namespace {

using namespace dgxsim;

/**
 * A VGG-11-style network: deep stacks of 3x3 convolutions and the
 * classic heavyweight fully connected head (communication-hungry,
 * like AlexNet, but with far more convolution compute).
 */
dnn::Network
buildMiniVgg()
{
    dnn::NetworkBuilder b("MiniVGG", dnn::TensorShape{3, 224, 224});
    int channels = 64;
    for (int stage = 0; stage < 4; ++stage) {
        const std::string s = "stage" + std::to_string(stage + 1);
        b.conv(s + "_conv1", channels, 3, 1, 1).relu(s + "_relu1");
        if (stage > 1)
            b.conv(s + "_conv2", channels, 3, 1, 1).relu(s + "_relu2");
        b.maxPool(s + "_pool", 2, 2);
        channels = std::min(512, channels * 2);
    }
    b.fc("fc6", 4096)
        .relu("fc6_relu")
        .dropout("fc6_drop")
        .fc("fc7", 4096)
        .relu("fc7_relu")
        .fc("fc8", 1000)
        .softmax("softmax");
    return b.build();
}

} // namespace

int
main()
{
    using core::TextTable;

    dnn::Network vgg = buildMiniVgg();
    std::printf("%s\n", vgg.summary().c_str());
    std::printf("  forward GFLOPs/image: %.2f, gradient buckets: %zu\n\n",
                vgg.forwardFlops(1) / 1e9, vgg.gradientBuckets().size());

    TextTable compare({"metric", "MiniVGG", "AlexNet (zoo)"});
    dnn::Network alex = dnn::buildByName("alexnet");
    compare.addRow({"parameters (M)",
                    TextTable::num(vgg.paramCount() / 1e6, 1),
                    TextTable::num(alex.paramCount() / 1e6, 1)});
    compare.addRow({"fwd GFLOPs/img",
                    TextTable::num(vgg.forwardFlops(1) / 1e9, 2),
                    TextTable::num(alex.forwardFlops(1) / 1e9, 2)});
    compare.addRow({"act. MB/img (stored)",
                    TextTable::num(vgg.activationBytes(1) / 1e6, 1),
                    TextTable::num(alex.activationBytes(1) / 1e6, 1)});
    compare.addRow({"weighted layers",
                    std::to_string(vgg.weightedLayers()),
                    std::to_string(alex.weightedLayers())});
    std::printf("%s\n", compare.str().c_str());

    // Profile the custom network exactly like the paper profiles the
    // zoo: scaling study across GPU counts and both kvstores.
    std::printf("MiniVGG training on the DGX-1, batch 32/GPU:\n");
    TextTable scale({"gpus", "p2p epoch (s)", "nccl epoch (s)",
                     "fp+bp (s)", "wu p2p (s)", "best"});
    for (int gpus : {1, 2, 4, 8}) {
        core::TrainConfig cfg;
        cfg.numGpus = gpus;
        cfg.batchPerGpu = 32;

        cfg.method = comm::CommMethod::P2P;
        const core::TrainReport p2p =
            core::TrainerBase::make(cfg, buildMiniVgg(),
                                    hw::Topology::dgx1Volta())
                ->run();

        cfg.method = comm::CommMethod::NCCL;
        const core::TrainReport nccl =
            core::TrainerBase::make(cfg, buildMiniVgg(),
                                    hw::Topology::dgx1Volta())
                ->run();

        scale.addRow({std::to_string(gpus),
                      TextTable::num(p2p.epochSeconds, 1),
                      TextTable::num(nccl.epochSeconds, 1),
                      TextTable::num(p2p.fpBpSeconds, 1),
                      TextTable::num(p2p.wuSeconds, 1),
                      p2p.epochSeconds <= nccl.epochSeconds ? "p2p"
                                                            : "nccl"});
    }
    std::printf("%s\n", scale.str().c_str());
    std::printf("Reading the table: MiniVGG's 120M-parameter FC head "
                "makes WU expensive, but its conv compute hides more "
                "of it than AlexNet's — the kind of design tradeoff "
                "the paper's profiling methodology exposes.\n");
    return 0;
}
