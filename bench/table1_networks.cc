/**
 * @file
 * Regenerates paper Table I: the structural description of the five
 * workloads (layer classes and weight counts), plus the derived
 * quantities the rest of the evaluation leans on (per-image FLOPs,
 * gradient buckets, stored activations).
 */

#include <cstdio>

#include "core/text_table.hh"
#include "dnn/models.hh"

namespace {

using namespace dgxsim;

void
printTable()
{
    std::printf("=== Table I: description of the networks ===\n");
    core::TextTable table({"Network", "Conv Layers", "Incep Layers",
                           "FC Layers", "Weights", "fwd GFLOPs/img",
                           "grad buckets", "act MB/img"});
    for (const std::string &model : dnn::modelNames()) {
        dnn::Network net = dnn::buildByName(model);
        table.addRow(
            {model, std::to_string(net.structure.convLayers),
             std::to_string(net.structure.inceptionModules),
             std::to_string(net.structure.fcLayers),
             core::TextTable::num(net.paramCount() / 1e6, 2) + "M",
             core::TextTable::num(net.forwardFlops(1) / 1e9, 2),
             std::to_string(net.gradientBuckets().size()),
             core::TextTable::num(net.activationBytes(1) / 1e6, 1)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("\nReference points: LeNet 431K weights (MXNet "
                "example), AlexNet ~61M, GoogLeNet ~7M with 9 "
                "inception modules, Inception-v3 ~24M with 11, "
                "ResNet-50 ~25.6M across 53 convolutions in 16 "
                "residual blocks.\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
