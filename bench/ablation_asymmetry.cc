/**
 * @file
 * Interconnect-asymmetry ablation. The paper observes that the
 * DGX-1's asymmetric link widths make GPUs idle during the weight
 * broadcast ("GPU3 has to wait longer than GPU1 and GPU2"). Two
 * experiments quantify that:
 *
 *  1. the stock hybrid cube-mesh vs. the same aggregate bandwidth
 *     spread uniformly over all 16 links;
 *  2. a degraded-link scenario: one NVLink drops to half speed
 *     (flaky retimer), and the impact depends on *which* link it is.
 */

#include <cstdio>

#include "core/text_table.hh"
#include "core/trainer.hh"
#include "hw/platform.hh"

namespace {

using namespace dgxsim;
using comm::CommMethod;

core::TrainReport
runTopo(const std::string &model, CommMethod method, hw::Topology topo)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = 8;
    cfg.batchPerGpu = 16;
    cfg.method = method;
    core::Trainer trainer(cfg, std::move(topo));
    return trainer.run();
}

/** Run on a registered platform (the uniform-vs-stock comparison is
 * just the dgx1v vs dgx1v-uniform platform axis). */
core::TrainReport
runPlat(const std::string &model, CommMethod method,
        const std::string &platform)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = 8;
    cfg.batchPerGpu = 16;
    cfg.method = method;
    cfg.platform = platform;
    return core::Trainer::simulate(cfg);
}

void
printTables()
{
    std::printf("=== Ablation: asymmetric cube-mesh vs. uniform "
                "links (equal aggregate BW, 8 GPUs, batch 16) ===\n");
    core::TextTable table({"network", "method", "cube-mesh (s)",
                           "uniform (s)", "uniform vs stock"});
    for (const char *model : {"alexnet", "resnet-50", "inception-v3"}) {
        for (CommMethod m : {CommMethod::P2P, CommMethod::NCCL}) {
            const double stock =
                runPlat(model, m, "dgx1v").epochSeconds;
            const double uniform =
                runPlat(model, m, "dgx1v-uniform").epochSeconds;
            table.addRow({model, comm::commMethodName(m),
                          core::TextTable::num(stock, 2),
                          core::TextTable::num(uniform, 2),
                          core::TextTable::num(stock / uniform, 3) +
                              "x"});
        }
    }
    std::printf("%s", table.str().c_str());

    std::printf("\n=== Degraded-link study: one NVLink at half speed "
                "(AlexNet, 8 GPUs, NCCL) ===\n");
    core::TextTable degraded({"degraded link", "epoch (s)",
                              "slowdown vs healthy"});
    const double healthy =
        runPlat("alexnet", CommMethod::NCCL, "dgx1v").epochSeconds;
    degraded.addRow({"none", core::TextTable::num(healthy, 2), "1.000x"});
    const hw::Topology probe = hw::makePlatform("dgx1v").topology;
    for (std::size_t l = 0; l < probe.links().size(); ++l) {
        const hw::Link &link = probe.links()[l];
        if (link.type != hw::LinkType::NVLink)
            continue;
        // Only report links on the 8-GPU NCCL ring's cycle; others
        // barely matter, which is itself informative — show a couple.
        hw::Topology topo = hw::makePlatform("dgx1v").topology;
        topo.scaleLinkBandwidth(l, 0.5);
        const double slow =
            runTopo("alexnet", CommMethod::NCCL, std::move(topo))
                .epochSeconds;
        degraded.addRow(
            {probe.nodeLabel(link.a) + "-" + probe.nodeLabel(link.b),
             core::TextTable::num(slow, 2),
             core::TextTable::num(slow / healthy, 3) + "x"});
    }
    std::printf("%s", degraded.str().c_str());
    std::printf(
        "\nReading: links on the collective ring hurt when degraded "
        "while off-ring links are nearly free — and evening out the "
        "asymmetric link widths changes little, because the routing "
        "and collectives already steer around the thin links.\n");
}

} // namespace

int
main()
{
    printTables();
    return 0;
}
