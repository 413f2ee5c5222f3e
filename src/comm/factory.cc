#include "comm/factory.hh"

#include "comm/hierarchical_communicator.hh"
#include "comm/nccl_communicator.hh"
#include "comm/p2p_parameter_server.hh"
#include "sim/logging.hh"

namespace dgxsim::comm {

const char *
commMethodName(CommMethod method)
{
    return method == CommMethod::P2P ? "p2p" : "nccl";
}

CommMethod
parseCommMethod(const std::string &name)
{
    if (name == "p2p" || name == "device")
        return CommMethod::P2P;
    if (name == "nccl")
        return CommMethod::NCCL;
    sim::fatal("unknown comm method '", name, "' (want p2p or nccl)");
}

std::unique_ptr<Communicator>
makeCommunicator(CommMethod method, CommContext ctx, CommConfig cfg)
{
    if (ctx.nodes > 1) {
        // Multi-node GPU sets automatically get the two-level
        // schedule: the selected method runs intra-node, the
        // ring/tree inter phase runs between the node roots.
        return std::make_unique<HierarchicalCommunicator>(
            method, std::move(ctx), cfg);
    }
    if (method == CommMethod::P2P) {
        return std::make_unique<P2pParameterServer>(std::move(ctx),
                                                    cfg);
    }
    return std::make_unique<NcclCommunicator>(std::move(ctx), cfg);
}

} // namespace dgxsim::comm
