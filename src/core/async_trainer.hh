/**
 * @file
 * Asynchronous-SGD training simulator (extension of paper Sec. II-B).
 *
 * The paper describes ASGD as the alternative to the synchronous
 * schedule it profiles: each GPU pushes its gradients to the
 * parameter server and pulls fresh weights without waiting for the
 * other workers, trading the well-known delayed-gradient problem for
 * the removal of the synchronization barrier. This trainer simulates
 * exactly that protocol on the same DGX-1 model and reports both the
 * throughput gain and the gradient staleness the workers experience —
 * the quantities one needs to judge the trade.
 *
 * Communication uses the P2P parameter-server path (collectives are
 * inherently synchronous, so the NCCL method does not apply).
 *
 * The trainer is the ParallelismMode::AsyncPs strategy over the
 * shared core::Machine substrate (see core/trainer_base.hh); memory
 * follows the same data-parallel replica layout as the synchronous
 * trainer, so impossible configurations report oom instead of
 * silently "fitting".
 */

#ifndef DGXSIM_CORE_ASYNC_TRAINER_HH
#define DGXSIM_CORE_ASYNC_TRAINER_HH

#include <vector>

#include "core/fp_bp_schedule.hh"
#include "core/trainer_base.hh"

namespace dgxsim::core {

/** The asynchronous parameter-server strategy; built by
 * TrainerBase::make. */
class AsyncTrainer : public TrainerBase
{
  public:
    ~AsyncTrainer() override;

  private:
    friend class TrainerBase;
    AsyncTrainer(TrainConfig cfg, std::optional<dnn::Network> net,
                 std::optional<hw::Topology> topo);

    void planMemory(TrainReport &report) override;
    /**
     * Start cfg.asyncItersPerWorker steady-state iterations per
     * worker; the report extrapolates them to the configured dataset.
     */
    void kickOff() override;
    void fillReport(TrainReport &report, sim::Tick end) const override;

    /** Start (or continue) one worker's push-pull loop. */
    void workerIteration(std::size_t g);

    /** Gradients from worker @p g landed on the server. */
    void applyPush(std::size_t g);

    /** Per GPU: compute stream and cost table (no markers). */
    std::vector<FpBpTarget> fpBp_;
    std::vector<cuda::HostThread *> workers_;
    cuda::Stream *serverStream_ = nullptr; ///< on GPU0

    std::vector<int> itersLeft_;
    std::vector<std::uint64_t> pulledVersion_;
    std::uint64_t version_ = 0; ///< server update counter
    std::uint64_t pushes_ = 0;
    std::uint64_t stalenessSum_ = 0;
    int maxStaleness_ = 0;
    std::uint64_t imagesDone_ = 0;
};

} // namespace dgxsim::core

#endif // DGXSIM_CORE_ASYNC_TRAINER_HH
