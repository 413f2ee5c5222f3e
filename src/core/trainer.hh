/**
 * @file
 * The data-parallel synchronous-SGD training simulator — the paper's
 * measurement subject rebuilt as a model.
 *
 * One simulated iteration follows MXNet's engine (paper Fig. 1):
 *
 *  1. each GPU's worker thread issues the FP kernels, then the BP
 *     kernels in reverse layer order;
 *  2. as each weighted layer's gradient lands on every GPU, its
 *     bucket is pushed to the communicator (BP/WU overlap), which
 *     reduces it onto GPU0;
 *  3. GPU0 runs the SGD update kernel for the bucket and broadcasts
 *     the fresh weights;
 *  4. when every bucket has been broadcast, the iteration barrier
 *     releases the workers (synchronous SGD) and the next iteration
 *     begins.
 *
 * The run simulates a few steady-state iterations and extrapolates to
 * the epoch, exactly like per-iteration nvprof profiling does.
 *
 * The trainer is the ParallelismMode::SyncDp strategy over the
 * shared core::Machine substrate (see core/trainer_base.hh).
 */

#ifndef DGXSIM_CORE_TRAINER_HH
#define DGXSIM_CORE_TRAINER_HH

#include <memory>
#include <optional>
#include <vector>

#include "comm/factory.hh"
#include "core/trainer_base.hh"

namespace dgxsim::core {

/** Simulates one training configuration on a registered platform (or
 * a custom topology). */
class Trainer : public TrainerBase
{
  public:
    /** Train on the platform cfg.platform names (default DGX-1V). */
    explicit Trainer(TrainConfig cfg);

    /**
     * Train a user-defined network (cfg.model is ignored) on the
     * platform cfg.platform names.
     */
    Trainer(TrainConfig cfg, dnn::Network net);

    /** Train on a custom topology (ablations; cfg.platform ignored). */
    Trainer(TrainConfig cfg, hw::Topology topo);

    /**
     * Train a user-defined network (cfg.model is ignored) on a custom
     * topology; see examples/custom_network.cc.
     */
    Trainer(TrainConfig cfg, dnn::Network net, hw::Topology topo);

    ~Trainer() override;

    /**
     * Run the simulation.
     * @return the report; report.oom is set instead of throwing when
     * the configuration does not fit in GPU memory.
     */
    TrainReport run() override;

    /**
     * Convenience: simulate @p cfg on its platform with the
     * synchronous schedule (cfg.mode is ignored). Use
     * TrainerBase::simulate for mode dispatch.
     */
    static TrainReport simulate(const TrainConfig &cfg);

  private:
    /** Delegated constructor; builds cfg.model when @p net is empty. */
    Trainer(TrainConfig cfg, std::optional<dnn::Network> net,
            hw::Topology topo);

    /** Shared constructor body (streams, communicator, buckets). */
    void setup();

    struct Bucket
    {
        std::string layer;
        sim::Bytes bytes = 0;
        int arrivals = 0;  ///< per-GPU per-layer gradients landed
        int expected = 0;  ///< arrivals needed before communicating
    };

    /** Kick off iteration @p index. */
    void startIteration(int index);

    /** Issue one GPU's FP+BP work for the iteration. */
    void issueWorker(std::size_t g);

    /** A bucket's gradients are complete on one GPU. */
    void onGradientReady(std::size_t bucket_idx);

    /** Push a bucket through reduce -> update -> broadcast. */
    void pushBucket(std::size_t bucket_idx);
    void onBucketReduced(std::size_t bucket_idx);
    void onBucketBroadcast(std::size_t bucket_idx);

    /** One GPU finished BP (its compute stream drained). */
    void onWorkerBpDone(std::size_t g);

    /** One GPU observed the iteration barrier. */
    void onWorkerIterationDone(std::size_t g);

    /** All GPUs done: record times, advance or stop. */
    void finishIteration();

    std::vector<cuda::Stream *> computeStreams_;
    std::vector<cuda::HostThread *> workers_;
    cuda::Stream *updateStream_ = nullptr; ///< on GPU0
    cuda::HostThread *commThread_ = nullptr;
    cuda::HostThread *engineThread_ = nullptr;
    std::unique_ptr<comm::Communicator> comm_;

    std::vector<Bucket> buckets_;
    /** Bucket index of each weighted layer (forward order). */
    std::vector<std::size_t> bucketOfWeighted_;
    int iteration_ = 0;
    sim::Tick iterStart_ = 0;
    sim::Tick bpDoneMax_ = 0;
    int bpDoneCount_ = 0;
    std::size_t broadcastsDone_ = 0;
    int workersDone_ = 0;
    std::shared_ptr<cuda::CudaEvent> barrier_;

    /** Accumulated per-run measurements. */
    double sumIterTicks_ = 0;
    double sumFpBpTicks_ = 0;
    double sumWuTicks_ = 0;
};

} // namespace dgxsim::core

#endif // DGXSIM_CORE_TRAINER_HH
