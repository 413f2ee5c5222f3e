/**
 * @file
 * Pluggable gradient-bucket scheduler for the communication layer.
 *
 * What gets sent, when, and in what pieces is a policy, not an
 * emergent property of per-layer FIFO bucket flushes. A Scheduler
 * owns the queue of submitted collectives, optionally splits each one
 * into partition-sized chunks, and decides which chunk the
 * communicator may put on the wire next under a credit-based
 * in-flight window — the ByteScheduler/P3 design, reduced to its
 * deterministic core so digests and baselines stay reproducible.
 *
 * Three policies ship:
 *
 *  - `fifo`        bit-exact replay of the legacy op queue: whole
 *                  buckets, submission order, one collective in
 *                  flight (or free streaming on pipelined
 *                  communicators such as NCCL).
 *  - `priority`    whole buckets reordered by (priority, size):
 *                  late-layer/small gradients overtake large early
 *                  ones, with a credit counter bounding the bytes in
 *                  flight so urgent buckets never wait behind a full
 *                  pipe.
 *  - `partitioned` priority scheduling over partition_bytes-sized
 *                  chunks: a large early tensor no longer monopolizes
 *                  the wire, because higher-priority work can slip in
 *                  at every chunk boundary.
 *
 * Determinism rules: ties break on submission sequence, then chunk
 * index; admission state is owned by the scheduler, never by wall
 * clock or thread timing. Chunk reassembly is audited — the bytes of
 * a bucket's chunks must sum exactly to the bucket, or the run
 * aborts (flow-conservation invariant).
 */

#ifndef DGXSIM_COMM_SCHEDULER_HH
#define DGXSIM_COMM_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "profiling/profiler.hh"
#include "sim/types.hh"

namespace dgxsim::comm {

/** The collective kinds a communicator queues. */
enum class OpKind
{
    Reduce,
    Broadcast,
    AllReduce,
    /** Point-to-point tensor copy (pipeline stage boundaries). */
    Copy,
};

/** Scheduling policy of the communication layer. */
enum class SchedulerPolicy
{
    Fifo,        ///< legacy order, whole buckets
    Priority,    ///< credit-windowed priority queue, whole buckets
    Partitioned, ///< priority queue over partition_bytes chunks
};

/** Default chunk size of the `partitioned` policy. */
constexpr sim::Bytes kDefaultPartitionBytes = sim::Bytes(4) << 20;

/** Default credit window of the non-FIFO policies. */
constexpr sim::Bytes kDefaultCreditBytes = sim::Bytes(16) << 20;

/** @return a printable name ("fifo"/"priority"/"partitioned"). */
const char *schedulerName(SchedulerPolicy policy);

/** Parse a scheduler name (fatal with a did-you-mean otherwise). */
SchedulerPolicy parseScheduler(const std::string &name);

/** One registry row, for `dgxprof schedulers`. */
struct SchedulerInfo
{
    SchedulerPolicy policy;
    const char *name;
    const char *description;
};

/** @return every registered policy with a one-line description. */
const std::vector<SchedulerInfo> &schedulerRegistry();

/** @return the registered names, in registry order. */
std::vector<std::string> schedulerNames();

/**
 * Reassembly state of one submitted collective: chunks check in here
 * as they complete, and the op's callback fires once the byte count
 * is conserved exactly.
 */
struct SchedOpState
{
    OpKind kind = OpKind::Reduce;
    sim::Bytes totalBytes = 0;
    /** Higher value = more urgent (FIFO ignores it). */
    int priority = 0;
    /** Submission sequence; the deterministic tiebreaker. */
    std::uint64_t seq = 0;
    /** Fires once every chunk has completed. */
    std::function<void()> done;
    /** Ambient cause at submit time (the issuing kvstore API). */
    profiling::CauseToken cause;
    /** Chunks not yet completed. */
    int chunksRemaining = 0;
    /** Bytes not yet completed (flow-conservation audit). */
    sim::Bytes bytesRemaining = 0;
};

/** One admitted unit of wire work. */
struct SchedChunk
{
    sim::Bytes bytes = 0;
    /** Chunk index within its op (0 for unpartitioned ops). */
    int index = 0;
    /**
     * Admission sequence, unique per scheduler instance. Non-FIFO
     * communicators that may run chunks concurrently use it to give
     * each chunk its own profiler lane.
     */
    std::uint64_t tag = 0;
    std::shared_ptr<SchedOpState> op;
};

/** Structural limits the owning communicator imposes. */
struct SchedulerLimits
{
    /**
     * The communicator streams collectives internally (NCCL hop
     * gates): FIFO then admits everything immediately, matching the
     * legacy pipelined pump.
     */
    bool pipelined = false;
    /**
     * Hard cap on concurrently in-flight chunks (0 = unlimited).
     * The hierarchical communicator's lock-step rounds require 1.
     */
    int maxInFlightChunks = 0;
};

/**
 * Owns the pending-collective queue of one communicator. Not a
 * simulation actor itself: the communicator calls next() from its
 * pump loop and finishChunk() from chunk completions, so all policy
 * decisions happen at deterministic event boundaries.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** @return the policy's registry name. */
    virtual const char *name() const = 0;

    /** Queue one collective, splitting it into chunks per policy. */
    void submit(OpKind kind, sim::Bytes bytes, int priority,
                std::function<void()> done,
                profiling::CauseToken cause);

    /**
     * Admit the next chunk under the policy's ordering and credit
     * window. @return false when nothing is admissible (queue empty
     * or window full).
     */
    bool next(SchedChunk &out);

    /**
     * Account a completed chunk and return credit to the window.
     * @return true when the chunk's op is fully reassembled — the
     * caller then fires the op's callback. Fatal if completed chunk
     * bytes ever fail to sum to the op's total.
     */
    bool finishChunk(const SchedChunk &chunk);

    /** @return true when nothing is queued or in flight. */
    bool idle() const { return queuedChunks_ == 0 && inFlightChunks_ == 0; }

    /** @return payload bytes admitted but not yet finished. */
    sim::Bytes inFlightBytes() const { return inFlightBytes_; }

  protected:
    explicit Scheduler(SchedulerLimits limits) : limits_(limits) {}

    /** Split @p op into queued chunks (policy-specific). */
    virtual void enqueueChunks(std::shared_ptr<SchedOpState> op) = 0;

    /** Pop the policy's next chunk; @return false when empty. */
    virtual bool popChunk(SchedChunk &out) = 0;

    /** @return true when the credit window admits another chunk. */
    virtual bool windowOpen() const = 0;

    SchedulerLimits limits_;
    int queuedChunks_ = 0;
    int inFlightChunks_ = 0;
    sim::Bytes inFlightBytes_ = 0;

  private:
    std::uint64_t nextSeq_ = 0;
    std::uint64_t nextTag_ = 0;
};

/**
 * Construct the scheduler implementing @p policy. @p partition_bytes
 * is the chunk size of `partitioned` (must be positive);
 * @p credit_bytes bounds the in-flight window of the non-FIFO
 * policies (0 = serialize; at least one chunk is always admitted).
 */
std::unique_ptr<Scheduler> makeScheduler(SchedulerPolicy policy,
                                         sim::Bytes partition_bytes,
                                         sim::Bytes credit_bytes,
                                         SchedulerLimits limits);

} // namespace dgxsim::comm

#endif // DGXSIM_COMM_SCHEDULER_HH
