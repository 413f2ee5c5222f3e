/**
 * @file
 * The machine-readable result of one simulated training run.
 *
 * A RunRecord is the flattened, serializable projection of a
 * core::TrainReport: the configuration axes the paper sweeps (model,
 * GPU count, per-GPU batch, communication method, dataset size) plus
 * every quantity a regression gate needs to defend — epoch and
 * iteration time, the FP+BP/WU breakdown, sync-API share, inter-GPU
 * traffic, peak memory, and the determinism digest.
 *
 * Every serialized member is described once, by one row of the field
 * table in record.cc; a row recording a run axis names its row of the
 * axis table (core::cli::axes()). key(), JSON, CSV, the drift gate of
 * `dgxprof check`, its axis filter, toConfig() and recordFromReport()
 * are loops over those tables. Serialization is deterministic: the
 * same records always produce byte-identical text, so a campaign run
 * at --jobs 8 emits the same file as --jobs 1 and a golden baseline
 * can be diffed textually.
 */

#ifndef DGXSIM_CAMPAIGN_RECORD_HH
#define DGXSIM_CAMPAIGN_RECORD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/report.hh"
#include "core/train_config.hh"

namespace dgxsim::campaign {

/**
 * Flattened, serializable result of one training simulation. Which
 * members JSON and key() carry for which record is the field table's
 * business (record.cc): each optional group is omitted at its
 * default, so every baseline written before the group existed stays
 * byte-identical.
 */
struct RunRecord
{
    // --- configuration axes (enough to re-run the simulation) ---
    std::string model;
    int gpus = 1;
    int batch = 16;
    /** "p2p" or "nccl" (comm::commMethodName). */
    std::string method = "nccl";
    /** Parallelization strategy (core::parallelismModeName). */
    std::string mode = "sync_dp";
    /** Hardware platform (hw::platformNames). */
    std::string platform = "dgx1v";
    /** Cluster nodes (hw/cluster.hh). */
    int nodes = 1;
    /** Inter-node network registry name. */
    std::string interconnect = "ib100";
    /** Inter-node all-reduce schedule, "ring" or "tree". */
    std::string netAlgo = "ring";
    /** Gradient-bucket scheduler (comm::schedulerName). */
    std::string scheduler = "fifo";
    /** Partitioned-chunk size. */
    std::uint64_t partitionBytes = comm::kDefaultPartitionBytes;
    /** Priority credit window. */
    std::uint64_t creditBytes = comm::kDefaultCreditBytes;
    /** Gradient compressor (comm::compressorName). */
    std::string compression = "none";
    /** Kept-element fraction. */
    double compressRatio = 0.01;
    std::uint64_t images = 256000;

    // --- outcome ---
    bool oom = false;
    std::uint64_t iterations = 0;
    double epochSeconds = 0;
    double iterationSeconds = 0;
    double setupSeconds = 0;
    double fpBpSeconds = 0;
    double wuSeconds = 0;
    double syncApiFraction = 0;
    double interGpuBytesPerIter = 0;
    /** Bytes over inter-node IB links per iteration (nodes > 1). */
    double interNodeBytesPerIter = 0;
    /** Peak training-time allocation on the root GPU (bytes). */
    std::uint64_t gpu0TrainingBytes = 0;
    /** Peak training-time allocation on a worker GPU (bytes). */
    std::uint64_t gpuxTrainingBytes = 0;
    /** Pre-training (model resident) allocation (bytes). */
    std::uint64_t preTrainingBytes = 0;
    /** Order-sensitive event-stream digest (determinism contract). */
    std::uint64_t digest = 0;

    // --- async_ps-only metrics ---
    double throughputImagesPerSec = 0;
    double avgStaleness = 0;
    int maxStaleness = 0;

    // --- model_parallel / pipeline: the microbatch axis and bubble ---
    int microbatches = 0;
    double bubbleFraction = 0;

    // --- critical-path analysis (analysis::Dag), attached only when
    // analysis was requested ---
    bool hasAnalysis = false;
    /** Critical-path attribution of the measured window (seconds);
     * the four categories sum to the window makespan. */
    double cpComputeSeconds = 0;
    double cpCommSeconds = 0;
    /** Inter-node share of the critical path (0 on a single node). */
    double cpInterNodeCommSeconds = 0;
    double cpApiSeconds = 0;
    double cpIdleSeconds = 0;

    /**
     * @return "model x gpus b batch method i images" plus a token per
     * serialized non-default axis — the identity of the
     * configuration, used to match baseline and fresh records.
     */
    std::string key() const;

    /** @return the TrainConfig that reproduces this run (defaults for
     * every knob the record does not carry). */
    core::TrainConfig toConfig() const;

    bool operator==(const RunRecord &other) const = default;
};

/** @return the record projection of @p report. */
RunRecord recordFromReport(const core::TrainReport &report);

/**
 * @return the records as a JSON document:
 * {"version": 1, "records": [...]}. Deterministic byte-for-byte;
 * doubles use %.17g so parsing round-trips exactly.
 */
std::string recordsToJson(const std::vector<RunRecord> &records);

/**
 * Parse a document produced by recordsToJson (or a hand-edited
 * baseline). Throws sim::FatalError on malformed input, an
 * unsupported version, a member of the wrong type, a missing member
 * the record's axes call for, or an integer member that is not a
 * whole number in its type's range; the error names the record index
 * and the member.
 */
std::vector<RunRecord> recordsFromJson(const std::string &text);

/** @return the records as CSV: a header row, then one column per
 * field-table row. Deterministic. */
std::string recordsToCsv(const std::vector<RunRecord> &records);

/** Calls @p fn(name, baseline value, fresh value) for every numeric
 * outcome both records serialize, in field-table order. */
void forEachMetric(
    const RunRecord &baseline, const RunRecord &fresh,
    const std::function<void(const char *, double, double)> &fn);

/** Keep the records whose axes are listed by the matching `dgxprof
 * check` flags in @p args (--model, --gpus, --mode, ...), spelled as
 * a run records them: `--mode async` keeps "async_ps" rows. */
void filterRecords(std::vector<RunRecord> &records,
                   const core::cli::Args &args);

/** Write @p text to @p path (fatal on I/O failure). */
void writeFile(const std::string &path, const std::string &text);

/** Read the whole of @p path (fatal on I/O failure). */
std::string readFile(const std::string &path);

} // namespace dgxsim::campaign

#endif // DGXSIM_CAMPAIGN_RECORD_HH
