/**
 * @file
 * Regression gating against a committed golden baseline.
 *
 * A baseline is a JSON campaign result (results/baseline.json in
 * this repository). checkAgainstBaseline re-runs every configuration
 * the baseline records and compares: every numeric outcome of the
 * field table (record.hh) that both records serialize within a
 * relative tolerance, OOM verdicts exactly, and the determinism
 * digest bit-for-bit. Any drift means the simulated numbers moved —
 * the silent failure mode a reproduction must turn into a loud one.
 * Intentional model changes refresh the baselines instead
 * (tools/refresh_baseline.sh) so the diff is reviewed like code.
 */

#ifndef DGXSIM_CAMPAIGN_CHECK_HH
#define DGXSIM_CAMPAIGN_CHECK_HH

#include <string>
#include <vector>

#include "campaign/record.hh"

namespace dgxsim::campaign {

/** Tunables for one baseline check. */
struct CheckOptions
{
    /** Allowed relative drift of the outcome metrics, in percent. */
    double tolerancePct = 0.0;
    /** Thread-pool width for the re-run. */
    int jobs = 1;
    /**
     * Skip the digest comparison (the drift tolerance still applies).
     * For comparing across intentional event-stream changes. The
     * re-runs are then timing-only (core::TrainConfig::timingOnly):
     * they store no record and compute no digest.
     */
    bool skipDigest = false;
};

/** Comparison of one baseline record against its fresh re-run. */
struct RunDelta
{
    RunRecord baseline;
    RunRecord fresh;
    /** Largest relative drift across the outcome metrics (percent). */
    double maxDriftPct = 0;
    /** Name of the metric with the largest drift. */
    std::string worstMetric;
    bool digestMatch = true;
    bool oomMatch = true;
    /** True when this run is within tolerance on every front. */
    bool pass = true;
};

/** Outcome of one baseline check. */
struct CheckReport
{
    std::vector<RunDelta> deltas;
    std::size_t failures = 0;
    bool pass = true;
    /** True when digests were not gated (CheckOptions::skipDigest). */
    bool digestSkipped = false;

    /** @return a human-readable per-run drift table plus verdict. */
    std::string summary(double tolerancePct) const;
};

/**
 * Re-run every configuration in @p baseline and compare. Baseline
 * records are re-run via RunRecord::toConfig(), i.e. with default
 * values for every knob a record does not carry.
 */
CheckReport checkAgainstBaseline(const std::vector<RunRecord> &baseline,
                                 const CheckOptions &options);

/**
 * Compare @p fresh against @p baseline without re-running anything
 * (the pure comparison core; checkAgainstBaseline simulates and then
 * calls this). The two vectors must describe the same configurations
 * in the same order (fatal otherwise).
 */
CheckReport compareRecords(const std::vector<RunRecord> &baseline,
                           const std::vector<RunRecord> &fresh,
                           const CheckOptions &options);

} // namespace dgxsim::campaign

#endif // DGXSIM_CAMPAIGN_CHECK_HH
