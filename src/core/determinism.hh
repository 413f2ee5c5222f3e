/**
 * @file
 * Determinism harness: the simulator must be a pure function of its
 * configuration. Two back-to-back runs of the same TrainConfig have
 * to produce bit-identical event histories — same kernel, copy and
 * API record streams, same final clock, same per-link byte counts.
 * The harness runs a configuration twice and compares the
 * order-sensitive digests (TrainReport::digest).
 *
 * A digest mismatch means some scheduling decision depended on
 * run-varying state (address-based hashing, unstable container
 * iteration, real time, uninitialized reads) — exactly the class of
 * bug that silently invalidates profile comparisons.
 */

#ifndef DGXSIM_CORE_DETERMINISM_HH
#define DGXSIM_CORE_DETERMINISM_HH

#include <cstdint>
#include <string>

#include "core/train_config.hh"

namespace dgxsim::core {

/** Outcome of one double-run determinism check. */
struct DeterminismCheck
{
    std::uint64_t firstDigest = 0;
    std::uint64_t secondDigest = 0;
    /** True when either run hit OOM (digests then cover no run). */
    bool oom = false;
    /** True when the two digests match (or both runs OOMed alike). */
    bool deterministic = false;

    /** @return a one-line human-readable verdict. */
    std::string summary() const;
};

/**
 * Simulate @p cfg once and return its digest. Convenience wrapper
 * around TrainerBase::simulate for callers that only want the digest.
 */
std::uint64_t runDigest(const TrainConfig &cfg);

/**
 * Run @p cfg twice back to back and compare digests. The config is
 * taken by value: both runs start from identical inputs.
 */
DeterminismCheck checkDeterminism(TrainConfig cfg);

} // namespace dgxsim::core

#endif // DGXSIM_CORE_DETERMINISM_HH
