/**
 * @file
 * Helpers for reading user input. Did-you-mean suggestions for CLI
 * name lookups: registry-backed names (schedulers, net algos,
 * interconnects) fail fast on a typo, and attaching the closest
 * candidate turns "unknown name" into an actionable message. And the
 * one parse for every double a user types or loads (CLI options,
 * what-if values, record JSON), which admits finite numbers only.
 */

#ifndef DGXSIM_SIM_SUGGEST_HH
#define DGXSIM_SIM_SUGGEST_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dgxsim::sim {

/**
 * @return the candidate closest to @p got by edit distance, or ""
 * when nothing is close enough to be a plausible typo (distance
 * greater than half the candidate's length).
 */
std::string closestName(const std::string &got,
                        const std::vector<std::string> &candidates);

/**
 * @return " (did you mean 'X'?)" for the closest candidate, or ""
 * when no candidate is plausible. Append to fatal messages.
 */
std::string didYouMean(const std::string &got,
                       const std::vector<std::string> &candidates);

/**
 * @return all of @p text as a finite double (an optional '-',
 * digits, an optional fraction and exponent; no '+', whitespace or
 * trailing text), or nullopt otherwise. NaN, infinities and
 * magnitudes a double cannot hold (1e400) are nullopt, so a bad
 * value never reaches a comparison it would slip past.
 */
std::optional<double> parseFinite(std::string_view text);

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_SUGGEST_HH
