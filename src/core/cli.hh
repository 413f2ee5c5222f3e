/**
 * @file
 * Minimal command-line parsing for the dgxprof tool: positional
 * arguments plus `--key value` / `--key=value` options and boolean
 * flags. Lives in the library so it is unit-testable.
 */

#ifndef DGXSIM_CORE_CLI_HH
#define DGXSIM_CORE_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/train_config.hh"

namespace dgxsim::core::cli {

/** Parsed command line. */
class Args
{
  public:
    /**
     * Parse tokens (argv[1..]). `--key value` and `--key=value` both
     * set options; a `--key` followed by another option or nothing
     * becomes a boolean flag. Everything else is positional.
     */
    static Args parse(const std::vector<std::string> &tokens);

    /** @return positional arguments in order. */
    const std::vector<std::string> &positional() const { return pos_; }

    /** @return true if --name was given (with or without a value). */
    bool has(const std::string &name) const;

    /** @return the option's value or @p fallback. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** @return the option parsed as int (fatal on garbage or
     * overflow). */
    int getInt(const std::string &name, int fallback) const;

    /** @return the option parsed as a finite double (fatal on
     * garbage, NaN or infinity). */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * @return the option parsed as a byte count. Accepts a plain
     * integer or a k/m/g suffix (powers of 1024), e.g. "4m" -> 4 MiB;
     * fatal on a sign or a count past 64 bits.
     */
    std::uint64_t getBytes(const std::string &name,
                           std::uint64_t fallback) const;

    /**
     * @return a comma-separated option as an int list, e.g.
     * "--gpus 1,2,4" -> {1,2,4} (fatal on garbage or overflow).
     */
    std::vector<int> getIntList(const std::string &name,
                                const std::vector<int> &fallback) const;

    /**
     * @return a comma-separated option as a string list, e.g.
     * "--model lenet,alexnet" -> {"lenet", "alexnet"}.
     */
    std::vector<std::string>
    getList(const std::string &name,
            const std::vector<std::string> &fallback) const;

  private:
    std::vector<std::string> pos_;
    std::map<std::string, std::string> opts_;
};

/**
 * Build a TrainConfig from the non-grid options only: --images
 * --tensor-cores --overlap --allreduce --fusion-mb --audit
 * --async-iters --rings --partition-bytes --credit-bytes --p100.
 * Model, gpus, batch, method, mode, platform, microbatches and
 * scheduler keep their defaults; grid commands (campaign, sweep)
 * fill them per cell, so list-valued
 * --gpus/--batches/--method/--mode/--platform/--microbatches/
 * --scheduler never hit the scalar parsers.
 */
TrainConfig baseConfigFromArgs(const Args &args);

/**
 * Build a TrainConfig from common options: --model --gpus --batch
 * --method --mode --platform --scheduler --images --tensor-cores
 * --overlap --allreduce --fusion-mb --microbatches --async-iters.
 * Fatal when --platform is unknown or --gpus exceeds the platform's
 * GPU count.
 */
TrainConfig configFromArgs(const Args &args);

} // namespace dgxsim::core::cli

#endif // DGXSIM_CORE_CLI_HH
