/**
 * @file
 * Minimal command-line parsing for the dgxprof tool: positional
 * arguments plus `--key value` / `--key=value` options and boolean
 * flags. Lives in the library so it is unit-testable.
 */

#ifndef DGXSIM_CORE_CLI_HH
#define DGXSIM_CORE_CLI_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
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

    /** @return the option's value, or null when it is not given. */
    const std::string *find(std::string_view name) const;

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

    /** @return the name of every option given, in sorted order. */
    std::vector<std::string> names() const;

    /** @return a copy without option @p name. */
    Args without(const std::string &name) const;

  private:
    std::vector<std::string> pos_;
    std::map<std::string, std::string, std::less<>> opts_;
};

/** The run axes, in grid order (outermost first); indexes axes(). */
enum class Axis : std::uint8_t
{
    Platform,
    Nodes,
    Interconnect,
    NetAlgo,
    Mode,
    Model,
    Gpus,
    Batch,
    Microbatches,
    Method,
    Scheduler,
    Compression,
};

inline constexpr std::size_t kAxisCount = 12;

/**
 * One run axis, stated once for the command line, the campaign grid
 * and run records: its option, how a value is read (fatal, naming the
 * option, on a bad one; building no platform or network) and spelled
 * back, and when a grid cell pins it to one value.
 */
struct AxisRow
{
    const char *option;               ///< also `dgxprof check`'s filter
    const char *gridOption = nullptr; ///< list spelling, read first
    void (*read)(TrainConfig &cfg, const std::string &value) = nullptr;
    std::string (*spell)(const TrainConfig &cfg) = nullptr;
    bool (*pinned)(const TrainConfig &cell) = nullptr; ///< null: never
    const char *pinValue = nullptr; ///< null: the base config's value
    /** configFromArgs's value without the option; null: TrainConfig's */
    const char *scalarDefault = nullptr;
    /** A grid's values without the option; empty: the base value. */
    std::vector<std::string> gridDefault = {};
};

/** @return the axis rows, in grid order. */
const std::array<AxisRow, kAxisCount> &axes();

/** @return the row of @p axis. */
inline const AxisRow &
axisRow(Axis axis)
{
    return axes()[static_cast<std::size_t>(axis)];
}

/**
 * @return the comma-separated values given for @p row, under its grid
 * spelling first, or @p fallback when neither option is given.
 */
std::vector<std::string>
axisValues(const Args &args, const AxisRow &row,
           const std::vector<std::string> &fallback);

/** Fatal unless @p cfg's GPU count fits its platform, which has
 * @p platformGpus GPUs. */
void checkGpusFit(const TrainConfig &cfg, int platformGpus);

/** @return the options baseConfigFromArgs reads. */
const std::vector<std::string> &baseOptions();

/**
 * Build a TrainConfig from the non-grid options only (baseOptions()):
 * --images --tensor-cores --overlap --allreduce --fusion-mb --audit
 * --async-iters --rings --partition-bytes --credit-bytes
 * --compress-ratio --p100. Every axis keeps its TrainConfig default;
 * grid commands fill the axes per cell from their value lists.
 */
TrainConfig baseConfigFromArgs(const Args &args);

/**
 * Build a TrainConfig from baseConfigFromArgs plus one value per axis
 * row (axes()). Fatal when a value is bad or --gpus exceeds the
 * platform's GPU count.
 */
TrainConfig configFromArgs(const Args &args);

} // namespace dgxsim::core::cli

#endif // DGXSIM_CORE_CLI_HH
