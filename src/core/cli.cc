#include "core/cli.hh"

#include <charconv>
#include <limits>
#include <optional>

#include "comm/compression.hh"
#include "comm/scheduler.hh"
#include "hw/cluster.hh"
#include "hw/platform.hh"
#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::core::cli {

namespace {

/**
 * @return all of @p text as a base-10 T (no sign for unsigned T, no
 * whitespace); fatal naming --@p name on garbage or overflow.
 */
template <typename T>
T
parseWhole(const std::string &name, const std::string &text,
           const char *expected)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range) {
        sim::fatal("--", name, " value '", text, "' is out of range [",
                   std::numeric_limits<T>::min(), ", ",
                   std::numeric_limits<T>::max(), "]");
    }
    if (ec != std::errc() || ptr != end)
        sim::fatal("--", name, " expects ", expected, ", got '", text, "'");
    return value;
}

} // namespace

Args
Args::parse(const std::vector<std::string> &tokens)
{
    Args args;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        if (token.rfind("--", 0) != 0) {
            args.pos_.push_back(token);
            continue;
        }
        const std::string body = token.substr(2);
        const std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            args.opts_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--key value` unless the next token is another option.
        if (i + 1 < tokens.size() &&
            tokens[i + 1].rfind("--", 0) != 0) {
            args.opts_[body] = tokens[++i];
        } else {
            args.opts_[body] = "";
        }
    }
    return args;
}

bool
Args::has(const std::string &name) const
{
    return opts_.count(name) != 0;
}

std::string
Args::get(const std::string &name, const std::string &fallback) const
{
    auto it = opts_.find(name);
    return it == opts_.end() ? fallback : it->second;
}

int
Args::getInt(const std::string &name, int fallback) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        return fallback;
    return parseWhole<int>(name, it->second, "an integer");
}

double
Args::getDouble(const std::string &name, double fallback) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        return fallback;
    const std::optional<double> value = sim::parseFinite(it->second);
    if (!value)
        sim::fatal("--", name, " expects a finite number, got '",
                   it->second, "'");
    return *value;
}

std::uint64_t
Args::getBytes(const std::string &name, std::uint64_t fallback) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        return fallback;
    // A k/m/g suffix (either case) scales by 2^10/2^20/2^30.
    std::string digits = it->second;
    const std::size_t unit = digits.empty()
                                 ? std::string::npos
                                 : std::string("kKmMgG").find(digits.back());
    const int shift = unit == std::string::npos ? 0 : 10 * int(unit / 2 + 1);
    if (shift)
        digits.pop_back();
    const auto value = parseWhole<std::uint64_t>(
        name, digits, "a byte count (optionally with a k/m/g suffix)");
    if (value > std::numeric_limits<std::uint64_t>::max() >> shift)
        sim::fatal("--", name, " ", it->second, " overflows 64 bits");
    return value << shift;
}

std::vector<int>
Args::getIntList(const std::string &name,
                 const std::vector<int> &fallback) const
{
    if (!has(name))
        return fallback;
    std::vector<int> out;
    for (const std::string &item : getList(name, {})) {
        out.push_back(
            parseWhole<int>(name, item, "comma-separated integers"));
    }
    return out;
}

std::vector<std::string>
Args::getList(const std::string &name,
              const std::vector<std::string> &fallback) const
{
    auto it = opts_.find(name);
    if (it == opts_.end())
        return fallback;
    std::vector<std::string> out;
    std::string item;
    for (char c : it->second + ",") {
        if (c == ',') {
            if (!item.empty()) {
                out.push_back(item);
                item.clear();
            }
        } else {
            item.push_back(c);
        }
    }
    if (out.empty())
        sim::fatal("--", name, " expects at least one value");
    return out;
}

TrainConfig
baseConfigFromArgs(const Args &args)
{
    TrainConfig cfg;
    if (args.has("images")) {
        cfg.datasetImages = parseWhole<std::uint64_t>(
            "images", args.get("images"), "a positive integer");
    }
    if (cfg.datasetImages == 0)
        sim::fatal("--images must be positive");
    cfg.useTensorCores = args.has("tensor-cores");
    cfg.overlapBpWu = args.has("overlap");
    cfg.useAllReduce = args.has("allreduce");
    cfg.bucketFusionMB = args.getDouble("fusion-mb", 0.0);
    // The trainer casts the fusion threshold to a 64-bit byte count.
    if (!(cfg.bucketFusionMB >= 0 && cfg.bucketFusionMB * 1e6 < 0x1p64)) {
        sim::fatal("--fusion-mb must be >= 0 and under 2^64 bytes, got ",
                   cfg.bucketFusionMB);
    }
    cfg.audit = args.has("audit");
    // --mode, --platform and --microbatches are parsed by
    // configFromArgs (scalar commands) or by the grid commands
    // themselves (campaign sweeps list-valued modes/platforms/
    // microbatch counts).
    cfg.asyncItersPerWorker = args.getInt("async-iters", 30);
    if (args.has("rings"))
        cfg.commConfig.ncclRings = args.getInt("rings", 1);
    // --scheduler is parsed by configFromArgs (scalar commands) or
    // by the grid commands (campaign sweeps list-valued schedulers);
    // the chunk/credit knobs are non-grid template values.
    cfg.commConfig.partitionBytes = args.getBytes(
        "partition-bytes", comm::kDefaultPartitionBytes);
    if (cfg.commConfig.partitionBytes == 0)
        sim::fatal("--partition-bytes must be positive");
    cfg.commConfig.creditBytes =
        args.getBytes("credit-bytes", comm::kDefaultCreditBytes);
    if (cfg.commConfig.creditBytes == 0)
        sim::fatal("--credit-bytes must be positive");
    // --compression is parsed by configFromArgs / the grid commands;
    // the kept-element ratio is a non-grid template value.
    cfg.commConfig.compressRatio =
        args.getDouble("compress-ratio", 0.01);
    comm::checkCompressRatio(cfg.commConfig.compressRatio,
                             "--compress-ratio");
    if (args.has("p100"))
        cfg.gpuSpec = hw::GpuSpec::pascalP100();
    return cfg;
}

TrainConfig
configFromArgs(const Args &args)
{
    TrainConfig cfg = baseConfigFromArgs(args);
    cfg.model = args.get("model", "resnet-50");
    cfg.numGpus = args.getInt("gpus", 4);
    cfg.batchPerGpu = args.getInt("batch", 16);
    cfg.method = comm::parseCommMethod(args.get("method", "nccl"));
    if (args.has("mode"))
        cfg.mode = parseParallelismMode(args.get("mode"));
    cfg.microbatches = args.getInt("microbatches", 0);
    if (cfg.microbatches < 0)
        sim::fatal("--microbatches must be non-negative, got ",
                   cfg.microbatches);
    if (args.has("platform"))
        cfg.platform = args.get("platform");
    cfg.nodes = args.getInt("nodes", 1);
    if (cfg.nodes < 1)
        sim::fatal("--nodes must be positive, got ", cfg.nodes);
    if (args.has("interconnect")) {
        cfg.interconnect = args.get("interconnect");
        if (!hw::isInterconnect(cfg.interconnect)) {
            sim::fatal("unknown --interconnect '", cfg.interconnect,
                       "'",
                       sim::didYouMean(cfg.interconnect,
                                       hw::interconnectNames()),
                       " (run `dgxprof interconnects`)");
        }
    }
    if (args.has("netalgo"))
        cfg.netAlgo = comm::parseNetAlgo(args.get("netalgo"));
    if (args.has("scheduler")) {
        cfg.commConfig.scheduler =
            comm::parseScheduler(args.get("scheduler"));
    }
    if (args.has("compression")) {
        cfg.commConfig.compression =
            comm::parseCompressor(args.get("compression"));
    }
    // Validate up front: an unknown platform fatals inside
    // makePlatform, and a GPU count beyond the platform's capacity
    // gets a clear message here instead of indexing surprises later.
    const hw::Platform plat = hw::makePlatform(cfg.platform);
    if (cfg.numGpus < 1 || cfg.numGpus > plat.topology.numGpus()) {
        sim::fatal("--gpus ", cfg.numGpus, " is out of range: "
                   "platform '", cfg.platform, "' has ",
                   plat.topology.numGpus(), " GPUs");
    }
    return cfg;
}

} // namespace dgxsim::core::cli
