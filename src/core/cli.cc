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

const std::string *
Args::find(std::string_view name) const
{
    auto it = opts_.find(name);
    return it == opts_.end() ? nullptr : &it->second;
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

std::vector<std::string>
Args::names() const
{
    std::vector<std::string> out;
    for (const auto &[name, value] : opts_)
        out.push_back(name);
    return out;
}

Args
Args::without(const std::string &name) const
{
    Args out = *this;
    out.opts_.erase(name);
    return out;
}

namespace {

int
readInt(const char *name, const std::string &value)
{
    return parseWhole<int>(name, value, "an integer");
}

std::string
readRegistered(const char *name, const std::string &value,
               bool (*known)(const std::string &),
               std::vector<std::string> (*names)(), const char *listing)
{
    if (!known(value)) {
        sim::fatal("unknown --", name, " '", value, "'",
                   sim::didYouMean(value, names()), " (run `dgxprof ",
                   listing, "`)");
    }
    return value;
}

// When a grid cell pins an axis: without an inter-node fabric,
// without a pipeline, or without collectives.
bool
singleNode(const TrainConfig &cell)
{
    return cell.nodes == 1;
}

bool
unstaged(const TrainConfig &cell)
{
    return cell.mode != ParallelismMode::ModelParallel &&
           cell.mode != ParallelismMode::Pipeline;
}

bool
notSync(const TrainConfig &cell)
{
    return cell.mode != ParallelismMode::SyncDp;
}

} // namespace

const std::array<AxisRow, kAxisCount> &
axes()
{
    using C = TrainConfig;
    using S = std::string;
    using V = const std::string &;
    static const std::array<AxisRow, kAxisCount> rows = {{
        {.option = "platform",
         .read = [](C &c, V v) {
             c.platform = readRegistered("platform", v, hw::isPlatform,
                                         hw::platformNames, "platforms");
         },
         .spell = [](const C &c) { return c.platform; }},
        {.option = "nodes",
         .read = [](C &c, V v) {
             c.nodes = readInt("nodes", v);
             if (c.nodes < 1)
                 sim::fatal("--nodes must be positive, got ", c.nodes);
         },
         .spell = [](const C &c) { return std::to_string(c.nodes); }},
        {.option = "interconnect",
         .read = [](C &c, V v) {
             c.interconnect =
                 readRegistered("interconnect", v, hw::isInterconnect,
                                hw::interconnectNames, "interconnects");
         },
         .spell = [](const C &c) { return c.interconnect; },
         .pinned = singleNode},
        {.option = "netalgo",
         .read = [](C &c, V v) {
             c.commConfig.netAlgo = comm::parseNetAlgo(v);
         },
         .spell = [](const C &c) -> S {
             return comm::netAlgoName(c.commConfig.netAlgo);
         },
         .pinned = singleNode},
        {.option = "mode",
         .read = [](C &c, V v) { c.mode = parseParallelismMode(v); },
         .spell = [](const C &c) -> S { return parallelismModeName(c.mode); }},
        // An unknown model fails where its network is built, so a
        // --model-file run can carry its own name.
        {.option = "model",
         .read = [](C &c, V v) { c.model = v; },
         .spell = [](const C &c) { return c.model; }},
        // The range check needs the platform (checkGpusFit).
        {.option = "gpus",
         .read = [](C &c, V v) { c.numGpus = readInt("gpus", v); },
         .spell = [](const C &c) { return std::to_string(c.numGpus); },
         .scalarDefault = "4",
         .gridDefault = {"1", "2", "4", "8"}},
        {.option = "batch",
         .gridOption = "batches",
         .read = [](C &c, V v) { c.batchPerGpu = readInt("batch", v); },
         .spell = [](const C &c) { return std::to_string(c.batchPerGpu); },
         .gridDefault = {"16", "32", "64"}},
        {.option = "microbatches",
         .read = [](C &c, V v) {
             c.microbatches = readInt("microbatches", v);
             if (c.microbatches < 0) {
                 sim::fatal("--microbatches must be non-negative, got ",
                            c.microbatches);
             }
         },
         .spell = [](const C &c) { return std::to_string(c.microbatches); },
         .pinned = unstaged},
        {.option = "method",
         .read = [](C &c, V v) { c.method = comm::parseCommMethod(v); },
         .spell = [](const C &c) -> S {
             return comm::commMethodName(c.method);
         },
         .pinned = notSync,
         .pinValue = "p2p",
         .gridDefault = {"p2p", "nccl"}},
        {.option = "scheduler",
         .read = [](C &c, V v) {
             c.commConfig.scheduler = comm::parseScheduler(v);
         },
         .spell = [](const C &c) -> S {
             return comm::schedulerName(c.commConfig.scheduler);
         },
         .pinned = notSync,
         .pinValue = "fifo"},
        {.option = "compression",
         .read = [](C &c, V v) {
             c.commConfig.compression = comm::parseCompressor(v);
         },
         .spell = [](const C &c) -> S {
             return comm::compressorName(c.commConfig.compression);
         },
         .pinned = notSync,
         .pinValue = "none"},
    }};
    return rows;
}

std::vector<std::string>
axisValues(const Args &args, const AxisRow &row,
           const std::vector<std::string> &fallback)
{
    if (row.gridOption && args.has(row.gridOption))
        return args.getList(row.gridOption, {});
    return args.getList(row.option, fallback);
}

void
checkGpusFit(const TrainConfig &cfg, int platformGpus)
{
    if (cfg.numGpus < 1 || cfg.numGpus > platformGpus) {
        sim::fatal("--gpus ", cfg.numGpus, " is out of range: platform '",
                   cfg.platform, "' has ", platformGpus, " GPUs");
    }
}

const std::vector<std::string> &
baseOptions()
{
    static const std::vector<std::string> names = {
        "images",      "tensor-cores",    "overlap",
        "allreduce",   "fusion-mb",       "audit",
        "async-iters", "rings",           "partition-bytes",
        "credit-bytes", "compress-ratio", "p100"};
    return names;
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
    cfg.asyncItersPerWorker = args.getInt("async-iters", 30);
    cfg.commConfig.ncclRings = args.getInt("rings", 1);
    // The NCCL communicator builds one ring or two.
    if (cfg.commConfig.ncclRings != 1 && cfg.commConfig.ncclRings != 2)
        sim::fatal("--rings must be 1 or 2, got ", cfg.commConfig.ncclRings);
    cfg.commConfig.partitionBytes = args.getBytes(
        "partition-bytes", comm::kDefaultPartitionBytes);
    if (cfg.commConfig.partitionBytes == 0)
        sim::fatal("--partition-bytes must be positive");
    cfg.commConfig.creditBytes =
        args.getBytes("credit-bytes", comm::kDefaultCreditBytes);
    if (cfg.commConfig.creditBytes == 0)
        sim::fatal("--credit-bytes must be positive");
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
    for (const AxisRow &row : axes()) {
        if (const std::string *value = args.find(row.option))
            row.read(cfg, *value);
        else if (row.scalarDefault)
            row.read(cfg, row.scalarDefault);
    }
    // The one platform built: a GPU count beyond its capacity fails
    // here instead of indexing surprises later.
    checkGpusFit(cfg, hw::makePlatform(cfg.platform).topology.numGpus());
    return cfg;
}

} // namespace dgxsim::core::cli
