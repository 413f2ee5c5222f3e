#include "campaign/record.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <type_traits>
#include <variant>

#include "campaign/json.hh"
#include "comm/compression.hh"
#include "hw/platform.hh"
#include "sim/logging.hh"

namespace dgxsim::campaign {

namespace {

using core::cli::Axis;

/** When a member is serialized (see holds()): each optional group
 * shares a rule. */
enum class When : std::uint8_t
{
    Always,
    NotSyncDp,
    NotDefaultPlatform,
    MultiNode,
    NotFifo,
    Compressed,
    AsyncPs,
    Staged,
    OffDepth,
    Analysis,
    AnalysisMultiNode,
};

/** One serialized RunRecord member. A row with a key() slot is part
 * of the configuration; every other row is an outcome. */
struct Field
{
    /** JSON member and CSV column. */
    const char *name;
    std::variant<std::string RunRecord::*, int RunRecord::*,
                 std::uint64_t RunRecord::*, double RunRecord::*,
                 bool RunRecord::*>
        member;
    When when = When::Always;
    /** Position of the key() token, or -1 for an outcome. */
    int keySlot = -1;
    /** Text before the value in the key() token ("x" in "x4"). */
    const char *keyPrefix = "";
    /** Condition for the key() token on top of `when`. */
    When keyWhen = When::Always;
    /** The run axis (core::cli::axes()) the member records, if any. */
    std::optional<Axis> axis = std::nullopt;
    /** Written as 16 hex digits in a JSON string (the digest). */
    bool hex = false;
    /** JSON continues on a new line after this member. */
    bool lineBreak = false;
};

/**
 * The field table: every serialized RunRecord member once, in JSON
 * and CSV order. An optional group is omitted at its default so every
 * baseline written before the group existed stays byte-identical; the
 * key() slots give the token order every committed key uses.
 */
constexpr Field kFields[] = {
    // --- axes ---
    {.name = "model", .member = &RunRecord::model, .keySlot = 0,
     .axis = Axis::Model},
    {.name = "gpus", .member = &RunRecord::gpus, .keySlot = 1,
     .keyPrefix = "x", .axis = Axis::Gpus},
    {.name = "batch", .member = &RunRecord::batch, .keySlot = 2,
     .keyPrefix = "b", .axis = Axis::Batch},
    {.name = "method", .member = &RunRecord::method, .keySlot = 3,
     .axis = Axis::Method},
    {.name = "mode", .member = &RunRecord::mode, .when = When::NotSyncDp,
     .keySlot = 5, .axis = Axis::Mode},
    {.name = "platform", .member = &RunRecord::platform,
     .when = When::NotDefaultPlatform, .keySlot = 7,
     .axis = Axis::Platform},
    {.name = "nodes", .member = &RunRecord::nodes, .when = When::MultiNode,
     .keySlot = 8, .keyPrefix = "n", .axis = Axis::Nodes},
    {.name = "interconnect", .member = &RunRecord::interconnect,
     .when = When::MultiNode, .keySlot = 9, .axis = Axis::Interconnect},
    {.name = "net_algo", .member = &RunRecord::netAlgo,
     .when = When::MultiNode, .keySlot = 10, .axis = Axis::NetAlgo},
    {.name = "scheduler", .member = &RunRecord::scheduler,
     .when = When::NotFifo, .keySlot = 11, .axis = Axis::Scheduler},
    {.name = "partition_bytes", .member = &RunRecord::partitionBytes,
     .when = When::NotFifo, .keySlot = 12, .keyPrefix = "pb"},
    {.name = "credit_bytes", .member = &RunRecord::creditBytes,
     .when = When::NotFifo, .keySlot = 13, .keyPrefix = "cb"},
    {.name = "compression", .member = &RunRecord::compression,
     .when = When::Compressed, .keySlot = 14, .axis = Axis::Compression},
    {.name = "compress_ratio", .member = &RunRecord::compressRatio,
     .when = When::Compressed, .keySlot = 15, .keyPrefix = "r"},
    {.name = "images", .member = &RunRecord::images, .keySlot = 4,
     .keyPrefix = "i", .lineBreak = true},
    // --- outcomes ---
    {.name = "oom", .member = &RunRecord::oom},
    {.name = "iterations", .member = &RunRecord::iterations},
    {.name = "epoch_s", .member = &RunRecord::epochSeconds},
    {.name = "iteration_s", .member = &RunRecord::iterationSeconds,
     .lineBreak = true},
    {.name = "setup_s", .member = &RunRecord::setupSeconds},
    {.name = "fpbp_s", .member = &RunRecord::fpBpSeconds},
    {.name = "wu_s", .member = &RunRecord::wuSeconds, .lineBreak = true},
    {.name = "sync_api_fraction", .member = &RunRecord::syncApiFraction},
    {.name = "inter_gpu_bytes_per_iter",
     .member = &RunRecord::interGpuBytesPerIter, .lineBreak = true},
    {.name = "inter_node_bytes_per_iter",
     .member = &RunRecord::interNodeBytesPerIter, .when = When::MultiNode,
     .lineBreak = true},
    {.name = "throughput_img_s", .member = &RunRecord::throughputImagesPerSec,
     .when = When::AsyncPs},
    {.name = "avg_staleness", .member = &RunRecord::avgStaleness,
     .when = When::AsyncPs},
    {.name = "max_staleness", .member = &RunRecord::maxStaleness,
     .when = When::AsyncPs, .lineBreak = true},
    // The microbatch axis joins the key only off its historical
    // default (== gpus): every model_parallel row predating the axis
    // ran exactly gpus microbatches.
    {.name = "microbatches", .member = &RunRecord::microbatches,
     .when = When::Staged, .keySlot = 6, .keyPrefix = "ub",
     .keyWhen = When::OffDepth, .axis = Axis::Microbatches},
    {.name = "bubble_fraction", .member = &RunRecord::bubbleFraction,
     .when = When::Staged, .lineBreak = true},
    {.name = "cp_compute_s", .member = &RunRecord::cpComputeSeconds,
     .when = When::Analysis},
    {.name = "cp_comm_s", .member = &RunRecord::cpCommSeconds,
     .when = When::Analysis},
    {.name = "cp_inter_node_comm_s",
     .member = &RunRecord::cpInterNodeCommSeconds,
     .when = When::AnalysisMultiNode},
    {.name = "cp_api_s", .member = &RunRecord::cpApiSeconds,
     .when = When::Analysis},
    {.name = "cp_idle_s", .member = &RunRecord::cpIdleSeconds,
     .when = When::Analysis, .lineBreak = true},
    {.name = "mem_pre_bytes", .member = &RunRecord::preTrainingBytes},
    {.name = "mem_gpu0_bytes", .member = &RunRecord::gpu0TrainingBytes},
    {.name = "mem_gpux_bytes", .member = &RunRecord::gpuxTrainingBytes,
     .lineBreak = true},
    {.name = "digest", .member = &RunRecord::digest, .hex = true},
};

constexpr std::size_t kFieldCount = std::size(kFields);
static_assert(kFieldCount <= 64, "presence is tracked in 64 bits");
static_assert(std::count_if(std::begin(kFields), std::end(kFields),
                            [](const Field &f) {
                                return f.axis && f.member.index() < 2;
                            }) == core::cli::kAxisCount,
              "every run axis is recorded once, as a string or an int");

bool
holds(When when, const RunRecord &r)
{
    switch (when) {
    case When::Always:
        return true;
    case When::NotSyncDp:
        return r.mode != "sync_dp";
    case When::NotDefaultPlatform:
        return r.platform != hw::kDefaultPlatform;
    case When::MultiNode:
        return r.nodes > 1;
    case When::NotFifo:
        return r.scheduler != "fifo";
    case When::Compressed:
        return r.compression != "none";
    case When::AsyncPs:
        return r.mode == "async_ps";
    case When::Staged:
        return r.mode == "model_parallel" || r.mode == "pipeline";
    case When::OffDepth:
        return r.microbatches > 0 && r.microbatches != r.gpus;
    case When::Analysis:
        return r.hasAnalysis;
    case When::AnalysisMultiNode:
        return r.hasAnalysis && r.nodes > 1;
    }
    return false;
}

template <typename T>
constexpr bool isString = std::is_same_v<T, std::string>;

/** @return the value of @p f in @p r as CSV and key() show it. */
std::string
text(const Field &f, const RunRecord &r)
{
    return std::visit(
        [&](auto member) -> std::string {
            const auto &v = r.*member;
            using T = std::decay_t<decltype(v)>;
            if constexpr (isString<T>) {
                return v;
            } else if constexpr (std::is_same_v<T, bool>) {
                return v ? "true" : "false";
            } else {
                char buf[32];
                if constexpr (std::is_same_v<T, double>)
                    std::snprintf(buf, sizeof(buf), "%.17g", v); // exact
                else if (f.hex)
                    std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                                  static_cast<std::uint64_t>(v));
                else
                    *std::to_chars(buf, buf + sizeof(buf) - 1, v).ptr = 0;
                return buf;
            }
        },
        f.member);
}

/** Set @p f's string or int member of @p r to @p value, as text()
 * shows it. */
void
setText(const Field &f, RunRecord &r, const std::string &value)
{
    if (const auto s = std::get_if<std::string RunRecord::*>(&f.member))
        r.**s = value;
    else
        std::from_chars(value.data(), value.data() + value.size(),
                        r.*std::get<int RunRecord::*>(f.member));
}

/** Append @p s as the body of a JSON string. */
void
appendJsonEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        const char *named = c == '"'    ? "\\\""
                            : c == '\\' ? "\\\\"
                            : c == '\n' ? "\\n"
                            : c == '\t' ? "\\t"
                            : c == '\r' ? "\\r"
                                        : nullptr;
        if (named) {
            out += named;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
}

/** Escape a CSV field (quote when it contains , " or newline). */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s)
        out += c == '"' ? std::string("\"\"") : std::string(1, c);
    return out + "\"";
}

/** Read JSON value @p v into @p f's member of @p r. */
void
readMember(const Field &f, const JsonValue &v, RunRecord &r)
{
    std::visit(
        [&](auto member) {
            auto &dst = r.*member;
            using T = std::decay_t<decltype(dst)>;
            if constexpr (isString<T>) {
                dst = v.asString();
            } else if constexpr (std::is_same_v<T, bool>) {
                dst = v.asBool();
            } else if constexpr (std::is_same_v<T, double>) {
                dst = v.asNumber();
            } else if (f.hex) {
                const std::string &s = v.asString();
                const char *end = s.data() + s.size();
                if (s.empty() || s.size() > 16 ||
                    std::from_chars(s.data(), end, dst, 16).ptr != end)
                    sim::fatal("'", s, "' is not 1-16 hex digits");
            } else {
                // The one integral reader: every whole double in
                // [0, 2^digits) converts to T exactly; anything else
                // would truncate or overflow the cast.
                constexpr int digits = std::numeric_limits<T>::digits;
                const double x = v.asNumber();
                if (!(x >= 0 && x < std::ldexp(1.0, digits) &&
                      x == std::floor(x)))
                    sim::fatal(x, " is not an integer in [0, 2^", digits,
                               ")");
                dst = static_cast<T>(x);
            }
        },
        f.member);
}

} // namespace

std::string
RunRecord::key() const
{
    std::array<std::string, 16> tokens; // by keySlot
    for (const Field &f : kFields) {
        if (f.keySlot >= 0 && holds(f.when, *this) &&
            holds(f.keyWhen, *this))
            tokens[f.keySlot] = f.keyPrefix + text(f, *this);
    }
    std::string out;
    for (const std::string &token : tokens) {
        if (!token.empty())
            out += token + ' ';
    }
    out.pop_back(); // the gpus token is never empty
    return out;
}

core::TrainConfig
RunRecord::toConfig() const
{
    core::TrainConfig cfg;
    for (const Field &f : kFields) {
        if (f.axis)
            core::cli::axisRow(*f.axis).read(cfg, text(f, *this));
    }
    cfg.commConfig.partitionBytes = partitionBytes;
    cfg.commConfig.creditBytes = creditBytes;
    cfg.commConfig.compressRatio = compressRatio;
    cfg.datasetImages = images;
    return cfg;
}

RunRecord
recordFromReport(const core::TrainReport &report)
{
    RunRecord r;
    for (const Field &f : kFields) {
        if (f.axis)
            setText(f, r, core::cli::axisRow(*f.axis).spell(report.config));
    }
    // The depth the run used: a config's 0 asks for gpus stages.
    r.microbatches = report.microbatches;
    r.partitionBytes = report.config.commConfig.partitionBytes;
    r.creditBytes = report.config.commConfig.creditBytes;
    r.compressRatio = report.config.commConfig.compressRatio;
    r.images = report.config.datasetImages;
    r.oom = report.oom;
    r.iterations = report.iterations;
    r.epochSeconds = report.epochSeconds;
    r.iterationSeconds = report.iterationSeconds;
    r.setupSeconds = report.setupSeconds;
    r.fpBpSeconds = report.fpBpSeconds;
    r.wuSeconds = report.wuSeconds;
    r.syncApiFraction = report.syncApiFraction;
    r.interGpuBytesPerIter = report.interGpuBytesPerIter;
    r.interNodeBytesPerIter = report.interNodeBytesPerIter;
    r.gpu0TrainingBytes = report.gpu0.training;
    r.gpuxTrainingBytes = report.gpux.training;
    r.preTrainingBytes = report.gpu0.preTraining;
    r.digest = report.digest;
    r.throughputImagesPerSec = report.throughputImagesPerSec;
    r.avgStaleness = report.avgStaleness;
    r.maxStaleness = report.maxStaleness;
    r.bubbleFraction = report.bubbleFraction;
    return r;
}

std::string
recordsToJson(const std::vector<RunRecord> &records)
{
    std::string out = "{\n  \"version\": 1,\n  \"records\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RunRecord &r = records[i];
        out += i == 0 ? "\n    {" : ",\n    {";
        const char *separator = "";
        for (const Field &f : kFields) {
            if (!holds(f.when, r))
                continue;
            out += separator;
            out += '"';
            out += f.name;
            out += "\": ";
            if (f.hex || std::holds_alternative<std::string RunRecord::*>(
                             f.member)) {
                out += '"';
                appendJsonEscaped(out, text(f, r));
                out += '"';
            } else {
                out += text(f, r);
            }
            separator = f.lineBreak ? ",\n     " : ", ";
        }
        out += '}';
    }
    out += records.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

std::vector<RunRecord>
recordsFromJson(const std::string &text)
{
    const JsonValue doc = JsonValue::parse(text);
    const double version = doc.numberAt("version");
    if (version != 1)
        sim::fatal("unsupported results version ", version,
                   " (this build reads version 1)");
    const std::vector<JsonValue> &array = doc.at("records").asArray();
    // Table rows in member-name order, the order a JSON object keeps.
    static const auto byName = [] {
        std::array<std::uint8_t, kFieldCount> rows{};
        std::iota(rows.begin(), rows.end(), 0);
        std::sort(rows.begin(), rows.end(), [](auto a, auto b) {
            return std::strcmp(kFields[a].name, kFields[b].name) < 0;
        });
        return rows;
    }();
    std::vector<RunRecord> records(array.size());
    for (std::size_t i = 0; i < array.size(); ++i) {
        RunRecord &r = records[i];
        // One merge pass reads every known member; unknown ones are
        // ignored.
        std::uint64_t present = 0;
        auto row = byName.begin();
        for (const auto &[name, value] : array[i].asObject()) {
            while (row != byName.end() &&
                   std::strcmp(kFields[*row].name, name.c_str()) < 0)
                ++row;
            if (row == byName.end() || name != kFields[*row].name)
                continue;
            const Field &f = kFields[*row];
            try {
                readMember(f, value, r);
            } catch (const sim::FatalError &e) {
                const std::string why = e.what(); // "fatal: ..."
                sim::fatal("record ", i, " member '", f.name,
                           "': ", why.substr(why.find(' ') + 1));
            }
            present |= std::uint64_t(1) << *row;
            // The analysis group's rule reads a flag, not an axis: a
            // present member is what sets it.
            if (f.when == When::Analysis)
                r.hasAnalysis = true;
        }
        for (std::size_t k = 0; k < kFieldCount; ++k) {
            if (!(present >> k & 1) && holds(kFields[k].when, r))
                sim::fatal("record ", i, " has no member '",
                           kFields[k].name, "'");
        }
        // The CLI's --compress-ratio rule: a ratio outside (0, 1]
        // would re-simulate a run no command line can ask for.
        if (holds(When::Compressed, r)) {
            comm::checkCompressRatio(r.compressRatio, "record ", i,
                                     " member 'compress_ratio'");
        }
    }
    return records;
}

std::string
recordsToCsv(const std::vector<RunRecord> &records)
{
    std::string out;
    for (const Field &f : kFields)
        out += std::string(f.name) + ",";
    out.back() = '\n';
    for (const RunRecord &r : records) {
        for (const Field &f : kFields)
            out += csvEscape(text(f, r)) + ",";
        out.back() = '\n';
    }
    return out;
}

void
forEachMetric(const RunRecord &baseline, const RunRecord &fresh,
              const std::function<void(const char *, double, double)> &fn)
{
    for (const Field &f : kFields) {
        if (f.keySlot >= 0 || f.hex || !holds(f.when, baseline) ||
            !holds(f.when, fresh))
            continue;
        std::visit(
            [&](auto m) {
                using T = std::decay_t<decltype(baseline.*m)>;
                if constexpr (!isString<T> && !std::is_same_v<T, bool>) {
                    fn(f.name, static_cast<double>(baseline.*m),
                       static_cast<double>(fresh.*m));
                }
            },
            f.member);
    }
}

void
filterRecords(std::vector<RunRecord> &records, const core::cli::Args &args)
{
    for (const Field &f : kFields) {
        if (!f.axis)
            continue;
        const core::cli::AxisRow &row = core::cli::axisRow(*f.axis);
        // Spell each value the way a run configured with it records
        // it, so registry aliases match.
        std::vector<std::string> accepted;
        for (const std::string &v : core::cli::axisValues(args, row, {})) {
            core::TrainConfig probe;
            row.read(probe, v);
            accepted.push_back(row.spell(probe));
        }
        if (accepted.empty())
            continue;
        std::erase_if(records, [&](const RunRecord &r) {
            return std::find(accepted.begin(), accepted.end(),
                             text(f, r)) == accepted.end();
        });
    }
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        sim::fatal("cannot open ", path, " for writing");
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    const int rc = std::fclose(f);
    if (written != text.size() || rc != 0)
        sim::fatal("short write to ", path);
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        sim::fatal("cannot open ", path);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed)
        sim::fatal("read error on ", path);
    return out;
}

} // namespace dgxsim::campaign
