/**
 * @file
 * Harness benchmark: how fast does the *simulator itself* run?
 *
 * Unlike the figure/table programs (which print simulated seconds),
 * this program measures wall-clock throughput of the simulation
 * engine: dgxbench's storm loops (dgxbench/perf_loops.hh: EventQueue
 * storm and reschedule churn, FlowNetwork rate re-solves, the comm
 * scheduler's chunk pump with and without codec math), single
 * training runs per (model, gpus, method) cell, and the paper's full
 * 120-run campaign grid, cold and memo-warm. Every mode writes or
 * reads one deterministic artifact (campaign/benchfile.hh schema):
 *
 *   --emit-json=PATH [--smoke] [--label=NAME]
 *       Measure and write a BENCH file. --smoke shrinks workloads
 *       for a fast schema/determinism test; smoke numbers are NOT
 *       comparable to full runs and the emitted note says so.
 *   --validate=PATH
 *       Strict-parse an existing BENCH file (exit 0 iff valid).
 *   --check-against=PATH [--tolerance=F]
 *       Measure at full size and compare against the committed
 *       file, normalized by the eq_storm calibration metric so the
 *       gate tracks code-speed ratios, not absolute host speed.
 *       Exit 1 on any regression beyond the tolerance (default 25%).
 *
 * Without a mode it prints this usage and exits 2.
 *
 * All workload shapes use a fixed-constant LCG, never libc rand, so
 * every mode on every host replays the identical event/flow stream.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/benchfile.hh"
#include "campaign/campaign.hh"
#include "core/trainer_base.hh"
#include "dgxbench/perf_loops.hh"
#include "sim/suggest.hh"

namespace {

using namespace dgxsim;
using namespace dgxsim::bench;

/** Workload sizes; smoke mode shrinks them for a fast schema test. */
struct Sizes
{
    int stormEvents = 400000;
    int churnRounds = 6000;
    int flowChurn = 20000;
    int schedRounds = 20000;
    int singleReps = 5;
    int passes = 3; ///< best-of passes per metric
};

Sizes
smokeSizes()
{
    Sizes s;
    s.stormEvents = 50000;
    s.churnRounds = 800;
    s.flowChurn = 2500;
    s.schedRounds = 2000;
    s.singleReps = 1;
    s.passes = 1;
    return s;
}

// --- measurements (the storm loops live in perf_loops.hh) ---------

core::TrainConfig
cellConfig(const std::string &model, int gpus, comm::CommMethod method)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.method = method;
    return cfg;
}

/** @return mean wall milliseconds per full training simulation. */
double
measureSingleRun(const core::TrainConfig &cfg, int reps)
{
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i)
        core::TrainerBase::simulate(cfg);
    return secondsSince(t0) / reps * 1e3;
}

std::vector<core::TrainConfig>
paperGrid()
{
    campaign::CampaignSpec spec;
    spec[core::cli::Axis::Model] = {"lenet", "alexnet", "googlenet",
                                    "inception-v3", "resnet-50"};
    return spec.expand();
}

/** Cold = nothing memoized: both process-wide caches are cleared. */
double
measureGridCold(const std::vector<core::TrainConfig> &configs)
{
    campaign::clearSimulationCache();
    const auto t0 = Clock::now();
    const auto records = campaign::runCampaign(configs, 1);
    return records.size() / secondsSince(t0);
}

/** Warm = every run a memo hit; measures the cache-hit path only. */
double
measureGridWarm(const std::vector<core::TrainConfig> &configs)
{
    campaign::runCampaign(configs, 1); // prime
    const auto t0 = Clock::now();
    const auto records = campaign::runCampaign(configs, 1);
    return records.size() / secondsSince(t0);
}

// --- metric table --------------------------------------------------

const std::vector<std::string> &
paperModels()
{
    static const std::vector<std::string> models = {
        "lenet", "alexnet", "googlenet", "inception-v3", "resnet-50"};
    return models;
}

std::string
metricSlug(std::string s)
{
    for (char &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

std::string
singleRunMetric(const std::string &model, int gpus,
                comm::CommMethod method)
{
    return "single_run_" + metricSlug(model) + "_g" +
           std::to_string(gpus) + "_" +
           (method == comm::CommMethod::P2P ? "p2p" : "nccl") + "_ms";
}

/**
 * Run every measurement, best-of @p sizes.passes, and return the
 * metric list (unsorted; the serializer sorts).
 */
std::vector<campaign::BenchMetric>
measureAll(const Sizes &sizes)
{
    std::map<std::string, campaign::BenchMetric> best;
    const auto record = [&best](const std::string &name,
                                const std::string &unit, bool higher,
                                double value) {
        auto it = best.find(name);
        if (it == best.end()) {
            best[name] = {name, unit, higher, value};
        } else if (higher ? value > it->second.value
                          : value < it->second.value) {
            it->second.value = value;
        }
    };

    const auto configs = paperGrid();
    for (int pass = 0; pass < sizes.passes; ++pass) {
        std::fprintf(stderr, "[perf_simulator] pass %d/%d\n",
                     pass + 1, sizes.passes);
        record("eq_storm_events_per_sec", "events/s", true,
               measureEqStorm(sizes.stormEvents));
        record("eq_churn_resched_per_sec", "resched/s", true,
               measureEqChurn(sizes.churnRounds));
        record("flow_churn_flows_per_sec", "flows/s", true,
               measureFlowChurn(sizes.flowChurn));
        record("sched_storm_chunks_per_sec", "chunks/s", true,
               measureSchedStorm(sizes.schedRounds));
        record("compress_storm_chunks_per_sec", "chunks/s", true,
               measureCompressStorm(sizes.schedRounds));
        for (const std::string &model : paperModels()) {
            for (int gpus : {1, 8}) {
                for (auto method : {comm::CommMethod::P2P,
                                    comm::CommMethod::NCCL}) {
                    record(singleRunMetric(model, gpus, method), "ms",
                           false,
                           measureSingleRun(
                               cellConfig(model, gpus, method),
                               sizes.singleReps));
                }
            }
        }
        record("grid120_cold_sims_per_sec", "sims/s", true,
               measureGridCold(configs));
        record("grid120_warm_sims_per_sec", "sims/s", true,
               measureGridWarm(configs));
    }

    std::vector<campaign::BenchMetric> metrics;
    metrics.reserve(best.size());
    for (auto &[name, metric] : best)
        metrics.push_back(std::move(metric));
    return metrics;
}

/**
 * The pre-optimization measurement, taken on the seed build (commit
 * bbb873a) with these exact loops at full size, jobs=1, single-core
 * container, best of two manual runs. Hard-coded so the committed
 * trajectory always starts from the honest "before" even on hosts
 * that never built the seed.
 */
campaign::BenchPoint
preChangePoint()
{
    campaign::BenchPoint p;
    p.label = "pre-perf-work";
    p.note = "seed build (bbb873a): shared_ptr+priority_queue "
             "EventQueue, from-scratch max-min solver, no layer-cost "
             "cache; same loops, full size, jobs=1, best of 2";
    p.values = {
        {"eq_storm_events_per_sec", 1936297},
        {"eq_churn_resched_per_sec", 7601694},
        {"flow_churn_flows_per_sec", 33742},
        {"grid120_cold_sims_per_sec", 123.2},
        {"single_run_lenet_g1_p2p_ms", 0.094},
        {"single_run_alexnet_g8_nccl_ms", 9.428},
        {"single_run_googlenet_g8_nccl_ms", 20.433},
        {"single_run_inception_v3_g8_nccl_ms", 66.437},
        {"single_run_resnet_50_g8_nccl_ms", 54.700},
    };
    return p;
}

/**
 * The measurement taken just before profiler records switched from
 * owned std::strings to interned Names (profiling/interner.hh), same
 * loops, full size, jobs=1. Kept as a fixed trajectory point so the
 * committed file always shows the before/after of that change; the
 * run-to-run delta must be read against the eq_storm calibration
 * metric, which does not touch the profiler.
 */
campaign::BenchPoint
preInterningPoint()
{
    campaign::BenchPoint p;
    p.label = "pre-interning";
    p.note = "before interned profiler record names: records owned "
             "four std::strings each; full-size run, jobs=1, best "
             "of 3 (no sched_storm metric yet)";
    p.values = {
        {"eq_storm_events_per_sec", 2966228.76},
        {"eq_churn_resched_per_sec", 8234596.45},
        {"flow_churn_flows_per_sec", 46357.4211},
        {"grid120_cold_sims_per_sec", 213.640394},
        {"grid120_warm_sims_per_sec", 346159.505},
        {"single_run_lenet_g1_p2p_ms", 0.0936508},
        {"single_run_alexnet_g8_nccl_ms", 4.9657778},
        {"single_run_googlenet_g8_nccl_ms", 11.4277164},
        {"single_run_inception_v3_g8_nccl_ms", 36.6487954},
        {"single_run_resnet_50_g8_nccl_ms", 29.8834656},
    };
    return p;
}

campaign::BenchFile
buildBenchFile(const Sizes &sizes, const std::string &label,
               bool smoke)
{
    campaign::BenchFile file;
    file.suite = "simulator";
    file.metrics = measureAll(sizes);
    file.trajectory.push_back(preChangePoint());
    file.trajectory.push_back(preInterningPoint());
    campaign::BenchPoint now;
    now.label = label;
    now.note = smoke ? "smoke run: reduced workloads, values NOT "
                       "comparable to full-size points"
                     : "full-size run, jobs=1, best of " +
                           std::to_string(sizes.passes);
    for (const campaign::BenchMetric &m : file.metrics)
        now.values[m.name] = m.value;
    file.trajectory.push_back(std::move(now));
    return file;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// --- driver modes --------------------------------------------------

int
emitMode(const std::string &path, bool smoke, const std::string &label)
{
    const Sizes sizes = smoke ? smokeSizes() : Sizes{};
    const campaign::BenchFile file = buildBenchFile(sizes, label, smoke);
    const std::string text = campaign::serializeBenchFile(file);
    // Round-trip through the strict parser so an emitted file can
    // never be one the validator rejects.
    campaign::parseBenchFile(text);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return 2;
    }
    out << text;
    std::printf("wrote %s (%zu metrics, %zu trajectory points)\n",
                path.c_str(), file.metrics.size(),
                file.trajectory.size());
    return 0;
}

int
validateMode(const std::string &path)
{
    const campaign::BenchFile file =
        campaign::parseBenchFile(slurp(path)); // fatal if invalid
    std::printf("%s: valid %s file, suite '%s', %zu metrics, %zu "
                "trajectory points\n",
                path.c_str(), campaign::kBenchSchema,
                file.suite.c_str(), file.metrics.size(),
                file.trajectory.size());
    return 0;
}

int
checkMode(const std::string &path, double tolerance)
{
    const campaign::BenchFile committed =
        campaign::parseBenchFile(slurp(path));
    campaign::BenchFile fresh;
    fresh.suite = committed.suite;
    fresh.metrics = measureAll(Sizes{});
    const std::vector<std::string> regressions =
        campaign::findRegressions(committed, fresh, tolerance,
                                  "eq_storm_events_per_sec");
    for (const campaign::BenchMetric &m : fresh.metrics)
        std::printf("  %-40s %12.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (regressions.empty()) {
        std::printf("perf check vs %s: OK (tolerance %.0f%%, "
                    "calibrated on eq_storm)\n",
                    path.c_str(), tolerance * 100.0);
        return 0;
    }
    std::printf("perf check vs %s: %zu regression(s)\n", path.c_str(),
                regressions.size());
    for (const std::string &r : regressions)
        std::printf("  REGRESSION %s\n", r.c_str());
    return 1;
}

const char *
flagValue(const char *arg, const char *flag)
{
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string emitPath, validatePath, checkPath;
    std::string label = "this-commit";
    bool smoke = false;
    double tolerance = 0.25;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = flagValue(argv[i], "--emit-json"))
            emitPath = v;
        else if (const char *v = flagValue(argv[i], "--validate"))
            validatePath = v;
        else if (const char *v = flagValue(argv[i], "--check-against"))
            checkPath = v;
        else if (const char *v = flagValue(argv[i], "--label"))
            label = v;
        else if (const char *v = flagValue(argv[i], "--tolerance"))
            tolerance = sim::parseFinite(v).value_or(-1);
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }
    if (!(tolerance >= 0)) {
        std::fprintf(stderr, "--tolerance expects a finite number >= 0\n");
        return 2;
    }
    if (!validatePath.empty())
        return validateMode(validatePath);
    if (!emitPath.empty())
        return emitMode(emitPath, smoke, label);
    if (!checkPath.empty())
        return checkMode(checkPath, tolerance);

    std::fprintf(stderr,
                 "usage: perf_simulator --emit-json=PATH [--smoke] "
                 "[--label=NAME]\n"
                 "       perf_simulator --validate=PATH\n"
                 "       perf_simulator --check-against=PATH "
                 "[--tolerance=F]\n");
    return 2;
}
