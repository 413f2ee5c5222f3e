/**
 * @file
 * dgxbench: the benchmark of dgxsim's own host speed, end to end and
 * layer by layer.
 *
 * One process runs one workload: a closed loop with one client, no
 * think time and one host thread, over whole seeded passes of a fixed
 * op set. Only the public entry points a `dgxprof` user reaches are
 * timed; every simulated answer is then checked, outside the timed
 * window, against the committed goldens. Simulated numbers are a
 * fixed contract, so any drift is a failed op, not an accuracy metric.
 *
 *   dgxbench --workload NAME --seed N --seconds S [--trace 0|1]
 *            [--trace-file PATH] [--max-ops N] [--results DIR]
 *
 * Workloads (see README.md for why each exists):
 *   paper-grid   the 120-cell paper grid, one sim per op, cold per pass
 *   golden-wire  the six other golden grids, one sim per op, cold per pass
 *   analyze      make, run, DAG, attribution, three what-ifs, JSON
 *   advise       one cold strategy search per op
 *
 * Passes run until --seconds of wall time, three passes and 200 ops
 * are done; --max-ops N stops after exactly N ops instead. Ops are
 * timed in thread CPU time on the fastest allowed CPU, and each op's
 * latency is its best time over the passes (see opMinima). With
 * --trace 1 the run is split in two: the first half of the time
 * untraced, then the same op sequence again with a span around each
 * public call, then one probe per layer that no workload op reaches
 * directly.
 *
 * stdout: one "workload metric value unit" line per metric, then, as
 * the last line, one JSON object with the keys correct, attempted,
 * failed and metrics. Exit 0 when every op verified, 1 when any op
 * failed, 2 on a usage or set-up error.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analysis/advise.hh"
#include "analysis/dag.hh"
#include "analysis/what_if.hh"
#include "campaign/campaign.hh"
#include "campaign/record.hh"
#include "core/cli.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"
#include "hw/platform.hh"
#include "perf_loops.hh"
#include "sim/logging.hh"

#ifndef DGXBENCH_RESULTS_DIR
#define DGXBENCH_RESULTS_DIR "results"
#endif

namespace {

using namespace dgxsim;
using bench::Clock;
using bench::secondsSince;

/** Every timed run has at least this many ops... */
constexpr std::uint64_t kMinOps = 200;
/** ...and this many passes, so each op's best time has three samples. */
constexpr int kMinPasses = 3;
/**
 * setup_s is the median of one set-up before the first op and one
 * after every kSetupEvery ops. Spread through the run, the repetitions
 * do not all land in one burst of load from other work on the host.
 */
constexpr std::uint64_t kSetupEvery = 25;

/**
 * This thread's CPU time in ns: the clock of every op, span and set-up
 * time. The ops are single-threaded and do no I/O, so on an idle host
 * this equals wall time; on a shared host it leaves out the time the
 * thread waited for a core, which swung wall-clock op times by up to
 * 1.8x between runs under other tenants' load.
 */
std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
cpuSecondsSince(std::int64_t t0)
{
    return static_cast<double>(cpuNs() - t0) / 1e9;
}

/**
 * Pin this thread to the fastest CPU it may run on, by the best of two
 * timings of a fixed loop on each. On a VM whose vCPUs share physical
 * cores with other tenants, the loop ran up to 40% slower on one vCPU
 * than on another, and the vCPU a run landed on moved all its op times.
 */
void
pinToFastestCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    int best = -1;
    std::int64_t bestNs = std::numeric_limits<std::int64_t>::max();
    for (int round = 0; round < 2; ++round) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &allowed))
                continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            if (sched_setaffinity(0, sizeof(one), &one) != 0)
                continue;
            bench::Lcg lcg(1);
            std::uint64_t sink = 0;
            const std::int64_t t0 = cpuNs();
            for (int i = 0; i < 4000000; ++i)
                sink += lcg();
            const std::int64_t ns = cpuNs() - t0;
            if (sink != 0 && ns < bestNs) {
                bestNs = ns;
                best = cpu;
            }
        }
    }
    cpu_set_t pick = allowed;
    if (best >= 0) {
        CPU_ZERO(&pick);
        CPU_SET(best, &pick);
    }
    sched_setaffinity(0, sizeof(pick), &pick);
}

// --- tracing -----------------------------------------------------------

/** One timed call. Spans of one op share its op id. */
struct Span
{
    const char *name = nullptr;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;
    std::int32_t op = -1;
};

/** Spans and work counts, kept in memory until the run ends. */
class Tracer
{
  public:
    std::int32_t
    begin(const char *name)
    {
        const auto id = static_cast<std::int32_t>(spans_.size());
        const std::int32_t op =
            current_ < 0 ? nextOp_++ : spans_[current_].op;
        spans_.push_back({name, 0, 0, current_, op});
        current_ = id;
        spans_.back().start = cpuNs();
        return id;
    }

    void
    end(std::int32_t id)
    {
        spans_[id].end = cpuNs();
        current_ = spans_[id].parent;
    }

    void count(const std::string &name, double n) { counts_[name] += n; }

    double
    counted(const std::string &name) const
    {
        const auto it = counts_.find(name);
        return it == counts_.end() ? 0 : it->second;
    }

    struct SelfTime
    {
        double ns = 0;
        std::uint64_t calls = 0;
    };

    /** @return per span name: duration minus the children's, summed. */
    std::map<std::string, SelfTime>
    selfTimes() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        }
        std::map<std::string, SelfTime> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            SelfTime &t = out[spans_[i].name];
            t.ns += static_cast<double>(self[i]);
            ++t.calls;
        }
        return out;
    }

    /** Write every span as a Chrome-trace complete event (µs). */
    void
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            sim::fatal("cannot write trace file ", path);
        std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const long long dur = s.end - s.start;
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 1, \"ts\": %lld.%03lld, "
                         "\"dur\": %lld.%03lld, \"args\": {\"id\": %zu, "
                         "\"parent\": %d, \"op\": %d}}",
                         i ? "," : "", s.name,
                         static_cast<long long>(s.start) / 1000,
                         static_cast<long long>(s.start) % 1000,
                         dur / 1000, dur % 1000, i, s.parent, s.op);
        }
        std::fprintf(f, "\n]}\n");
        if (std::fclose(f) != 0)
            sim::fatal("cannot write trace file ", path);
    }

  private:
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
    std::int32_t nextOp_ = 0;
    std::map<std::string, double> counts_;
};

/** A span around one call; does nothing when tracing is off. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    std::int32_t id_;
};

// --- workloads ---------------------------------------------------------

enum class Kind
{
    Grid,
    Analyze,
    Advise,
};

/** One op's input and the answer it must reproduce. */
struct Op
{
    core::TrainConfig cfg;
    /** Golden record (grid and analyze ops). */
    campaign::RunRecord golden;
    /** The README advise example, whose ranking is pinned. */
    bool readme = false;
};

struct Workload
{
    std::string name;
    Kind kind = Kind::Grid;
    std::vector<Op> ops;
};

const std::vector<std::string> kWorkloads = {"paper-grid", "golden-wire",
                                             "analyze", "advise"};

std::vector<campaign::RunRecord>
readGolden(const std::string &dir, const std::string &file,
           Tracer *tracer)
{
    std::vector<campaign::RunRecord> records;
    {
        Scope s(tracer, "campaign.json_read");
        records =
            campaign::recordsFromJson(campaign::readFile(dir + "/" + file));
    }
    if (tracer)
        tracer->count("campaign.json_read.records", records.size());
    return records;
}

/** The query `dgxprof advise --model M --gpus G --batch B --platform P`
 * runs, built by the same option parser. */
Op
adviseQuery(const std::string &model, int gpus, int batch,
            const std::string &platform)
{
    const auto args = core::cli::Args::parse(
        {"--model", model, "--gpus", std::to_string(gpus), "--batch",
         std::to_string(batch), "--platform", platform});
    Op op;
    op.cfg = core::cli::configFromArgs(args);
    return op;
}

/**
 * Query 0 is the README example; the rest span the models advise can
 * stage at 4 and 8 GPUs. lstm is left out: at 8 stages adviseStrategies
 * aborts the whole search ("network too shallow for 8 stages") instead
 * of dropping the staged candidates.
 */
std::vector<Op>
adviseQueries()
{
    std::vector<Op> ops;
    ops.push_back(adviseQuery("bert-base", 8, 128, "pcie8"));
    ops.back().readme = true;
    for (const char *model :
         {"alexnet", "googlenet", "inception-v3", "resnet-50", "vgg-16",
          "bert-base", "gpt2-small"}) {
        for (int gpus : {4, 8}) {
            for (int batch : {16, 32, 64}) {
                for (const char *platform : {"dgx1v", "pcie8", "dgx2"})
                    ops.push_back(adviseQuery(model, gpus, batch, platform));
            }
        }
    }
    return ops;
}

/** Read the goldens and build the op set: everything before the
 * first op, which setup_s times. */
Workload
setUp(const std::string &name, const std::string &dir, Tracer *tracer)
{
    Workload w;
    w.name = name;
    const auto addGoldens = [&](const std::vector<std::string> &files,
                                bool analyzable) {
        for (const std::string &file : files) {
            for (campaign::RunRecord &r : readGolden(dir, file, tracer)) {
                // analyze needs a multi-GPU run that fits in memory.
                if (analyzable && (r.gpus < 2 || r.oom))
                    continue;
                Op op;
                op.cfg = r.toConfig();
                op.golden = std::move(r);
                w.ops.push_back(std::move(op));
            }
        }
    };
    if (name == "paper-grid") {
        addGoldens({"baseline.json"}, false);
    } else if (name == "golden-wire") {
        addGoldens({"baseline_modes.json", "baseline_platforms.json",
                    "baseline_cluster.json", "baseline_sched.json",
                    "baseline_zoo.json", "baseline_pipeline.json"},
                   false);
    } else if (name == "analyze") {
        w.kind = Kind::Analyze;
        addGoldens({"baseline.json", "baseline_sched.json",
                    "baseline_zoo.json"},
                   true);
    } else if (name == "advise") {
        w.kind = Kind::Advise;
        w.ops = adviseQueries();
    } else {
        sim::fatal("unknown workload '", name, "'");
    }
    if (w.ops.empty())
        sim::fatal("workload ", name, " has no ops under ", dir);
    return w;
}

/**
 * The op order of one pass: canonical for the first pass, seeded
 * shuffles after it; advise keeps query 0 first. The first pass sets
 * the heap's high-water mark, and a shuffled first pass moved
 * peak_rss_mb by up to 25% between seeds through fragmentation alone.
 */
std::vector<std::size_t>
passOrder(const Workload &w, std::uint64_t seed, int pass)
{
    std::vector<std::size_t> order(w.ops.size());
    std::iota(order.begin(), order.end(), 0);
    if (pass == 0)
        return order;
    const std::size_t first = w.kind == Kind::Advise ? 1 : 0;
    bench::Lcg lcg(seed * 0x9E3779B97F4A7C15ULL +
                   static_cast<std::uint64_t>(pass));
    for (std::size_t i = order.size(); i > first + 1; --i) {
        const std::size_t j = first + lcg() % (i - first);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

// --- ops ---------------------------------------------------------------

struct OpResult
{
    double seconds = 0;
    bool ok = false;
    /** The fresh record (grid ops). */
    campaign::RunRecord record;
};

/** Runs one op of a workload: the timed calls, then verification. */
class Runner
{
  public:
    explicit Runner(const Workload &w) : w_(w) {}

    OpResult
    run(std::size_t i, Tracer *tracer)
    {
        OpResult r;
        const std::int64_t t0 = cpuNs();
        try {
            switch (w_.kind) {
            case Kind::Grid:
                r = grid(w_.ops[i], tracer);
                break;
            case Kind::Analyze:
                r = analyze(i, tracer);
                break;
            case Kind::Advise:
                r = advise(i, tracer);
                break;
            }
        } catch (const std::exception &e) {
            r.seconds = cpuSecondsSince(t0);
            r.ok = fail(w_.ops[i], e.what());
        }
        return r;
    }

  private:
    /** Report a mismatch (first few only). @return false. */
    bool
    fail(const Op &op, const std::string &what)
    {
        if (++failures_ <= 10) {
            std::fprintf(stderr, "dgxbench: %s: %s %s g%d b%d: %s\n",
                         w_.name.c_str(), op.cfg.model.c_str(),
                         core::parallelismModeName(op.cfg.mode),
                         op.cfg.numGpus, op.cfg.batchPerGpu,
                         what.c_str());
        }
        return false;
    }

    bool
    verifyRecord(const Op &op, const campaign::RunRecord &fresh)
    {
        // Compare through the JSON form: the golden came from it, and
        // equality there is byte-equality of the committed file.
        const campaign::RunRecord parsed =
            campaign::recordsFromJson(campaign::recordsToJson({fresh}))
                .front();
        if (!(parsed == op.golden))
            return fail(op, "record differs from its golden");
        return true;
    }

    OpResult
    grid(const Op &op, Tracer *tracer)
    {
        OpResult r;
        const std::int64_t t0 = cpuNs();
        if (!tracer) {
            r.record = campaign::runCampaign({op.cfg}, 1).front();
        } else {
            // The calls runCampaign makes for one cell, one span each.
            Scope root(tracer, "op");
            std::unique_ptr<core::TrainerBase> trainer;
            {
                Scope s(tracer, "core.make");
                trainer = core::TrainerBase::make(op.cfg);
            }
            core::TrainReport report;
            {
                Scope s(tracer, "core.run");
                report = trainer->run();
            }
            tracer->count("profiling.records",
                          trainer->profiler().recordCount());
            {
                Scope s(tracer, "campaign.record");
                r.record = campaign::recordFromReport(report);
            }
            Scope s(tracer, "core.teardown");
            trainer.reset();
        }
        r.seconds = cpuSecondsSince(t0);
        r.ok = verifyRecord(op, r.record);
        return r;
    }

    OpResult
    analyze(std::size_t i, Tracer *tracer)
    {
        const Op &op = w_.ops[i];
        std::unique_ptr<core::TrainerBase> trainer;
        core::TrainReport report;
        std::optional<analysis::Dag> dag;
        analysis::Attribution attr;
        std::optional<analysis::WhatIf> whatIf;
        std::vector<analysis::WhatIfResult> results;
        std::string json;
        OpResult r;
        const std::int64_t t0 = cpuNs();
        {
            Scope root(tracer, "op");
            {
                Scope s(tracer, "core.make");
                trainer = core::TrainerBase::make(op.cfg);
            }
            {
                Scope s(tracer, "core.run");
                report = trainer->run();
            }
            if (!report.oom) {
                {
                    Scope s(tracer, "analysis.dag_build");
                    dag.emplace(trainer->profiler(),
                                trainer->fabric().topology());
                }
                {
                    Scope s(tracer, "analysis.attribute");
                    attr = dag->attribute();
                }
                {
                    Scope s(tracer, "analysis.what_if");
                    whatIf.emplace(*dag, op.cfg, report);
                    for (const analysis::WhatIfCase &c :
                         analysis::standardWhatIfs())
                        results.push_back(whatIf->evaluate(c, false));
                }
                Scope s(tracer, "analysis.json");
                json = analysis::analysisJson(*dag, attr, results);
            }
        }
        r.seconds = cpuSecondsSince(t0);
        const auto bad = [&](const std::string &why) {
            r.ok = fail(op, why);
            return r;
        };
        if (report.oom)
            return bad("OOM: " + report.oomDetail);
        if (tracer) {
            tracer->count("profiling.records",
                          trainer->profiler().recordCount());
            tracer->count("analysis.dag.nodes", dag->nodes().size());
            tracer->count("analysis.dag.edges", dag->edgeCount());
        }
        if (!verifyRecord(op, campaign::recordFromReport(report)))
            return r;
        if (whatIf->project(analysis::WhatIfParams{}) != dag->makespan())
            return bad("identity projection != makespan");
        // Every later pass must render the first pass's answer.
        const auto [it, first] = analysisJson_.try_emplace(i, json);
        if (!first && it->second != json)
            return bad("analysis JSON changed between passes");
        r.ok = true;
        return r;
    }

    OpResult
    advise(std::size_t i, Tracer *tracer)
    {
        const Op &op = w_.ops[i];
        analysis::AdviseResult result;
        OpResult r;
        const std::int64_t t0 = cpuNs();
        {
            Scope root(tracer, "op");
            Scope s(tracer, "analysis.advise");
            result = analysis::adviseStrategies(op.cfg);
        }
        r.seconds = cpuSecondsSince(t0);
        const auto bad = [&](const std::string &why) {
            r.ok = fail(op, why);
            return r;
        };
        if (tracer) {
            const campaign::SimulationCacheStats cache =
                campaign::simulationCacheStats();
            tracer->count("analysis.advise.probes", result.probes);
            tracer->count("analysis.advise.projections",
                          result.projections);
            tracer->count("analysis.advise.full_sims", result.fullSims);
            tracer->count("campaign.cache.hits", cache.hits);
            tracer->count("campaign.cache.misses", cache.misses);
        }
        if (result.ranked.empty())
            return bad("no strategy fits");
        // A query seen before must give the first pass's answer, which
        // was checked against a cold re-simulation below.
        const std::string table = analysis::adviseTable(result) + " " +
                                  std::to_string(result.probes) + " " +
                                  std::to_string(result.projections) +
                                  " " + std::to_string(result.fullSims);
        const auto [it, first] = adviseTable_.try_emplace(i, table);
        if (!first) {
            if (it->second != table)
                return bad("advice changed between passes");
            r.ok = true;
            return r;
        }
        const analysis::StrategyRow &winner = result.ranked.front();
        if (!winner.simulated)
            return bad("winner is a projection");
        campaign::clearSimulationCache();
        const core::TrainReport cold =
            core::TrainerBase::simulate(winner.cfg);
        if (cold.epochSeconds != winner.epochSeconds)
            return bad("winner epoch != cold re-simulation");
        // README: pipeline ub32 at 387.64 s/epoch from 8 probes, 1
        // projection and 2 full simulations.
        if (op.readme &&
            (winner.label != "pipeline ub32" ||
             std::llround(winner.epochSeconds * 100) != 38764 ||
             result.probes != 8 || result.projections != 1 ||
             result.fullSims != 2))
            return bad("README advice changed: " + winner.label);
        r.ok = true;
        return r;
    }

    const Workload &w_;
    std::uint64_t failures_ = 0;
    /** First-pass analysis JSON and advise table per op index. */
    std::map<std::size_t, std::string> analysisJson_;
    std::map<std::size_t, std::string> adviseTable_;
};

// --- the run -----------------------------------------------------------

struct Limits
{
    double seconds = 0;
    /** Stop after exactly this many ops; 0 = by time. */
    std::uint64_t maxOps = 0;
};

/**
 * @return this process's peak RSS in MiB, from VmHWM in
 * /proc/self/status. getrusage's ru_maxrss is not used: it survives
 * execve, so under a launcher bigger than the benchmark (the Python
 * wrapper is ~14 MB) it reported the launcher's size instead.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        sim::fatal("cannot read /proc/self/status");
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f))
        std::sscanf(line, "VmHWM: %ld kB", &kib);
    std::fclose(f);
    if (kib < 0)
        sim::fatal("no VmHWM in /proc/self/status");
    return static_cast<double>(kib) / 1024.0;
}

/** Op times of one run, kept per op of the workload. */
struct Tally
{
    explicit Tally(std::size_t ops) : byOp(ops) {}

    std::vector<std::vector<double>> byOp;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /**
     * Peak RSS when the first, canonical-order pass ended: what one
     * `dgxprof campaign` over the grid, or the costliest single query,
     * reaches. Later passes only add fragmentation that depends on
     * their seeded order.
     */
    double firstPassRssMb = 0;

    void
    add(std::size_t i, const OpResult &r)
    {
        byOp[i].push_back(r.seconds);
        ++attempted;
        failed += r.ok ? 0 : 1;
    }
};

/**
 * Run whole passes over the workload in seeded order until at least
 * kMinPasses passes, kMinOps ops and @p limits.seconds of wall time are
 * done. Caches start empty every pass (grids) or every query (analyze,
 * advise, as in one CLI process per query). @p between, when set, runs
 * after every kSetupEvery-th op, outside any op's time.
 */
void
runPasses(const Workload &w, std::uint64_t seed, const Limits &limits,
          Tracer *tracer, Tally &tally,
          const std::function<void()> &between = nullptr)
{
    Runner runner(w);
    const auto t0 = Clock::now();
    for (int pass = 0;; ++pass) {
        campaign::clearSimulationCache();
        std::vector<campaign::RunRecord> records;
        for (std::size_t i : passOrder(w, seed, pass)) {
            if (limits.maxOps && tally.attempted == limits.maxOps)
                return;
            if (w.kind != Kind::Grid)
                campaign::clearSimulationCache();
            OpResult r = runner.run(i, tracer);
            tally.add(i, r);
            if (between && tally.attempted % kSetupEvery == 0)
                between();
            if (tracer && w.kind == Kind::Grid)
                records.push_back(std::move(r.record));
        }
        if (!records.empty()) {
            Scope root(tracer, "pass");
            Scope s(tracer, "campaign.json_write");
            campaign::recordsToJson(records);
            tracer->count("campaign.json_write.records", records.size());
        }
        if (pass == 0)
            tally.firstPassRssMb = peakRssMb();
        if (!limits.maxOps && pass + 1 >= kMinPasses &&
            tally.attempted >= kMinOps && secondsSince(t0) >= limits.seconds)
            return;
    }
}

/** Linearly interpolated quantile, @p p in [0, 1], of a non-empty set. */
double
quantile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * @return each op's best time over the run's passes: its cost with the
 * least interference from other work on the host. The latency metrics
 * are quantiles over these, not over the pooled samples, for two
 * reasons measured on a shared 4-core host: per-op minima moved the
 * run-to-run spread of every end-to-end timing from 2-6% to 1-4%; and
 * the grids repeat a fixed cell set, so a pooled p95 lands on a fixed
 * boundary between cells (0.95 x 120 = 114 on the paper grid, between
 * a ~17 ms and a ~28 ms cell) and flips between them with noise.
 */
std::vector<double>
opMinima(const Tally &tally)
{
    std::vector<double> minima;
    for (const std::vector<double> &samples : tally.byOp) {
        if (!samples.empty())
            minima.push_back(*std::min_element(samples.begin(),
                                               samples.end()));
    }
    return minima;
}

/** @return the sum of the per-op best times: one pass at best speed. */
double
bestSeconds(const Tally &tally)
{
    const std::vector<double> minima = opMinima(tally);
    return std::accumulate(minima.begin(), minima.end(), 0.0);
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/**
 * Time the layers no workload op reaches through its own span: the
 * storm loops, model and platform construction, and one op of each
 * kind on a small fixed config, so every per-layer metric has at least
 * one call on every workload.
 */
void
runProbes(const std::string &dir, Tracer &tracer, Tally &tally,
          std::vector<Metric> &out)
{
    const auto storm = [&](const char *name, const char *metric,
                           double (*loop)(int), int size) {
        Scope root(&tracer, "probe");
        Scope s(&tracer, name);
        out.push_back({metric, "ns", 1e9 / loop(size)});
    };
    storm("sim.event_queue.storm", "sim.event_queue.ns_per_event",
          bench::measureEqStorm, 400000);
    storm("sim.event_queue.churn", "sim.event_queue.ns_per_resched",
          bench::measureEqChurn, 6000);
    storm("sim.flow_network.churn", "sim.flow_network.ns_per_flow",
          bench::measureFlowChurn, 20000);
    storm("comm.scheduler.storm", "comm.scheduler.ns_per_chunk",
          bench::measureSchedStorm, 20000);
    storm("comm.compression.storm", "comm.compression.ns_per_chunk",
          bench::measureCompressStorm, 20000);

    for (int round = 0; round < 5; ++round) {
        for (const std::string &model : dnn::extendedModelNames()) {
            Scope root(&tracer, "probe");
            Scope s(&tracer, "dnn.build");
            dnn::buildByName(model);
        }
        for (const std::string &platform : hw::platformNames()) {
            Scope root(&tracer, "probe");
            Scope s(&tracer, "hw.make_platform");
            hw::makePlatform(platform);
        }
    }

    std::vector<campaign::RunRecord> goldens;
    {
        Scope root(&tracer, "probe");
        goldens = readGolden(dir, "baseline.json", &tracer);
        Scope s(&tracer, "campaign.json_write");
        campaign::recordsToJson(goldens);
        tracer.count("campaign.json_write.records", goldens.size());
    }
    const auto cell = std::find_if(
        goldens.begin(), goldens.end(), [](const campaign::RunRecord &r) {
            return r.model == "alexnet" && r.gpus == 4 && r.batch == 16 &&
                   r.method == "nccl";
        });
    if (cell == goldens.end())
        sim::fatal("probe cell alexnet g4 b16 nccl missing from ", dir,
                   "/baseline.json");
    Op gridOp;
    gridOp.cfg = cell->toConfig();
    gridOp.golden = *cell;
    Workload grid{"probe-grid", Kind::Grid, {gridOp}};
    Workload query{"probe-analyze", Kind::Analyze, {gridOp}};
    Workload advice{"probe-advise", Kind::Advise,
                    {adviseQuery("alexnet", 4, 32, "dgx1v")}};
    for (const Workload *w : {&grid, &query, &advice}) {
        Runner runner(*w);
        campaign::clearSimulationCache();
        Scope root(&tracer, "probe");
        const OpResult r = runner.run(0, &tracer);
        ++tally.attempted;
        tally.failed += r.ok ? 0 : 1;
    }
}

/** Per-layer metrics from the traced half; see README.md. */
std::vector<Metric>
layerMetrics(const Tracer &tracer, std::vector<Metric> probes,
             double untracedSeconds, double tracedSeconds)
{
    const auto self = tracer.selfTimes();
    const auto ns = [&](const char *span) {
        const auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second.ns;
    };
    const auto calls = [&](const char *span) {
        const auto it = self.find(span);
        return it == self.end() ? 0.0
                                : static_cast<double>(it->second.calls);
    };
    const auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double records = tracer.counted("profiling.records");
    const double advises = calls("analysis.advise");
    const double hits = tracer.counted("campaign.cache.hits");
    const double misses = tracer.counted("campaign.cache.misses");
    std::vector<Metric> m = {
        {"core.make.us_per_sim", "us",
         per(ns("core.make"), calls("core.make")) / 1e3},
        {"core.run.ms_per_sim", "ms",
         per(ns("core.run"), calls("core.run")) / 1e6},
        {"core.run.ns_per_record", "ns", per(ns("core.run"), records)},
        {"core.teardown.us_per_sim", "us",
         per(ns("core.teardown"), calls("core.teardown")) / 1e3},
        {"profiling.records_per_sim", "count",
         per(records, calls("core.run"))},
        {"campaign.record.us_per_sim", "us",
         per(ns("campaign.record"), calls("campaign.record")) / 1e3},
        {"campaign.json_write.us_per_record", "us",
         per(ns("campaign.json_write"),
             tracer.counted("campaign.json_write.records")) /
             1e3},
        {"campaign.json_read.us_per_record", "us",
         per(ns("campaign.json_read"),
             tracer.counted("campaign.json_read.records")) /
             1e3},
        {"analysis.dag_build.ms_per_query", "ms",
         per(ns("analysis.dag_build"), calls("analysis.dag_build")) / 1e6},
        {"analysis.attribute.ms_per_query", "ms",
         per(ns("analysis.attribute"), calls("analysis.attribute")) / 1e6},
        {"analysis.what_if.ms_per_query", "ms",
         per(ns("analysis.what_if"), calls("analysis.what_if")) / 1e6},
        {"analysis.json.ms_per_query", "ms",
         per(ns("analysis.json"), calls("analysis.json")) / 1e6},
        {"analysis.dag.nodes_per_query", "count",
         per(tracer.counted("analysis.dag.nodes"),
             calls("analysis.dag_build"))},
        {"analysis.dag.edges_per_query", "count",
         per(tracer.counted("analysis.dag.edges"),
             calls("analysis.dag_build"))},
        {"analysis.advise.ms_per_query", "ms",
         per(ns("analysis.advise"), advises) / 1e6},
        {"analysis.advise.probes_per_query", "count",
         per(tracer.counted("analysis.advise.probes"), advises)},
        {"analysis.advise.projections_per_query", "count",
         per(tracer.counted("analysis.advise.projections"), advises)},
        {"analysis.advise.full_sims_per_query", "count",
         per(tracer.counted("analysis.advise.full_sims"), advises)},
        {"campaign.cache.hit_ratio", "ratio", per(hits, hits + misses)},
        {"campaign.cache.misses_per_query", "count", per(misses, advises)},
        {"dnn.build.us_per_call", "us",
         per(ns("dnn.build"), calls("dnn.build")) / 1e3},
        {"hw.make_platform.us_per_call", "us",
         per(ns("hw.make_platform"), calls("hw.make_platform")) / 1e3},
        {"bench.trace_overhead_pct", "%",
         (per(tracedSeconds, untracedSeconds) - 1) * 100},
    };
    for (Metric &p : probes)
        m.push_back(std::move(p));
    return m;
}

void
printResult(const std::string &workload, const Tally &tally,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(),
                    m.value, m.unit.c_str());
    }
    std::printf("%s op_samples %llu count\n", workload.c_str(),
                static_cast<unsigned long long>(tally.attempted));
    std::printf("%s op_fail_ratio %.6g ratio\n", workload.c_str(),
                static_cast<double>(tally.failed) /
                    static_cast<double>(tally.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed ? "false" : "true",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "dgxbench: %s\nusage: dgxbench --workload "
                 "paper-grid|golden-wire|analyze|advise --seed N "
                 "--seconds S [--trace 0|1] [--trace-file PATH] "
                 "[--max-ops N] [--results DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0 || i + 1 >= argc)
            return usage(("bad argument '" + arg + "'").c_str());
        opts[arg.substr(2)] = argv[++i];
    }
    const auto opt = [&opts](const std::string &key,
                             const std::string &fallback) {
        const auto it = opts.find(key);
        return it == opts.end() ? fallback : it->second;
    };
    for (const auto &[key, value] : opts) {
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "trace" && key != "trace-file" && key != "max-ops" &&
            key != "results")
            return usage(("unknown option --" + key).c_str());
    }
    const std::string workload = opt("workload", "");
    if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
        kWorkloads.end())
        return usage(("unknown workload '" + workload + "'").c_str());
    if (!opts.count("seed") || !opts.count("seconds"))
        return usage("--seed and --seconds are required");
    const std::string trace = opt("trace", "0");
    if (trace != "0" && trace != "1")
        return usage("--trace takes 0 or 1");

    std::uint64_t seed = 0;
    Limits limits;
    try {
        seed = std::stoull(opt("seed", ""));
        limits.seconds = std::stod(opt("seconds", ""));
        limits.maxOps = std::stoull(opt("max-ops", "0"));
    } catch (const std::exception &) {
        return usage("--seed, --seconds and --max-ops take numbers");
    }
    if (!(limits.seconds >= 0))
        return usage("--seconds must be >= 0");
    const std::string dir = opt("results", DGXBENCH_RESULTS_DIR);
    pinToFastestCpu();

    try {
        if (trace == "0") {
            std::vector<double> setupSeconds;
            const auto timedSetUp = [&] {
                const std::int64_t t0 = cpuNs();
                Workload w = setUp(workload, dir, nullptr);
                setupSeconds.push_back(cpuSecondsSince(t0));
                return w;
            };
            const Workload w = timedSetUp();
            Tally tally(w.ops.size());
            runPasses(w, seed, limits, nullptr, tally, timedSetUp);
            const std::vector<double> ops = opMinima(tally);
            printResult(
                workload, tally,
                {{"ops_per_s", "1/s",
                  static_cast<double>(ops.size()) / bestSeconds(tally)},
                 {"op_p50_ms", "ms", quantile(ops, 0.50) * 1e3},
                 {"op_p95_ms", "ms", quantile(ops, 0.95) * 1e3},
                 {"setup_s", "s", quantile(setupSeconds, 0.5)},
                 {"peak_rss_mb", "MB",
                  tally.firstPassRssMb ? tally.firstPassRssMb
                                       : peakRssMb()}});
            return tally.failed ? 1 : 0;
        }

        Tracer tracer;
        Workload w;
        {
            Scope root(&tracer, "setup");
            w = setUp(workload, dir, &tracer);
        }
        Tally untraced(w.ops.size());
        Limits half = limits;
        half.seconds /= 2;
        runPasses(w, seed, half, nullptr, untraced);
        Tally traced(w.ops.size());
        Limits replay = limits;
        replay.maxOps = untraced.attempted;
        runPasses(w, seed, replay, &tracer, traced);
        std::vector<Metric> probes;
        runProbes(dir, tracer, traced, probes);
        if (opts.count("trace-file"))
            tracer.writeChromeTrace(opt("trace-file", ""));
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        printResult(workload, traced,
                    layerMetrics(tracer, std::move(probes),
                                 bestSeconds(untraced),
                                 bestSeconds(traced)));
        return traced.failed ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dgxbench: %s\n", e.what());
        return 2;
    }
}
