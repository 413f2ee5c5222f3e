/**
 * @file
 * dgxprof — the command-line front end of the simulator.
 *
 * Subcommands:
 *   train    simulate one training configuration, print the report
 *   analyze  critical-path attribution + validated what-if projections
 *   sweep    grid over GPUs x batch, p2p and nccl side by side
 *   campaign parallel grid runner with JSON/CSV results
 *   check    re-run a campaign, diff against a golden baseline
 *   topo     show a platform's topology, routes and bandwidths
 *   platforms list the registered hardware platforms
 *   interconnects list the registered inter-node networks
 *   advise   rank parallelization strategies for a model (what-if
 *            projections first, frontier re-simulated for real)
 *   models   list the model zoo
 *   verify   determinism check: run a config twice, compare digests
 *
 * The commands that take a config read the run axes of
 * core::cli::axes(), one value each or, for campaign and check, lists.
 * Each subcommand names the options it reads; any other --option is
 * a fatal error before anything runs. Run `dgxprof help` (or any
 * subcommand with --help) for usage.
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/advise.hh"
#include "analysis/dag.hh"
#include "analysis/what_if.hh"
#include "campaign/campaign.hh"
#include "campaign/check.hh"
#include "campaign/thread_pool.hh"
#include "comm/compression.hh"
#include "comm/scheduler.hh"
#include "core/cli.hh"
#include "core/determinism.hh"
#include "core/layer_profile.hh"
#include "core/scaling.hh"
#include "core/text_table.hh"
#include "core/trainer_base.hh"
#include "dnn/models.hh"
#include "dnn/serialize.hh"
#include "hw/cluster.hh"
#include "hw/fabric.hh"
#include "hw/platform.hh"
#include "hw/topology.hh"
#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace {

using namespace dgxsim;
using core::TextTable;
using core::cli::Args;
using core::cli::Axis;

int
usage()
{
    std::string axes;
    for (std::size_t i = 0; i < core::cli::kAxisCount; ++i) {
        axes += i % 6 ? " --" : "\n  --";
        axes += core::cli::axes()[i].option;
    }
    std::printf(
        "dgxprof — DNN training profiling on a simulated Volta DGX-1\n"
        "\n"
        "usage: dgxprof <command> [options]\n"
        "\n"
        "run axes: one value each for train, analyze, advise, layers and "
        "verify;\n"
        "comma-separated lists for campaign and check (--batches or "
        "--batch); sweep\n"
        "lists only --gpus and --batches. --mode is sync_dp|async_ps|"
        "model_parallel|\n"
        "pipeline, --method p2p|nccl, --netalgo ring|tree; `dgxprof "
        "platforms`,\n"
        "`interconnects`, `schedulers`, `compressors` and `models` list "
        "the rest.%s\n"
        "\n"
        "commands:\n"
        "  train     simulate one run      (run axes | --model-file F;\n"
        "                                   [--partition-bytes N[kmg]] "
        "[--credit-bytes N[kmg]]\n"
        "                                   [--compress-ratio F] "
        "[--async-iters N]\n"
        "                                   [--allreduce] [--fusion-mb "
        "N] [--tensor-cores]\n"
        "                                   [--overlap] [--rings 2] "
        "[--p100] [--images N]\n"
        "                                   [--trace FILE] [--csv "
        "FILE] [--report] [--audit])\n"
        "  analyze   critical-path + what-if (same config options as "
        "train, plus\n"
        "                                   [--schedulers S1,S2,...] "
        "to compare comm\n"
        "                                   scheduling policies "
        "side by side,\n"
        "                                   [--what-if K=V,...|"
        "standard] [--no-validate]\n"
        "                                   [--max-error PCT] [--top "
        "N] [--json FILE]\n"
        "                                   [--record FILE] [--trace "
        "FILE])\n"
        "  sweep    p2p vs nccl table     (run axes but --method, "
        "[--jobs N])\n"
        "  campaign  parallel grid runner  (run axes [--jobs N] "
        "[--json FILE]\n"
        "                                   [--csv FILE] [--quiet])\n"
        "  check     regression gate       (--baseline "
        "results/baseline.json\n"
        "                                   [--tolerance PCT] [--jobs "
        "N] [--no-digest];\n"
        "                                   run axes filter the "
        "baseline grid)\n"
        "  topo      topology, routes, bandwidth matrix "
        "([--platform P])\n"
        "  platforms list the registered hardware platforms\n"
        "  interconnects list the registered inter-node networks\n"
        "  schedulers list the registered gradient-bucket schedulers\n"
        "  compressors list the registered gradient compressors\n"
        "  advise    strategy search       (run axes, --microbatches "
        "M1,M2,...\n"
        "                                   [--stages S1,S2,...] "
        "[--platforms P1,P2]\n"
        "                                   [--topk K]; ranks sync_dp/"
        "model_parallel/pipeline\n"
        "                                   what-if-first, winner "
        "re-simulated)\n"
        "  layers    per-layer cost breakdown (run axes or --model-file "
        "F, [--top N])\n"
        "  models    list the model zoo\n"
        "  verify    determinism check    (run axes; runs twice, "
        "compares digests,\n"
        "                                   exits non-zero on "
        "mismatch)\n",
        axes.c_str());
    return 2;
}

int
cmdTrain(const Args &args)
{
    core::TrainConfig cfg = core::cli::configFromArgs(args);
    // --model-file loads a serialized network description instead of
    // a zoo model (see dnn/serialize.hh for the format). Custom
    // networks run only on the synchronous strategy.
    std::optional<dnn::Network> net;
    if (args.has("model-file")) {
        if (cfg.mode != core::ParallelismMode::SyncDp)
            sim::fatal("--model-file supports --mode sync_dp only");
        net = dnn::loadNetworkFile(args.get("model-file"));
        cfg.model = net->name();
    }
    const auto owned = core::TrainerBase::make(cfg, std::move(net));
    core::TrainerBase &trainer = *owned;
    const core::TrainReport r = trainer.run();
    if (r.oom) {
        std::printf("OOM: %s\n", r.oomDetail.c_str());
        return 1;
    }
    std::printf("%s\n", r.oneLine().c_str());
    std::printf("  %llu iterations x %.3f ms; sync share %.1f%%; "
                "inter-GPU %.1f MB/iter\n",
                static_cast<unsigned long long>(r.iterations),
                r.iterationSeconds * 1e3, 100 * r.syncApiFraction,
                r.interGpuBytesPerIter / 1e6);
    if ((r.config.mode == core::ParallelismMode::ModelParallel ||
         r.config.mode == core::ParallelismMode::Pipeline) &&
        !r.stageParamBytes.empty()) {
        std::printf("  stage weights (MB):");
        for (sim::Bytes b : r.stageParamBytes)
            std::printf(" %.1f", b / 1e6);
        std::printf("\n");
        std::printf("  peak live microbatches per stage:");
        for (int live : r.stagePeakLiveMicrobatches)
            std::printf(" %d", live);
        std::printf("\n");
    }
    std::printf("  memory: pre %.2f GB, GPU0 %.2f GB, workers %.2f "
                "GB\n",
                r.gpu0.preTrainingGB(), r.gpu0.trainingGB(),
                r.gpux.trainingGB());
    if (r.audited) {
        std::printf("  audit: %llu checks, %llu violations; digest "
                    "%016llx\n",
                    static_cast<unsigned long long>(r.auditChecks),
                    static_cast<unsigned long long>(r.auditViolations),
                    static_cast<unsigned long long>(r.digest));
    }
    if (args.has("report"))
        std::printf("\n%s", trainer.profiler().report().c_str());
    if (args.has("trace")) {
        const std::string path = args.get("trace", "trace.json");
        trainer.profiler().writeChromeTrace(path);
        std::printf("trace written to %s\n", path.c_str());
    }
    if (args.has("csv")) {
        const std::string path = args.get("csv", "profile.csv");
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            sim::fatal("cannot open ", path);
        std::fputs(trainer.profiler().csv().c_str(), f);
        std::fclose(f);
        std::printf("profile CSV written to %s\n", path.c_str());
    }
    return 0;
}

/**
 * Run one configuration, build the causal DAG, attribute the
 * makespan, and evaluate what-if scenarios — optionally validating
 * each projection against a ground-truth re-simulation.
 */
int
cmdAnalyze(const Args &args)
{
    core::TrainConfig cfg = core::cli::configFromArgs(args);
    // Bad values fail before the run, not after it.
    const double max_error_pct = args.getDouble("max-error", 0.0);
    std::vector<analysis::WhatIfCase> cases;
    if (args.has("what-if"))
        cases = analysis::parseWhatIfSpecs(args.get("what-if", "standard"));
    auto trainer = core::TrainerBase::make(cfg);
    const core::TrainReport base = trainer->run();
    if (base.oom) {
        std::printf("OOM: %s\n", base.oomDetail.c_str());
        return 1;
    }

    // The DAG reads routes off the topology the run actually used
    // (whatever platform cfg selected).
    const hw::Topology &topo = trainer->fabric().topology();
    const analysis::Dag dag(trainer->profiler(), topo);
    // attribute() panics unless the four categories partition the
    // makespan tick-exactly, so reaching the report is the proof.
    const analysis::Attribution attr = dag.attribute();
    const std::size_t top =
        static_cast<std::size_t>(args.getInt("top", 10));

    std::vector<analysis::WhatIfResult> results;
    if (!cases.empty()) {
        const analysis::WhatIf what_if(dag, cfg, base);
        const bool validate = !args.has("no-validate");
        for (const analysis::WhatIfCase &c : cases)
            results.push_back(what_if.evaluate(c, validate));
    }

    std::printf("%s\n", base.oneLine().c_str());
    std::printf("%s", dag.report(attr, top).c_str());
    if (!results.empty())
        std::printf("%s", analysis::WhatIf::report(results).c_str());

    if (args.has("schedulers")) {
        // Re-run the identical configuration under each listed
        // gradient-scheduling policy and attribute its critical path:
        // "cp comm" is the comm-exposed (non-overlapped) time, the
        // quantity a scheduler can actually shrink.
        std::printf("\ngradient scheduler comparison:\n");
        TextTable sched({"scheduler", "iteration (s)", "cp comm (s)",
                         "cp compute (s)", "cp idle (s)",
                         "comm vs fifo"});
        double fifo_comm = -1;
        for (const std::string &name :
             args.getList("schedulers", {})) {
            core::TrainConfig scfg = cfg;
            scfg.commConfig.scheduler = comm::parseScheduler(name);
            auto srun = core::TrainerBase::make(scfg);
            const core::TrainReport sr = srun->run();
            if (sr.oom) {
                sched.addRow({name, "OOM", "-", "-", "-", "-"});
                continue;
            }
            const analysis::Dag sdag(srun->profiler(),
                                     srun->fabric().topology());
            const analysis::Attribution sattr = sdag.attribute();
            const double comm_s = sim::ticksToSec(sattr.comm);
            const bool is_fifo = scfg.commConfig.scheduler ==
                                 comm::SchedulerPolicy::Fifo;
            if (is_fifo && fifo_comm < 0)
                fifo_comm = comm_s;
            std::string delta = "-";
            if (!is_fifo && fifo_comm > 0) {
                delta = TextTable::num(
                            100.0 * (comm_s - fifo_comm) / fifo_comm,
                            1) +
                        "%";
            }
            sched.addRow(
                {name, TextTable::num(sr.iterationSeconds, 6),
                 TextTable::num(comm_s, 6),
                 TextTable::num(sim::ticksToSec(sattr.compute), 6),
                 TextTable::num(sim::ticksToSec(sattr.idle), 6),
                 delta});
        }
        std::printf("%s", sched.str().c_str());
    }

    if (args.has("json")) {
        const std::string path = args.get("json", "analysis.json");
        campaign::writeFile(
            path, analysis::analysisJson(dag, attr, results, top));
        std::printf("analysis JSON written to %s\n", path.c_str());
    }
    if (args.has("record")) {
        // Campaign-record projection with the critical-path summary
        // attached; cp_* fields appear only on this path, so plain
        // campaign baselines stay byte-identical.
        const std::string path = args.get("record", "record.json");
        campaign::RunRecord rec = campaign::recordFromReport(base);
        rec.hasAnalysis = true;
        rec.cpComputeSeconds = sim::ticksToSec(attr.compute);
        rec.cpCommSeconds = sim::ticksToSec(attr.comm);
        rec.cpInterNodeCommSeconds =
            sim::ticksToSec(attr.interNodeComm);
        rec.cpApiSeconds = sim::ticksToSec(attr.api);
        rec.cpIdleSeconds = sim::ticksToSec(attr.idle);
        campaign::writeFile(path, campaign::recordsToJson({rec}));
        std::printf("run record written to %s\n", path.c_str());
    }
    if (args.has("trace")) {
        const std::string path = args.get("trace", "trace.json");
        trainer->profiler().writeChromeTrace(path);
        std::printf("trace written to %s\n", path.c_str());
    }

    // CI gate: fail when any validated projection misses the
    // re-simulated ground truth by more than --max-error percent.
    if (max_error_pct > 0) {
        int failures = 0;
        for (const analysis::WhatIfResult &r : results) {
            if (r.validated &&
                100.0 * r.errorFraction > max_error_pct) {
                std::fprintf(stderr,
                             "what-if '%s': projection error %.2f%% "
                             "exceeds %.2f%%\n",
                             r.label.c_str(), 100.0 * r.errorFraction,
                             max_error_pct);
                ++failures;
            }
        }
        if (failures)
            return 1;
    }
    return 0;
}

/** Run @p configs with a stderr progress line unless --quiet. */
std::vector<campaign::RunRecord>
runWithProgress(const std::vector<core::TrainConfig> &configs,
                const Args &args)
{
    const int jobs =
        args.getInt("jobs", campaign::defaultJobs());
    campaign::ProgressFn progress;
    if (!args.has("quiet")) {
        progress = [](std::size_t done, std::size_t total,
                      const campaign::RunRecord &r) {
            std::fprintf(stderr, "[%zu/%zu] %s%s\n", done, total,
                         r.key().c_str(), r.oom ? " (OOM)" : "");
        };
    }
    return campaign::runCampaign(configs, jobs, progress);
}

int
cmdCampaign(const Args &args)
{
    campaign::CampaignSpec spec = campaign::campaignSpecFromArgs(args);
    // Unlike sweep, an unqualified campaign covers the whole zoo
    // grid the paper measures.
    if (!args.has("model"))
        spec[Axis::Model] = dnn::modelNames();
    const auto configs = spec.expand();
    const auto records = runWithProgress(configs, args);
    TextTable table({"run", "epoch (s)", "fp+bp (s)", "wu (s)", "sync %",
                     "GPU0 GB", "digest"});
    for (const auto &r : records) {
        if (r.oom) {
            table.addRow({r.key(), "OOM", "-", "-", "-", "-", "-"});
            continue;
        }
        char digest[20];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(r.digest));
        table.addRow({r.key(), TextTable::num(r.epochSeconds, 2),
                      TextTable::num(r.fpBpSeconds, 2),
                      TextTable::num(r.wuSeconds, 2),
                      TextTable::num(100 * r.syncApiFraction, 1),
                      TextTable::num(r.gpu0TrainingBytes / 1e9, 2),
                      digest});
    }
    std::printf("%s", table.str().c_str());
    if (args.has("json")) {
        const std::string path = args.get("json", "campaign.json");
        campaign::writeFile(path, campaign::recordsToJson(records));
        std::printf("results JSON written to %s\n", path.c_str());
    }
    if (args.has("csv")) {
        const std::string path = args.get("csv", "campaign.csv");
        campaign::writeFile(path, campaign::recordsToCsv(records));
        std::printf("results CSV written to %s\n", path.c_str());
    }
    return 0;
}

int
cmdCheck(const Args &args)
{
    const std::string path =
        args.get("baseline", "results/baseline.json");
    std::vector<campaign::RunRecord> baseline =
        campaign::recordsFromJson(campaign::readFile(path));
    // Axis flags (--model, --gpus, --mode, ...) restrict the gate to
    // a sub-grid of the committed baseline.
    campaign::filterRecords(baseline, args);
    if (baseline.empty()) {
        std::fprintf(stderr,
                     "check: no baseline records match the filter\n");
        return 1;
    }
    campaign::CheckOptions options;
    options.tolerancePct = args.getDouble("tolerance", 0.0);
    options.jobs = args.getInt("jobs", campaign::defaultJobs());
    options.skipDigest = args.has("no-digest");
    const campaign::CheckReport report =
        campaign::checkAgainstBaseline(baseline, options);
    std::printf("%s", report.summary(options.tolerancePct).c_str());
    return report.pass ? 0 : 1;
}

/** @return @p images as a sweep header shows it: "256K" for 256000. */
std::string
imagesLabel(std::uint64_t images)
{
    return images % 1000 ? std::to_string(images)
                         : std::to_string(images / 1000) + "K";
}

int
cmdSweep(const Args &args)
{
    // The sweep is a campaign over (gpus, batch) pairs, rendered as
    // the classic p2p-vs-nccl table: every other axis takes one
    // value, and the two methods are the table's columns.
    for (std::size_t i = 0; i < core::cli::kAxisCount; ++i) {
        const core::cli::AxisRow &row = core::cli::axes()[i];
        const auto axis = static_cast<Axis>(i);
        if (axis != Axis::Gpus && axis != Axis::Batch &&
            core::cli::axisValues(args, row, {}).size() > 1) {
            sim::fatal("sweep takes one --", row.option, " value, got '",
                       args.get(row.option), "'");
        }
    }
    campaign::CampaignSpec spec = campaign::campaignSpecFromArgs(args);
    spec[Axis::Method] = {"p2p", "nccl"};
    // The table reads epoch, bubble and staleness only.
    spec.base.timingOnly = true;
    const auto configs = spec.expand();
    const auto records = campaign::runCampaign(
        configs, args.getInt("jobs", campaign::defaultJobs()));
    const core::TrainConfig &run = configs.front();
    const std::string images = imagesLabel(run.datasetImages);
    if (run.mode != core::ParallelismMode::SyncDp) {
        // Non-sync strategies have no method axis: one record per
        // (gpus, batch) cell, with the strategy's own headline metric.
        const bool async = run.mode == core::ParallelismMode::AsyncPs;
        std::printf("sweep of %s (%s, %s images):\n", run.model.c_str(),
                    core::parallelismModeName(run.mode), images.c_str());
        TextTable table({"gpus", "batch", "epoch (s)",
                         async ? "avg staleness" : "bubble %"});
        for (const campaign::RunRecord &r : records) {
            if (r.oom) {
                table.addRow({std::to_string(r.gpus),
                              std::to_string(r.batch), "OOM", "-"});
                continue;
            }
            table.addRow(
                {std::to_string(r.gpus), std::to_string(r.batch),
                 TextTable::num(r.epochSeconds, 2),
                 async ? TextTable::num(r.avgStaleness, 2)
                       : TextTable::num(100 * r.bubbleFraction, 1)});
        }
        std::printf("%s", table.str().c_str());
        return 0;
    }
    std::printf("sweep of %s (%s images):\n", run.model.c_str(),
                images.c_str());
    TextTable table({"gpus", "batch", "p2p epoch (s)", "nccl epoch (s)",
                     "best"});
    // Method is the innermost axis with more than one value: records
    // come in (p2p, nccl) pairs per (gpus, batch) cell.
    for (std::size_t i = 0; i + 1 < records.size(); i += 2) {
        const campaign::RunRecord &p2p = records[i];
        const campaign::RunRecord &nccl = records[i + 1];
        if (p2p.oom || nccl.oom) {
            table.addRow({std::to_string(p2p.gpus),
                          std::to_string(p2p.batch), "OOM", "OOM",
                          "-"});
            continue;
        }
        table.addRow(
            {std::to_string(p2p.gpus), std::to_string(p2p.batch),
             TextTable::num(p2p.epochSeconds, 2),
             TextTable::num(nccl.epochSeconds, 2),
             p2p.epochSeconds <= nccl.epochSeconds ? "p2p" : "nccl"});
    }
    std::printf("%s", table.str().c_str());
    return 0;
}

int
cmdTopo(const Args &args)
{
    const hw::Platform plat = hw::makePlatform(
        args.get("platform", hw::kDefaultPlatform));
    const hw::Topology &topo = plat.topology;
    const hw::NodeId gpus =
        static_cast<hw::NodeId>(topo.numGpus());
    std::printf("%s: %s\n", plat.name.c_str(),
                plat.description.c_str());
    TextTable table({"pair", "route", "bw (GB/s)"});
    for (hw::NodeId a = 0; a < gpus; ++a) {
        for (hw::NodeId b = a + 1; b < gpus; ++b) {
            table.addRow({"GPU" + std::to_string(a) + "-GPU" +
                              std::to_string(b),
                          hw::routeKindName(topo.findRoute(a, b).kind),
                          TextTable::num(topo.routeBandwidthGbps(a, b),
                                         0)});
        }
    }
    std::printf("%s", table.str().c_str());
    return 0;
}

int
cmdPlatforms(const Args &)
{
    TextTable table({"name", "gpus", "gpu", "description"});
    for (const std::string &name : hw::platformNames()) {
        const hw::Platform plat = hw::makePlatform(name);
        table.addRow({plat.name,
                      std::to_string(plat.topology.numGpus()),
                      plat.gpuSpec.name, plat.description});
    }
    std::printf("%s", table.str().c_str());
    return 0;
}

int
cmdInterconnects(const Args &)
{
    TextTable table({"name", "GB/s per dir", "latency (us)",
                     "description"});
    for (const std::string &name : hw::interconnectNames()) {
        const hw::Interconnect ic = hw::makeInterconnect(name);
        table.addRow({ic.name, TextTable::num(ic.gbpsPerDir, 1),
                      TextTable::num(ic.latencyUs, 1),
                      ic.description});
    }
    std::printf("%s", table.str().c_str());
    return 0;
}

int
cmdSchedulers(const Args &)
{
    TextTable table({"name", "description"});
    for (const comm::SchedulerInfo &info : comm::schedulerRegistry())
        table.addRow({info.name, info.description});
    std::printf("%s", table.str().c_str());
    return 0;
}

int
cmdCompressors(const Args &)
{
    TextTable table({"name", "uses ratio", "description"});
    for (const comm::CompressorInfo &info :
         comm::compressorRegistry()) {
        table.addRow({info.name, info.usesRatio ? "yes" : "no",
                      info.description});
    }
    std::printf("%s", table.str().c_str());
    return 0;
}

int
cmdAdvise(const Args &args)
{
    // --microbatches is the candidate list, read once here with each
    // value checked by its axis row. A single value is also the base
    // depth, which the largest-batch probe uses.
    const core::cli::AxisRow &depth =
        core::cli::axisRow(Axis::Microbatches);
    core::TrainConfig cfg =
        core::cli::configFromArgs(args.without(depth.option));
    analysis::AdviseOptions opts;
    for (const std::string &value : core::cli::axisValues(args, depth, {})) {
        core::TrainConfig scratch;
        depth.read(scratch, value);
        opts.microbatchCounts.push_back(scratch.microbatches);
    }
    if (opts.microbatchCounts.size() == 1)
        cfg.microbatches = opts.microbatchCounts.front();
    if (!args.has("batch")) {
        // Legacy behavior: with no --batch, advise first picks the
        // largest per-GPU batch that fits the base strategy, then
        // searches strategies at that batch.
        const auto best = core::TrainerBase::maxBatchPerGpu(
            cfg, {16, 32, 64, 128, 256, 512});
        if (best) {
            cfg.batchPerGpu = *best;
            std::printf("%s on %d GPUs: largest fitting batch is %d "
                        "per GPU (%s)\n",
                        cfg.model.c_str(), cfg.numGpus, *best,
                        core::parallelismModeName(cfg.mode));
        } else {
            std::printf("%s does not fit a 16 GB V100 at any batch "
                        "size under %s; searching staged "
                        "strategies at batch %d\n",
                        cfg.model.c_str(),
                        core::parallelismModeName(cfg.mode),
                        cfg.batchPerGpu);
        }
    }

    if (args.has("mode"))
        opts.modes = {cfg.mode};
    opts.stageCounts = args.getIntList("stages", {});
    opts.platforms = args.getList("platforms", {});
    opts.topK = args.getInt("topk", 3);

    const analysis::AdviseResult result =
        analysis::adviseStrategies(cfg, opts);
    std::printf("strategy search for %s, global batch %d "
                "(what-if-first: %zu memory probes, %zu projections, "
                "%zu full simulations):\n",
                cfg.model.c_str(), cfg.globalBatch(), result.probes,
                result.projections, result.fullSims);
    std::printf("%s", analysis::adviseTable(result).c_str());
    if (result.ranked.empty()) {
        std::printf("no strategy fits in GPU memory\n");
        return 1;
    }
    const analysis::StrategyRow &winner = result.ranked.front();
    std::printf("advice: %s — %.2fs/epoch, %.2f GB peak "
                "(validated by full re-simulation)\n",
                winner.label.c_str(), winner.epochSeconds,
                winner.memGB);
    return 0;
}

int
cmdLayers(const Args &args)
{
    core::TrainConfig cfg = core::cli::configFromArgs(args);
    dnn::Network net = args.has("model-file")
                           ? dnn::loadNetworkFile(args.get("model-file"))
                           : dnn::buildByName(cfg.model);
    const auto summary = core::profileLayers(net, cfg);
    const std::size_t top =
        static_cast<std::size_t>(args.getInt("top", 15));
    std::printf("%s, batch %d — hottest %zu layers by kernel time:\n",
                net.name().c_str(), cfg.batchPerGpu, top);
    TextTable table({"layer", "kind", "output", "fwd (us)", "bwd (us)",
                     "GFLOPs", "params", "act (MB)"});
    for (const auto &row : summary.hottest(top)) {
        table.addRow(
            {row.name, row.kind, row.outputShape,
             TextTable::num(row.fwdUs, 1), TextTable::num(row.bwdUs, 1),
             TextTable::num(row.gflops, 2),
             std::to_string(row.params),
             TextTable::num(row.activationBytes / 1e6, 2)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("totals: fwd %.2f ms, bwd %.2f ms, %.1fM params, "
                "%.1f MB stored activations\n",
                summary.totalFwdUs / 1e3, summary.totalBwdUs / 1e3,
                summary.totalParams / 1e6,
                summary.totalActivationBytes / 1e6);
    return 0;
}

int
cmdVerify(const Args &args)
{
    core::TrainConfig cfg = core::cli::configFromArgs(args);
    const auto check = core::checkDeterminism(cfg);
    std::printf("%s\n", check.summary().c_str());
    return check.deterministic ? 0 : 1;
}

int
cmdModels(const Args &)
{
    TextTable table({"name", "params (M)", "fwd GFLOPs/img", "layers"});
    for (const std::string &name : dnn::extendedModelNames()) {
        dnn::Network net = dnn::buildByName(name);
        table.addRow({name, TextTable::num(net.paramCount() / 1e6, 2),
                      TextTable::num(net.forwardFlops(1) / 1e9, 2),
                      std::to_string(net.layers().size())});
    }
    std::printf("%s", table.str().c_str());
    return 0;
}

using Names = std::vector<std::string>;

Names
operator+(Names a, const Names &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** @return the axis rows' options, plus their grid spellings for a
 * command that reads value lists. */
Names
axisOptions(bool grid)
{
    Names out;
    for (const core::cli::AxisRow &row : core::cli::axes()) {
        out.push_back(row.option);
        if (grid && row.gridOption)
            out.push_back(row.gridOption);
    }
    return out;
}

/** A subcommand: its handler and every option it reads. */
struct Command
{
    const char *name;
    int (*run)(const Args &);
    Names options;
};

/** Fatal on an option @p known does not list, before anything runs:
 * a typo must not silently run the default. */
void
checkOptions(const Args &args, const Names &known)
{
    for (const std::string &name : args.names()) {
        if (std::find(known.begin(), known.end(), name) != known.end())
            continue;
        Names spelled;
        for (const std::string &k : known)
            spelled.push_back("--" + k);
        sim::fatal("unknown option '--", name, "'",
                   sim::didYouMean("--" + name, spelled));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::vector<std::string> tokens(argv + 2, argv + argc);
    const Args args = Args::parse(tokens);
    if (args.has("help") || command == "help")
        return usage();

    const Names config = axisOptions(false) + core::cli::baseOptions();
    const Names grid = axisOptions(true) + core::cli::baseOptions();
    Names sweep = grid + Names{"jobs"};
    std::erase(sweep, "method"); // both methods are its columns
    const Command commands[] = {
        {"train", cmdTrain,
         config + Names{"model-file", "report", "trace", "csv"}},
        {"sweep", cmdSweep, sweep},
        {"campaign", cmdCampaign,
         grid + Names{"jobs", "json", "csv", "quiet"}},
        {"check", cmdCheck,
         axisOptions(true) +
             Names{"baseline", "tolerance", "jobs", "no-digest"}},
        {"topo", cmdTopo, {"platform"}},
        {"platforms", cmdPlatforms, {}},
        {"interconnects", cmdInterconnects, {}},
        {"schedulers", cmdSchedulers, {}},
        {"compressors", cmdCompressors, {}},
        {"advise", cmdAdvise, config + Names{"stages", "platforms", "topk"}},
        {"analyze", cmdAnalyze,
         config + Names{"what-if", "no-validate", "max-error", "top",
                        "json", "record", "trace", "schedulers"}},
        {"layers", cmdLayers, config + Names{"model-file", "top"}},
        {"models", cmdModels, {}},
        {"verify", cmdVerify, config},
    };
    try {
        for (const Command &c : commands) {
            if (command == c.name) {
                checkOptions(args, c.options);
                return c.run(args);
            }
        }
    } catch (const dgxsim::sim::FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
}
