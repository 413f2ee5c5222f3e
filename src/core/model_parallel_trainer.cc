#include "core/model_parallel_trainer.hh"

#include <algorithm>

#include "cuda/kernel_model.hh"
#include "sim/auditor.hh"
#include "sim/logging.hh"

namespace dgxsim::core {

namespace {

const profiling::Name kPtoP("PtoP");

} // namespace

ModelParallelTrainer::ModelParallelTrainer(TrainConfig cfg)
    : TrainerBase(std::move(cfg), std::nullopt)
{
    init();
}

ModelParallelTrainer::ModelParallelTrainer(TrainConfig cfg,
                                           dnn::Network net,
                                           hw::Topology topo)
    : TrainerBase(std::move(cfg), std::move(net), std::move(topo))
{
    init();
}

void
ModelParallelTrainer::init()
{
    // Pipeline keeps its 1F1B identity; every other mode normalizes
    // to the gpipe fill-drain strategy, as before the refactor.
    if (cfg_.mode != ParallelismMode::Pipeline)
        cfg_.mode = ParallelismMode::ModelParallel;
    schedule_ = makeStageSchedule(cfg_.mode);
    microbatches_ = cfg_.microbatches > 0 ? cfg_.microbatches : cfg_.numGpus;
    const int global_batch = cfg_.globalBatch();
    if (global_batch % microbatches_ != 0) {
        sim::fatal("global batch ", global_batch,
                   " not divisible into ", microbatches_,
                   " microbatches");
    }
    microbatchSize_ = global_batch / microbatches_;
    for (std::size_t g = 0; g < machine_.gpus().size(); ++g) {
        const std::string stage = "stage" + std::to_string(g);
        streams_.push_back(&machine_.addStream(g, stage));
        fwdLabels_.emplace_back(stage + "_fwd");
        bwdLabels_.emplace_back(stage + "_bwd");
    }
    machine_.wireAuditor();
    partition();
}

ModelParallelTrainer::~ModelParallelTrainer() = default;

void
ModelParallelTrainer::partition()
{
    const double total = net_.forwardFlops(1);
    const std::size_t layers = net_.layers().size();
    const std::size_t n = machine_.gpus().size();
    std::size_t first = 0;
    double used = 0;
    for (std::size_t s = 0; s < n; ++s) {
        const double target = total * static_cast<double>(s + 1) /
                              static_cast<double>(n);
        std::size_t last = first;
        // Leave enough layers for the remaining stages.
        const std::size_t max_last = layers - (n - s);
        while (last < max_last) {
            used += net_.layers()[last]->forwardFlops(1);
            if (used >= target && s + 1 < n)
                break;
            ++last;
        }
        if (last >= layers)
            last = layers - 1;
        if (s + 1 == n)
            last = layers - 1;
        stages_.push_back({first, last});
        first = last + 1;
        if (first >= layers && s + 1 < n)
            sim::fatal("network too shallow for ", n, " stages");
    }
}

sim::Tick
ModelParallelTrainer::stageKernelTicks(std::size_t s,
                                       bool backward) const
{
    sim::Tick total = 0;
    for (std::size_t l = stages_[s].first; l <= stages_[s].second;
         ++l) {
        const dnn::Layer &layer = *net_.layers()[l];
        const double flops = backward
                                 ? layer.backwardFlops(microbatchSize_)
                                 : layer.forwardFlops(microbatchSize_);
        const double bytes = backward
                                 ? layer.backwardBytes(microbatchSize_)
                                 : layer.forwardBytes(microbatchSize_);
        total += cuda::kernelDuration(
            cfg_.gpuSpec,
            cuda::KernelCost{flops, bytes,
                             layer.tensorEligible() &&
                                 cfg_.useTensorCores,
                             layer.efficiencyScale()});
    }
    return total;
}

sim::Bytes
ModelParallelTrainer::boundaryBytes(std::size_t s) const
{
    // Activations crossing from stage s to s+1 for one microbatch.
    const dnn::Layer &last = *net_.layers()[stages_[s].second];
    return last.outputShape().bytes() *
           static_cast<sim::Bytes>(microbatchSize_);
}

// --- gpipe: legacy eager dispatcher -----------------------------------
//
// Microbatches chase each other down (and back up) the pipeline as
// plain event chains; the fill-drain order emerges from per-stage
// stream serialization. This path's record stream is pinned by
// digest-parity tests — do not reorder its events.

void
ModelParallelTrainer::forwardStage(int m, std::size_t s)
{
    cuda::Stream &stream = *streams_[s];
    stream.enqueueKernel(fwdLabels_[s], stageKernelTicks(s, false));
    stream.enqueueHostFn([this, m, s]() {
        if (s + 1 < stages_.size()) {
            const sim::Bytes bytes = boundaryBytes(s);
            const sim::Tick start = machine_.queue().now();
            machine_.fabric().transfer(
                machine_.gpus()[s], machine_.gpus()[s + 1], bytes,
                [this, m, s, bytes, start]() {
                    machine_.profiler().recordCopy(
                        kPtoP, machine_.gpus()[s],
                        machine_.gpus()[s + 1], bytes, start,
                        machine_.queue().now());
                    forwardStage(m, s + 1);
                });
        } else {
            // Head of the pipeline: turn around into backward.
            backwardStage(m, s);
        }
    });
}

void
ModelParallelTrainer::backwardStage(int m, std::size_t s)
{
    cuda::Stream &stream = *streams_[s];
    stream.enqueueKernel(bwdLabels_[s], stageKernelTicks(s, true));
    stream.enqueueHostFn([this, m, s]() {
        if (s > 0) {
            const sim::Bytes bytes = boundaryBytes(s - 1);
            const sim::Tick start = machine_.queue().now();
            machine_.fabric().transfer(
                machine_.gpus()[s], machine_.gpus()[s - 1], bytes,
                [this, m, s, bytes, start]() {
                    machine_.profiler().recordCopy(
                        kPtoP, machine_.gpus()[s],
                        machine_.gpus()[s - 1], bytes, start,
                        machine_.queue().now());
                    backwardStage(m, s - 1);
                });
        } else {
            ++microbatchesDone_;
            if (microbatchesDone_ == microbatches_) {
                // Local per-stage weight updates; no inter-GPU
                // gradient communication at all.
                for (std::size_t st = 0; st < stages_.size(); ++st)
                    enqueueSgdUpdate(st);
            }
        }
    });
}

// --- 1F1B: programmed dispatcher --------------------------------------
//
// Each stage walks its StageSchedule slot program in order, pausing
// whenever the next slot's operand (an activation from upstream, a
// boundary gradient from downstream) has not arrived yet. Boundary
// tensors travel through comm::StagePump, so the comm layer's
// scheduler policies apply to activation traffic.

void
ModelParallelTrainer::runProgrammed()
{
    const std::size_t p = stages_.size();
    states_.assign(p, StageState{});
    fwdPumps_.clear();
    bwdPumps_.clear();
    fwdPumps_.resize(p);
    bwdPumps_.resize(p);
    for (std::size_t s = 0; s < p; ++s) {
        StageState &st = states_[s];
        st.program = schedule_->stageProgram(s, p, microbatches_);
        // Stage 0 reads microbatches straight from the dataset
        // staging buffers; everyone else waits for upstream.
        st.fwdReady.assign(static_cast<std::size_t>(microbatches_),
                           s == 0 ? 1 : 0);
        st.bwdReady.assign(static_cast<std::size_t>(microbatches_), 0);
        if (s + 1 < p) {
            fwdPumps_[s] = std::make_unique<comm::StagePump>(
                machine_.queue(), machine_.fabric(),
                machine_.profiler(), machine_.gpus()[s],
                machine_.gpus()[s + 1], cfg_.commConfig);
        }
        if (s > 0) {
            bwdPumps_[s] = std::make_unique<comm::StagePump>(
                machine_.queue(), machine_.fabric(),
                machine_.profiler(), machine_.gpus()[s],
                machine_.gpus()[s - 1], cfg_.commConfig);
        }
    }
    for (std::size_t s = 0; s < p; ++s)
        tryAdvance(s);
}

void
ModelParallelTrainer::tryAdvance(std::size_t s)
{
    StageState &st = states_[s];
    while (st.nextSlot < st.program.size()) {
        const StageSlot &slot = st.program[st.nextSlot];
        const std::size_t m =
            static_cast<std::size_t>(slot.microbatch);
        const bool ready = slot.op == StageSlot::Op::Fwd
                               ? st.fwdReady[m] != 0
                               : st.bwdReady[m] != 0;
        if (!ready)
            return;
        ++st.nextSlot;
        if (slot.op == StageSlot::Op::Fwd)
            enqueueFwd(s, slot.microbatch);
        else
            enqueueBwd(s, slot.microbatch);
    }
}

void
ModelParallelTrainer::enqueueFwd(std::size_t s, int m)
{
    streams_[s]->enqueueKernel(fwdLabels_[s], stageKernelTicks(s, false));
    streams_[s]->enqueueHostFn([this, s, m]() {
        StageState &st = states_[s];
        // The activation is live from here until the matching
        // backward consumes it; the planner charged the schedule's
        // peak, so exceeding it would mean the planner lied.
        ++st.liveNow;
        st.livePeak = std::max(st.livePeak, st.liveNow);
        const int planned = schedule_->peakLiveMicrobatches(
            s, stages_.size(), microbatches_);
        if (st.liveNow > planned) {
            sim::fatal("stage ", s, " holds ", st.liveNow,
                       " live microbatches, schedule planned ",
                       planned);
        }
        if (s + 1 < stages_.size()) {
            fwdPumps_[s]->send(
                boundaryBytes(s), /*priority=*/0, [this, s, m]() {
                    states_[s + 1]
                        .fwdReady[static_cast<std::size_t>(m)] = 1;
                    tryAdvance(s + 1);
                });
        } else {
            // Tail of the pipeline: turn straight around.
            st.bwdReady[static_cast<std::size_t>(m)] = 1;
        }
        tryAdvance(s);
    });
}

void
ModelParallelTrainer::enqueueBwd(std::size_t s, int m)
{
    streams_[s]->enqueueKernel(bwdLabels_[s], stageKernelTicks(s, true));
    streams_[s]->enqueueHostFn([this, s, m]() {
        StageState &st = states_[s];
        --st.liveNow;
        ++st.bwdDone;
        if (s > 0) {
            // Boundary gradients outrank activations so a stalled
            // upstream stage unblocks as soon as possible.
            bwdPumps_[s]->send(
                boundaryBytes(s - 1), /*priority=*/1, [this, s, m]() {
                    states_[s - 1]
                        .bwdReady[static_cast<std::size_t>(m)] = 1;
                    tryAdvance(s - 1);
                });
        }
        // A stage's weight update is purely local: it launches as
        // soon as its own last backward retires, overlapping the
        // rest of the cooldown upstream.
        if (st.bwdDone == microbatches_)
            enqueueSgdUpdate(s);
        tryAdvance(s);
    });
}

void
ModelParallelTrainer::enqueueSgdUpdate(std::size_t s)
{
    sim::Bytes params = 0;
    for (std::size_t l = stages_[s].first; l <= stages_[s].second; ++l)
        params += net_.layers()[l]->paramBytes();
    static const profiling::Name sgd_update("sgdUpdate");
    streams_[s]->enqueueKernel(
        sgd_update,
        cuda::kernelDuration(
            cfg_.gpuSpec,
            cuda::KernelCost{params / 2.0, 3.0 * params, false}));
}

// --- shared run -------------------------------------------------------

TrainReport
ModelParallelTrainer::run()
{
    TrainReport report;
    report.config = cfg_;
    report.microbatches = microbatches_;
    report.iterations = cfg_.iterationsPerEpoch();

    std::vector<int> live;
    for (std::size_t s = 0; s < stages_.size(); ++s)
        live.push_back(schedule_->peakLiveMicrobatches(
            s, stages_.size(), microbatches_));
    report.stagePeakLiveMicrobatches = live;

    try {
        machine_.setupModelParallelMemory(net_, stages_,
                                          microbatchSize_, live,
                                          microbatches_);
    } catch (const sim::FatalError &err) {
        report.oom = true;
        report.oomDetail = err.what();
        return report;
    }

    machine_.fillMemoryReport(report);

    if (cfg_.measuredIterations <= 0)
        return report; // memory-only probe

    microbatchesDone_ = 0;
    if (cfg_.mode == ParallelismMode::Pipeline) {
        runProgrammed();
    } else {
        for (int m = 0; m < microbatches_; ++m)
            forwardStage(m, 0);
    }
    const sim::Tick end = machine_.queue().run();

    machine_.finishRun(report, [this](sim::Auditor &auditor) {
        for (const auto &pump : fwdPumps_) {
            if (pump)
                auditor.expect(pump->idle(), machine_.queue().now(),
                               "activation pump busy after the "
                               "queue drained");
        }
        for (const auto &pump : bwdPumps_) {
            if (pump)
                auditor.expect(pump->idle(), machine_.queue().now(),
                               "gradient pump busy after the queue "
                               "drained");
        }
    });

    report.iterationSeconds = sim::ticksToSec(end);
    report.setupSeconds = cfg_.setupOnceSeconds;
    report.epochSeconds =
        report.iterationSeconds *
            static_cast<double>(report.iterations) +
        report.setupSeconds;

    sim::Tick busy = 0;
    for (const auto &stream : streams_)
        busy += stream->kernelBusyTicks();
    report.bubbleFraction =
        1.0 - static_cast<double>(busy) /
                  (static_cast<double>(end) * streams_.size());

    const profiling::Profiler &prof = machine_.profiler();
    report.activationBytesPerIter =
        static_cast<double>(prof.copiedBytes("PtoP"));
    report.interGpuBytesPerIter = report.activationBytesPerIter;
    report.syncApiFraction =
        prof.apiTimeFraction("cudaStreamSynchronize");

    const double total_flops = net_.forwardFlops(1);
    for (const auto &[first, last] : stages_) {
        sim::Bytes params = 0;
        double flops = 0;
        for (std::size_t l = first; l <= last; ++l) {
            params += net_.layers()[l]->paramBytes();
            flops += net_.layers()[l]->forwardFlops(1);
        }
        report.stageParamBytes.push_back(params);
        report.stageFlopsShare.push_back(flops / total_flops);
    }
    return report;
}

} // namespace dgxsim::core
