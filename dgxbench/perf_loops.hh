/**
 * @file
 * The synthetic storm loops that isolate single simulator layers:
 * EventQueue scheduling (storm and cancel/reschedule churn),
 * FlowNetwork rate re-solving under flow churn, and the comm
 * scheduler's chunk pump with and without codec math.
 *
 * These are the same loops, at the same sizes and with the same LCG
 * constants, as bench/perf_simulator.cc's BENCH_simulator.json
 * metrics, so a dgxbench layer probe and a BENCH trajectory point
 * measure identical work. Each returns items per second of its own
 * timed section (set-up such as adding channels is excluded).
 */

#ifndef DGXBENCH_PERF_LOOPS_HH
#define DGXBENCH_PERF_LOOPS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "comm/compression.hh"
#include "comm/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/flow_network.hh"

namespace dgxsim::bench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Deterministic PRNG: bench inputs must not depend on libc rand. */
struct Lcg
{
    std::uint64_t state;
    explicit Lcg(std::uint64_t seed) : state(seed) {}
    std::uint64_t operator()()
    {
        state = state * 6364136223846793005ULL +
                1442695040888963407ULL;
        return state >> 33;
    }
};

/** Schedule at pseudo-random future ticks, draining as we go. */
inline double
measureEqStorm(int n)
{
    sim::EventQueue q;
    Lcg lcg(99);
    long sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
        q.schedule(q.now() + 1 + lcg() % 1000, [&sink] { ++sink; });
        if (i % 4 == 3)
            q.step();
    }
    q.run();
    return n / secondsSince(t0);
}

/**
 * The FlowNetwork completion pattern: K live handles cancelled and
 * rescheduled every round — the arena free-list's hot case.
 */
inline double
measureEqChurn(int rounds)
{
    sim::EventQueue q;
    Lcg lcg(7);
    const int K = 64;
    long sink = 0;
    std::vector<sim::EventHandle> handles(K);
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (int k = 0; k < K; ++k) {
            q.cancel(handles[k]);
            handles[k] =
                q.schedule(q.now() + 1 + lcg() % 64, [&sink] { ++sink; });
        }
        q.step();
    }
    q.run();
    return static_cast<double>(rounds) * K / secondsSince(t0);
}

/**
 * allocateRates under churn: a DGX-1-ish 64-channel substrate with
 * 48 long-lived background flows, then a stream of short flows whose
 * start/finish forces rate recomputation each time.
 */
inline double
measureFlowChurn(int churn)
{
    sim::EventQueue q;
    sim::FlowNetwork net(q);
    const std::size_t C = 64;
    for (std::size_t c = 0; c < C; ++c)
        net.addChannel(25.0, "ch");
    Lcg lcg(0x2545F4914F6CDD1DULL);
    for (int f = 0; f < 48; ++f) {
        const sim::FlowNetwork::ChannelId a = lcg() % C;
        sim::FlowNetwork::ChannelId b = lcg() % C;
        if (b == a)
            b = (a + 1) % C;
        net.startFlow(static_cast<sim::Bytes>(1) << 40, {a, b},
                      nullptr);
    }
    int done = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < churn; ++i) {
        const sim::FlowNetwork::ChannelId a = lcg() % C;
        sim::FlowNetwork::ChannelId b = lcg() % C;
        if (b == a)
            b = (a + 1) % C;
        net.startFlow(1000, {a, b}, [&done] { ++done; });
        while (done <= i && q.step()) {
        }
    }
    return churn / secondsSince(t0);
}

/**
 * The partitioned policy's worst case: every round submits one jumbo
 * gradient (256 MiB -> 64 chunks) plus 63 small urgent buckets that
 * must all overtake it, then drains the queue chunk by chunk. This
 * exercises the priority heap, the credit window and the reassembly
 * audit on every admitted chunk.
 */
inline double
measureSchedStorm(int rounds)
{
    auto sched =
        comm::makeScheduler(comm::SchedulerPolicy::Partitioned,
                            comm::kDefaultPartitionBytes,
                            comm::kDefaultCreditBytes, {});
    long done = 0;
    long chunks = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        sched->submit(comm::OpKind::Reduce, sim::Bytes(256) << 20, 0,
                      [&done] { ++done; }, nullptr);
        for (int i = 0; i < 63; ++i) {
            sched->submit(comm::OpKind::Reduce, sim::Bytes(64) << 10,
                          1 + i, [&done] { ++done; }, nullptr);
        }
        comm::SchedChunk chunk;
        while (sched->next(chunk)) {
            ++chunks;
            if (sched->finishChunk(chunk))
                chunk.op->done();
        }
    }
    return chunks / secondsSince(t0);
}

/**
 * The compressed wire's hot path: the sched-storm drain with the
 * per-chunk codec math (wire shrink + encode/decode kernel costs for
 * a 4-GPU all-reduce) computed for every admitted chunk, the way
 * Communicator::dispatchCompressed does. Jumbo 256 MiB gradients
 * through the partitioned policy give the highest chunk rate and the
 * biggest shrink, so codec arithmetic dominates the loop.
 */
inline double
measureCompressStorm(int rounds)
{
    auto sched =
        comm::makeScheduler(comm::SchedulerPolicy::Partitioned,
                            comm::kDefaultPartitionBytes,
                            comm::kDefaultCreditBytes, {});
    long done = 0;
    long chunks = 0;
    double wireSink = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        sched->submit(comm::OpKind::Reduce, sim::Bytes(256) << 20, 0,
                      [&done] { ++done; }, nullptr);
        for (int i = 0; i < 63; ++i) {
            sched->submit(comm::OpKind::Reduce, sim::Bytes(64) << 10,
                          1 + i, [&done] { ++done; }, nullptr);
        }
        comm::SchedChunk chunk;
        while (sched->next(chunk)) {
            ++chunks;
            const sim::Bytes wire = comm::compressedWireBytes(
                comm::Compressor::Dgc, chunk.bytes, 0.01);
            const auto enc = comm::compressKernelCost(
                comm::Compressor::Dgc, chunk.bytes, wire);
            const auto dec = comm::decompressKernelCost(
                comm::Compressor::Dgc, chunk.bytes, wire);
            // 4 senders encode + 4 receivers decode per all-reduce.
            wireSink += static_cast<double>(wire) +
                        4 * (enc.flops + dec.flops) +
                        4 * (enc.bytes + dec.bytes);
            if (sched->finishChunk(chunk))
                chunk.op->done();
        }
    }
    if (wireSink < 0) // defeat optimizing the codec math away
        std::fprintf(stderr, "%f\n", wireSink);
    return chunks / secondsSince(t0);
}

} // namespace dgxsim::bench

#endif // DGXBENCH_PERF_LOOPS_HH
