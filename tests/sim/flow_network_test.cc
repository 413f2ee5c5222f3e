/**
 * @file
 * Unit and property tests for the max-min fair fluid flow network.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flow_network.hh"
#include "sim/logging.hh"

namespace {

using dgxsim::sim::Bytes;
using dgxsim::sim::EventQueue;
using dgxsim::sim::FlowNetwork;
using dgxsim::sim::Tick;

/** 1 byte per tick keeps the arithmetic exact in tests. */
constexpr double kUnitRate = 1.0;

TEST(FlowNetworkTest, SingleFlowTakesBytesOverCapacity)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    bool done = false;
    net.startFlow(1000, {ch}, [&] { done = true; });
    q.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(FlowNetworkTest, LatencyDelaysCompletion)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    Tick finished = 0;
    net.startFlow(1000, {ch}, [&] { finished = q.now(); }, 250);
    q.run();
    EXPECT_EQ(finished, 1250u);
}

TEST(FlowNetworkTest, ZeroByteFlowCompletesAfterLatencyOnly)
{
    EventQueue q;
    FlowNetwork net(q);
    net.addChannel(kUnitRate);
    Tick finished = 0;
    net.startFlow(0, {}, [&] { finished = q.now(); }, 42);
    q.run();
    EXPECT_EQ(finished, 42u);
}

TEST(FlowNetworkTest, TwoFlowsShareOneChannelFairly)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    Tick t1 = 0, t2 = 0;
    net.startFlow(1000, {ch}, [&] { t1 = q.now(); });
    net.startFlow(1000, {ch}, [&] { t2 = q.now(); });
    q.run();
    // Both at half rate the whole way: 2000 ticks each.
    EXPECT_NEAR(static_cast<double>(t1), 2000.0, 2.0);
    EXPECT_NEAR(static_cast<double>(t2), 2000.0, 2.0);
}

TEST(FlowNetworkTest, ShortFlowFreesBandwidthForLongFlow)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    Tick t_short = 0, t_long = 0;
    net.startFlow(3000, {ch}, [&] { t_long = q.now(); });
    net.startFlow(1000, {ch}, [&] { t_short = q.now(); });
    q.run();
    // Share until the short one finishes at 2000 (1000 bytes at 1/2),
    // then the long one has 2000 bytes left at full rate -> 4000.
    EXPECT_NEAR(static_cast<double>(t_short), 2000.0, 2.0);
    EXPECT_NEAR(static_cast<double>(t_long), 4000.0, 4.0);
}

TEST(FlowNetworkTest, LateArrivalSlowsExistingFlow)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    Tick t1 = 0;
    net.startFlow(1000, {ch}, [&] { t1 = q.now(); });
    q.schedule(500, [&] { net.startFlow(5000, {ch}, [] {}); });
    q.run();
    // First flow: 500 bytes at full rate, 500 at half -> 1500.
    EXPECT_NEAR(static_cast<double>(t1), 1500.0, 2.0);
}

TEST(FlowNetworkTest, MultiHopFlowLimitedByBottleneck)
{
    EventQueue q;
    FlowNetwork net(q);
    auto fast = net.addChannel(4 * kUnitRate);
    auto slow = net.addChannel(kUnitRate);
    Tick t = 0;
    net.startFlow(1000, {fast, slow}, [&] { t = q.now(); });
    q.run();
    EXPECT_NEAR(static_cast<double>(t), 1000.0, 2.0);
}

TEST(FlowNetworkTest, MaxMinAllocationClassicExample)
{
    // Classic max-min: flows A:{1}, B:{1,2}, C:{2}; cap(1)=1, cap(2)=2.
    // B is bottlenecked on channel 1 at 0.5; C then gets 1.5 on
    // channel 2; A gets 0.5.
    EventQueue q;
    FlowNetwork net(q);
    auto c1 = net.addChannel(1.0);
    auto c2 = net.addChannel(2.0);
    auto fa = net.startFlow(1000000, {c1}, [] {});
    auto fb = net.startFlow(1000000, {c1, c2}, [] {});
    auto fc = net.startFlow(1000000, {c2}, [] {});
    // Rates are set synchronously at start; inspect before running.
    EXPECT_NEAR(net.currentRate(fa), 0.5, 1e-9);
    EXPECT_NEAR(net.currentRate(fb), 0.5, 1e-9);
    EXPECT_NEAR(net.currentRate(fc), 1.5, 1e-9);
    q.run();
}

TEST(FlowNetworkTest, RatesNeverExceedChannelCapacity)
{
    EventQueue q;
    FlowNetwork net(q);
    std::vector<FlowNetwork::ChannelId> chans;
    for (int i = 0; i < 4; ++i)
        chans.push_back(net.addChannel(1.0 + i));
    std::vector<FlowNetwork::FlowId> flows;
    // A deterministic mesh of overlapping paths.
    flows.push_back(net.startFlow(1 << 20, {chans[0]}, [] {}));
    flows.push_back(net.startFlow(1 << 20, {chans[0], chans[1]}, [] {}));
    flows.push_back(net.startFlow(1 << 20, {chans[1], chans[2]}, [] {}));
    flows.push_back(net.startFlow(1 << 20, {chans[2], chans[3]}, [] {}));
    flows.push_back(net.startFlow(1 << 20, {chans[3], chans[0]}, [] {}));

    // Channel loads must respect capacity.
    std::vector<double> load(4, 0.0);
    load[0] = net.currentRate(flows[0]) + net.currentRate(flows[1]) +
              net.currentRate(flows[4]);
    load[1] = net.currentRate(flows[1]) + net.currentRate(flows[2]);
    load[2] = net.currentRate(flows[2]) + net.currentRate(flows[3]);
    load[3] = net.currentRate(flows[3]) + net.currentRate(flows[4]);
    for (int i = 0; i < 4; ++i)
        EXPECT_LE(load[i], net.channelCapacity(chans[i]) + 1e-9);
    // Every flow makes progress.
    for (auto f : flows)
        EXPECT_GT(net.currentRate(f), 0.0);
    q.run();
}

TEST(FlowNetworkTest, DeliveredBytesMatchPayload)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    net.startFlow(1234, {ch}, [] {});
    net.startFlow(4321, {ch}, [] {});
    q.run();
    EXPECT_NEAR(net.bytesDelivered(ch), 1234 + 4321, 1.0);
}

TEST(FlowNetworkTest, CapacityChangeReschedulesFlows)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    Tick t = 0;
    net.startFlow(1000, {ch}, [&] { t = q.now(); });
    q.schedule(500, [&] { net.setChannelCapacity(ch, 5.0); });
    q.run();
    // 500 bytes at rate 1, then 500 bytes at rate 5 -> 600 total.
    EXPECT_NEAR(static_cast<double>(t), 600.0, 2.0);
}

TEST(FlowNetworkTest, CompletionCallbackCanStartNewFlow)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    Tick done_second = 0;
    net.startFlow(100, {ch}, [&] {
        net.startFlow(100, {ch}, [&] { done_second = q.now(); });
    });
    q.run();
    EXPECT_EQ(done_second, 200u);
}

TEST(FlowNetworkTest, UnknownChannelIsFatal)
{
    EventQueue q;
    FlowNetwork net(q);
    net.addChannel(kUnitRate);
    EXPECT_THROW(net.startFlow(10, {7}, [] {}),
                 dgxsim::sim::FatalError);
    EXPECT_THROW(net.addChannel(0.0), dgxsim::sim::FatalError);
}

TEST(FlowNetworkTest, CompletionPastTheTickHorizonIsFatal)
{
    // Both ways a completion tick can leave the 64-bit range must end
    // in a FatalError naming the flow, not in a wrapped or undefined
    // tick: an ETA too large for a Tick, and now + ETA overflowing.
    auto expect_horizon_fatal = [](auto &&start) {
        try {
            start();
            FAIL() << "flow completion past the tick horizon accepted";
        } catch (const dgxsim::sim::FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("flow 0 "), std::string::npos) << msg;
            EXPECT_NE(msg.find("'slow link'"), std::string::npos) << msg;
            EXPECT_NE(msg.find("2^64-tick horizon"), std::string::npos)
                << msg;
        }
    };

    EventQueue q;
    FlowNetwork net(q);
    auto slow = net.addChannel(1e-18, "slow link");
    expect_horizon_fatal([&] { net.startFlow(1 << 30, {slow}, [] {}); });

    EventQueue late;
    FlowNetwork late_net(late);
    auto unit = late_net.addChannel(kUnitRate, "slow link");
    late.schedule(Tick(1) << 63, [] {});
    late.run();
    expect_horizon_fatal(
        [&] { late_net.startFlow(Bytes(1) << 63, {unit}, [] {}); });
}

TEST(FlowNetworkTest, FlowActiveReflectsLifetime)
{
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    auto f = net.startFlow(100, {ch}, [] {});
    EXPECT_TRUE(net.flowActive(f));
    q.run();
    EXPECT_FALSE(net.flowActive(f));
}

/**
 * N equal flows on N equal channels finish in the same tick. They
 * retire in one pass, so none is still active when the first callback
 * runs. The callbacks run in descending flow id, then the flow whose
 * own completion event fired: the newest flow, whose completion the
 * last start re-keyed first.
 */
class SameTickSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SameTickSweep, RetireInOnePassDescendingThenTheFiredFlow)
{
    const int n = GetParam();
    EventQueue q;
    FlowNetwork net(q);
    std::vector<FlowNetwork::FlowId> ids;
    std::vector<int> order;
    std::vector<Tick> ends;
    int active_at_first = -1;
    for (int i = 0; i < n; ++i) {
        auto ch = net.addChannel(kUnitRate);
        ids.push_back(net.startFlow(1000, {ch}, [&, i] {
            if (order.empty()) {
                active_at_first = 0;
                for (FlowNetwork::FlowId id : ids)
                    active_at_first += net.flowActive(id);
            }
            order.push_back(i);
            ends.push_back(q.now());
        }));
    }
    q.run();
    std::vector<int> expected;
    for (int i = n - 2; i >= 0; --i)
        expected.push_back(i);
    expected.push_back(n - 1);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(active_at_first, 0);
    EXPECT_EQ(ends, std::vector<Tick>(n, 1000));
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, SameTickSweep,
                         ::testing::Values(2, 4, 7));

/** Property sweep: N equal flows on one channel finish at N * T. */
class EqualShareSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EqualShareSweep, NFlowsFinishTogetherAtNTimesSolo)
{
    const int n = GetParam();
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(kUnitRate);
    std::vector<Tick> ends(n, 0);
    for (int i = 0; i < n; ++i)
        net.startFlow(1000, {ch}, [&ends, i, &q] { ends[i] = q.now(); });
    q.run();
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(static_cast<double>(ends[i]), 1000.0 * n, 2.0 * n);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, EqualShareSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

/**
 * Property: total bytes delivered over any schedule equals the sum of
 * the payloads (work conservation), for staggered arrivals.
 */
class ConservationSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ConservationSweep, WorkIsConserved)
{
    const int n = GetParam();
    EventQueue q;
    FlowNetwork net(q);
    auto ch = net.addChannel(2.5);
    Bytes total = 0;
    for (int i = 0; i < n; ++i) {
        const Bytes payload = 100 + 37 * i;
        total += payload;
        q.schedule(static_cast<Tick>(13 * i), [&net, ch, payload] {
            net.startFlow(payload, {ch}, [] {});
        });
    }
    q.run();
    EXPECT_NEAR(net.bytesDelivered(ch), static_cast<double>(total),
                1.0 * n);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, ConservationSweep,
                         ::testing::Values(1, 2, 5, 9, 17));

} // namespace
