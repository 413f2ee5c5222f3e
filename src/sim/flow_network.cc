#include "sim/flow_network.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/auditor.hh"
#include "sim/logging.hh"

namespace dgxsim::sim {

namespace {
constexpr double kByteEpsilon = 1e-6;
} // namespace

FlowNetwork::ChannelId
FlowNetwork::addChannel(double bytes_per_tick, std::string name)
{
    if (bytes_per_tick <= 0)
        fatal("channel capacity must be positive: ", bytes_per_tick);
    channels_.push_back(Channel{bytes_per_tick, std::move(name), 0, 0});
    channelFlows_.emplace_back();
    channelDirty_.push_back(0);
    channelMark_.push_back(0);
    capScratch_.push_back(0);
    userScratch_.push_back(0);
    return channels_.size() - 1;
}

void
FlowNetwork::setChannelCapacity(ChannelId id, double bytes_per_tick)
{
    if (id >= channels_.size())
        fatal("unknown channel ", id);
    if (bytes_per_tick <= 0)
        fatal("channel capacity must be positive: ", bytes_per_tick);
    const std::size_t base = callbacks_.size();
    settleProgress();
    channels_[id].capacity = bytes_per_tick;
    markDirty(id);
    resolve(base);
}

void
FlowNetwork::markDirty(ChannelId id)
{
    if (!channelDirty_[id]) {
        channelDirty_[id] = 1;
        dirty_.push_back(id);
    }
}

void
FlowNetwork::joinAllocation(Flow &flow)
{
    for (ChannelId c : flow.path) {
        channelFlows_[c].push_back(&flow);
        markDirty(c);
    }
}

void
FlowNetwork::leaveAllocation(Flow &flow)
{
    for (ChannelId c : flow.path) {
        auto &users = channelFlows_[c];
        // One occurrence per path element (paths may repeat a channel).
        for (std::size_t i = users.size(); i-- > 0;) {
            if (users[i] == &flow) {
                users[i] = users.back();
                users.pop_back();
                break;
            }
        }
        markDirty(c);
    }
}

double
FlowNetwork::channelCapacity(ChannelId id) const
{
    if (id >= channels_.size())
        fatal("unknown channel ", id);
    return channels_[id].capacity;
}

FlowNetwork::FlowId
FlowNetwork::startFlow(Bytes bytes, std::vector<ChannelId> path,
                       std::function<void()> on_complete, Tick latency)
{
    for (ChannelId c : path) {
        if (c >= channels_.size())
            fatal("flow path references unknown channel ", c);
    }
    FlowId id = nextFlow_++;
    Flow flow;
    flow.remaining = static_cast<double>(bytes);
    flow.requested = flow.remaining;
    flow.path = std::move(path);
    flow.onComplete = std::move(on_complete);
    flow.lastUpdate = queue_.now();

    if (bytes == 0 || flow.path.empty()) {
        // Pure-latency flow: no bandwidth consumed.
        flow.done = true;
        active_.emplace(id, std::move(flow));
        queue_.scheduleAfter(latency, [this, id] { complete(id); });
        return id;
    }

    Flow &added = active_.emplace(id, std::move(flow)).first->second;
    if (latency == 0) {
        activate(id);
    } else {
        // Keep the flow out of the allocation until its head latency
        // elapses; rate stays 0 meanwhile.
        added.lastUpdate = queue_.now() + latency;
        latencyPending_.push_back(&added);
        queue_.scheduleAfter(latency, [this, id] { activate(id); });
    }
    return id;
}

void
FlowNetwork::activate(FlowId id)
{
    auto it = active_.find(id);
    if (it == active_.end())
        return;
    it->second.lastUpdate = queue_.now();
    // An earlier recompute in this same tick may already have promoted
    // the flow out of the latency stage.
    if (!it->second.joined) {
        it->second.joined = true;
        joinAllocation(it->second);
    }
    recompute();
}

bool
FlowNetwork::flowActive(FlowId id) const
{
    return active_.count(id) != 0;
}

double
FlowNetwork::currentRate(FlowId id) const
{
    auto it = active_.find(id);
    return it == active_.end() ? 0.0 : it->second.rate;
}

double
FlowNetwork::bytesDelivered(ChannelId id) const
{
    if (id >= channels_.size())
        fatal("unknown channel ", id);
    return channels_[id].delivered;
}

double
FlowNetwork::busyTicks(ChannelId id) const
{
    if (id >= channels_.size())
        fatal("unknown channel ", id);
    return channels_[id].busyTicks;
}

void
FlowNetwork::settleProgress()
{
    const Tick now = queue_.now();
    for (auto it = active_.begin(); it != active_.end(); ++it) {
        Flow &flow = it->second;
        if (flow.done)
            continue;
        if (flow.rate > 0 && flow.lastUpdate < now) {
            const double dt = static_cast<double>(now - flow.lastUpdate);
            const double moved = std::min(flow.remaining, flow.rate * dt);
            flow.remaining -= moved;
            flow.lastUpdate = now;
            for (ChannelId c : flow.path) {
                channels_[c].delivered += moved;
                channels_[c].busyTicks +=
                    dt * (flow.rate / channels_[c].capacity);
            }
        }
        // Past its latency stage with its bytes delivered.
        if (flow.remaining <= kByteEpsilon && flow.lastUpdate <= now)
            finished_.push_back(it);
    }
    if (auditor_)
        auditBusyTicks();
}

void
FlowNetwork::allocateRates()
{
    // Promote latency-stage flows whose head latency has elapsed.
    if (!latencyPending_.empty()) {
        const Tick now = queue_.now();
        for (std::size_t i = latencyPending_.size(); i-- > 0;) {
            Flow &flow = *latencyPending_[i];
            if (!flow.joined) {
                if (flow.lastUpdate > now)
                    continue; // still in its latency stage
                flow.joined = true;
                joinAllocation(flow);
            }
            latencyPending_[i] = latencyPending_.back();
            latencyPending_.pop_back();
        }
    }

    // Closure walk: every flow touching a dirty channel, every channel
    // touched by such a flow, transitively. Rates outside this
    // component cannot change (no shared residual capacity), so they
    // are left untouched.
    ++solveEpoch_;
    affectedChannels_.clear();
    for (ChannelId c : dirty_) {
        channelDirty_[c] = 0;
        if (channelMark_[c] != solveEpoch_) {
            channelMark_[c] = solveEpoch_;
            affectedChannels_.push_back(c);
        }
    }
    dirty_.clear();
    std::size_t unfrozen = 0;
    for (std::size_t i = 0; i < affectedChannels_.size(); ++i) {
        for (Flow *flow : channelFlows_[affectedChannels_[i]]) {
            if (flow->mark == solveEpoch_)
                continue;
            flow->mark = solveEpoch_;
            flow->rate = 0;
            flow->frozen = false;
            ++unfrozen;
            for (ChannelId c : flow->path) {
                if (channelMark_[c] != solveEpoch_) {
                    channelMark_[c] = solveEpoch_;
                    affectedChannels_.push_back(c);
                }
            }
        }
    }

    // Residual capacity and unfrozen-flow count, affected slots only.
    for (ChannelId c : affectedChannels_) {
        capScratch_[c] = channels_[c].capacity;
        userScratch_[c] = static_cast<int>(channelFlows_[c].size());
    }

    while (unfrozen > 0) {
        // Find the bottleneck channel: minimal fair share, ties to the
        // lowest index. Channels left with no unfrozen user drop out.
        double best_share = std::numeric_limits<double>::infinity();
        std::size_t best_chan = channels_.size();
        std::size_t live = 0;
        for (ChannelId c : affectedChannels_) {
            if (userScratch_[c] <= 0)
                continue;
            affectedChannels_[live++] = c;
            const double share = capScratch_[c] / userScratch_[c];
            if (share < best_share ||
                (share == best_share && c < best_chan)) {
                best_share = share;
                best_chan = c;
            }
        }
        affectedChannels_.resize(live);
        if (best_chan == channels_.size())
            panic("max-min allocation found no bottleneck with flows left");

        // Freeze every unfrozen flow crossing the bottleneck. Each one
        // subtracts the same share, so their order does not matter.
        for (Flow *flow : channelFlows_[best_chan]) {
            if (flow->frozen)
                continue;
            flow->rate = best_share;
            flow->frozen = true;
            --unfrozen;
            for (ChannelId c : flow->path) {
                capScratch_[c] -= best_share;
                if (capScratch_[c] < 0)
                    capScratch_[c] = 0;
                --userScratch_[c];
            }
        }
    }
#ifdef DGXSIM_SOLVER_DIFF
    {
        const Tick now = queue_.now();
        std::vector<double> cap(channels_.size());
        std::vector<int> users(channels_.size(), 0);
        for (std::size_t c = 0; c < channels_.size(); ++c)
            cap[c] = channels_[c].capacity;
        std::vector<FlowId> unfrozen;
        std::unordered_map<FlowId, double> ref;
        for (auto &[id, flow] : active_) {
            ref[id] = 0;
            if (flow.done || flow.lastUpdate > now)
                continue;
            unfrozen.push_back(id);
            for (ChannelId c : flow.path)
                ++users[c];
        }
        std::sort(unfrozen.begin(), unfrozen.end());
        std::vector<bool> frz(unfrozen.size(), false);
        std::size_t rem = unfrozen.size();
        while (rem > 0) {
            double bs = std::numeric_limits<double>::infinity();
            std::size_t bc = channels_.size();
            for (std::size_t c = 0; c < channels_.size(); ++c) {
                if (users[c] <= 0)
                    continue;
                const double share = cap[c] / users[c];
                if (share < bs) {
                    bs = share;
                    bc = c;
                }
            }
            if (bc == channels_.size())
                panic("ref solver: no bottleneck");
            for (std::size_t i = 0; i < unfrozen.size(); ++i) {
                if (frz[i])
                    continue;
                Flow &flow = active_[unfrozen[i]];
                if (std::find(flow.path.begin(), flow.path.end(), bc) ==
                    flow.path.end())
                    continue;
                ref[unfrozen[i]] = bs;
                frz[i] = true;
                --rem;
                for (ChannelId c : flow.path) {
                    cap[c] -= bs;
                    if (cap[c] < 0)
                        cap[c] = 0;
                    --users[c];
                }
            }
        }
        for (auto &[id, flow] : active_) {
            if (flow.rate != ref[id])
                panic("solver diff at tick ", now, ": flow ", id,
                      " incremental rate ", flow.rate, " ref ", ref[id],
                      " done=", flow.done, " path=", flow.path.size());
        }
    }
#endif
    if (auditor_)
        auditRates();
}

void
FlowNetwork::auditRates()
{
    const Tick now = queue_.now();
    std::vector<double> sum(channels_.size(), 0.0);
    for (const auto &[id, flow] : active_) {
        auditor_->expect(flow.rate >= 0, now, "flow ", id,
                         " allocated a negative rate ", flow.rate);
        for (ChannelId c : flow.path)
            sum[c] += flow.rate;
    }
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        // Small relative slack absorbs max-min fair-share rounding.
        auditor_->expect(
            sum[c] <= channels_[c].capacity * (1 + 1e-9) + 1e-12, now,
            "channel ", c, " (", channels_[c].name,
            ") oversubscribed: allocated rate sum ", sum[c],
            " exceeds capacity ", channels_[c].capacity);
    }
}

void
FlowNetwork::auditBusyTicks()
{
    const double elapsed = static_cast<double>(queue_.now());
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        auditor_->expect(
            channels_[c].busyTicks <= elapsed * (1 + 1e-9) + 1e-6,
            queue_.now(), "channel ", c, " (", channels_[c].name,
            ") accumulated ", channels_[c].busyTicks,
            " busy ticks in only ", elapsed, " elapsed ticks");
        auditor_->expect(channels_[c].delivered >= 0, queue_.now(),
                         "channel ", c,
                         " delivered a negative byte count ",
                         channels_[c].delivered);
    }
}

void
FlowNetwork::rescheduleCompletions()
{
    const Tick now = queue_.now();
    for (auto &[id, flow] : active_) {
        if (flow.done)
            continue;
        if (flow.lastUpdate > now) {
            // Latency stage; activation event pending.
            queue_.cancel(flow.completion);
            continue;
        }
        // resolve() retired every flow with its bytes delivered.
        if (flow.rate <= 0)
            panic("active flow with zero rate cannot make progress");
        // Clamp to >= 1 tick: a residual just above kByteEpsilon
        // against a huge rate must never round to a same-tick
        // completion, which would re-enter complete() at the tick
        // that scheduled it.
        const Tick when = checkedTick(
            now, std::max(1.0, std::ceil(flow.remaining / flow.rate)),
            "flow ", id, " (", flow.remaining, " bytes left at ",
            flow.rate, " bytes/tick over '",
            channels_[flow.path.front()].name, "') completes at");
        // Moving the pending completion in place keeps the queue free
        // of dead entries; its key is the one a fresh schedule gets.
        if (!queue_.reschedule(flow.completion, when)) {
            const FlowId fid = id;
            flow.completion =
                queue_.schedule(when, [this, fid] { complete(fid); });
        }
    }
}

void
FlowNetwork::recompute()
{
    const std::size_t base = callbacks_.size();
    settleProgress();
    resolve(base);
}

void
FlowNetwork::retire(FlowMap::iterator it)
{
    Flow &flow = it->second;
    if (auditor_) {
        // Byte conservation: everything requested was delivered (the
        // epsilon absorbs fluid-model floating-point rounding).
        const double slack =
            std::max(kByteEpsilon, 1e-12 * flow.requested);
        auditor_->expect(flow.remaining <= slack, queue_.now(),
                         "flow ", it->first, " completed with ",
                         flow.remaining, " of ", flow.requested,
                         " bytes undelivered");
    }
    callbacks_.push_back(std::move(flow.onComplete));
    queue_.cancel(flow.completion);
    if (flow.joined)
        leaveAllocation(flow);
    active_.erase(it);
}

void
FlowNetwork::resolve(std::size_t base)
{
    std::sort(finished_.begin(), finished_.end(),
              [](FlowMap::iterator a, FlowMap::iterator b) {
                  return a->first < b->first;
              });
    for (FlowMap::iterator it : finished_)
        retire(it);
    finished_.clear();
    // Reallocate the freed bandwidth before notifying, so anything a
    // callback starts sees fresh rates.
    allocateRates();
    rescheduleCompletions();
    while (callbacks_.size() > base) {
        std::function<void()> cb = std::move(callbacks_.back());
        callbacks_.pop_back();
        if (cb)
            cb();
    }
}

void
FlowNetwork::complete(FlowId id)
{
    auto it = active_.find(id);
    if (it == active_.end())
        return;
    const std::size_t base = callbacks_.size();
    settleProgress();
    // This flow retires first, so its callback runs last.
    std::erase(finished_, it);
    retire(it);
    resolve(base);
}

} // namespace dgxsim::sim
