/**
 * @file
 * Core time and unit types for the discrete-event simulator.
 *
 * The simulator counts time in integer picoseconds ("ticks"). Picosecond
 * resolution keeps bandwidth arithmetic accurate for multi-GB transfers
 * while a 64-bit tick still covers ~213 simulated days.
 */

#ifndef DGXSIM_SIM_TYPES_HH
#define DGXSIM_SIM_TYPES_HH

#include <cstdint>
#include <type_traits>

#include "sim/logging.hh"

namespace dgxsim::sim {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** 2^64: the first tick a Tick cannot hold (~213 simulated days). */
constexpr double tickHorizon = 18446744073709551616.0;

/**
 * @return tick @p base plus @p delta ticks, where @p delta is a Tick or
 * a tick count computed in floating point (bytes / rate, a scaled
 * duration). Casting an out-of-range double to an integer is undefined
 * behaviour and an overflowing sum wraps silently, so every tick
 * computation a user can scale without bound goes through here: a
 * result at or past the 2^64-tick horizon (or a negative or NaN
 * @p delta) raises FatalError, naming @p what as the culprit.
 */
template <typename Delta, typename... What>
Tick
checkedTick(Tick base, Delta delta, const What &...what)
{
    static_assert(std::is_same_v<Delta, Tick> ||
                  std::is_same_v<Delta, double>);
    bool fits = true;
    Tick step = 0;
    if constexpr (std::is_same_v<Delta, double>) {
        fits = delta >= 0 && delta < tickHorizon;
        if (fits)
            step = static_cast<Tick>(delta);
    } else {
        step = delta;
    }
    if (!fits || step > ~Tick(0) - base) [[unlikely]] {
        constexpr const char *horizon =
            " ticks, outside the 2^64-tick horizon of simulated time "
            "(~213 days)";
        if (base == 0)
            fatal(what..., " ", delta, horizon);
        fatal(what..., " tick ", base, " + ", delta, horizon);
    }
    return base + step;
}

/** Ticks per common time units. */
constexpr Tick ticksPerPs = 1;
constexpr Tick ticksPerNs = 1000;
constexpr Tick ticksPerUs = 1000 * ticksPerNs;
constexpr Tick ticksPerMs = 1000 * ticksPerUs;
constexpr Tick ticksPerSec = 1000 * ticksPerMs;

/** Convert a duration in nanoseconds to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(ticksPerNs));
}

/** Convert a duration in microseconds to ticks. */
constexpr Tick
usToTicks(double us)
{
    return static_cast<Tick>(us * static_cast<double>(ticksPerUs));
}

/** Convert a duration in milliseconds to ticks. */
constexpr Tick
msToTicks(double ms)
{
    return static_cast<Tick>(ms * static_cast<double>(ticksPerMs));
}

/** Convert a duration in seconds to ticks. */
constexpr Tick
secToTicks(double sec)
{
    return static_cast<Tick>(sec * static_cast<double>(ticksPerSec));
}

/** Convert ticks to seconds. */
constexpr double
ticksToSec(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerSec);
}

/** Convert ticks to milliseconds. */
constexpr double
ticksToMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerMs);
}

/** Convert ticks to microseconds. */
constexpr double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerUs);
}

/** Bytes, as a wide unsigned count. */
using Bytes = std::uint64_t;

constexpr Bytes operator""_KiB(unsigned long long v) { return v << 10; }
constexpr Bytes operator""_MiB(unsigned long long v) { return v << 20; }
constexpr Bytes operator""_GiB(unsigned long long v) { return v << 30; }

/** Convert a bandwidth in GB/s (decimal) to bytes per tick. */
constexpr double
gbpsToBytesPerTick(double gbps)
{
    // 1 GB/s == 1e9 bytes / 1e12 ps == 1e-3 bytes per tick.
    return gbps * 1e-3;
}

/** Convert bytes per tick back to GB/s (decimal). */
constexpr double
bytesPerTickToGbps(double bpt)
{
    return bpt * 1e3;
}

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_TYPES_HH
