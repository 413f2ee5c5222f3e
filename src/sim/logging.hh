/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * fatal() reports a condition that is the caller's fault (bad
 * configuration, invalid arguments) and throws a FatalError so library
 * users can recover. panic() reports an internal invariant violation
 * and aborts. warn() reports through one process-wide sink (stderr
 * unless a test installs its own) and delivers each distinct message
 * once: a campaign that builds the same fallback ring in every
 * simulation prints its warning once, not once per run.
 */

#ifndef DGXSIM_SIM_LOGGING_HH
#define DGXSIM_SIM_LOGGING_HH

#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dgxsim::sim {

/** Exception thrown by fatal() for user-correctable errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail {

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    formatInto(os, rest...);
}

/** Deliver @p line to the warning sink unless it was delivered
 * before. */
void emitWarning(const std::string &line);

} // namespace detail

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and throw FatalError.
 */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::ostringstream os;
    os << "fatal: ";
    detail::formatInto(os, args...);
    throw FatalError(os.str());
}

/**
 * Report an internal simulator bug and abort. Use only for conditions
 * that should be impossible regardless of user input.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::ostringstream os;
    os << "panic: ";
    detail::formatInto(os, args...);
    std::cerr << os.str() << std::endl;
    std::abort();
}

/** Receives each distinct warning line, e.g. "warn: ...". */
using WarnSink = std::function<void(const std::string &)>;

/**
 * Route every later warn() to @p sink; an empty sink restores stderr.
 * The new sink starts with no message seen, so it receives each
 * distinct message once. Campaign workers warn concurrently: the sink
 * runs under the channel's lock, so it is never running once it has
 * been replaced, and it must not warn itself. @return the sink it
 * replaces.
 */
WarnSink setWarnSink(WarnSink sink);

/** Emit a non-fatal warning; a message already delivered is dropped. */
template <typename... Args>
void
warn(const Args &...args)
{
    std::ostringstream os;
    os << "warn: ";
    detail::formatInto(os, args...);
    detail::emitWarning(os.str());
}

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_LOGGING_HH
