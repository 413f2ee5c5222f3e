#include "sim/logging.hh"

#include <mutex>
#include <set>
#include <utility>

namespace dgxsim::sim {

namespace {

/** The one warning channel: its sink and the messages it delivered. */
struct WarnChannel
{
    std::mutex mutex;
    WarnSink sink;
    std::set<std::string> seen;
};

WarnChannel &
warnChannel()
{
    static WarnChannel channel;
    return channel;
}

} // namespace

WarnSink
setWarnSink(WarnSink sink)
{
    WarnChannel &c = warnChannel();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.seen.clear();
    return std::exchange(c.sink, std::move(sink));
}

void
detail::emitWarning(const std::string &line)
{
    WarnChannel &c = warnChannel();
    std::lock_guard<std::mutex> lock(c.mutex);
    if (!c.seen.insert(line).second)
        return;
    if (c.sink)
        c.sink(line);
    else
        std::cerr << line << std::endl;
}

} // namespace dgxsim::sim
