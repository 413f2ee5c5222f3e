#include "profiling/profiler.hh"

#include <algorithm>
#include <iomanip>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::profiling {

namespace {

std::vector<SummaryRow>
summarize(const std::map<std::string, SummaryRow> &acc)
{
    std::vector<SummaryRow> rows;
    rows.reserve(acc.size());
    for (const auto &[name, row] : acc)
        rows.push_back(row);
    std::sort(rows.begin(), rows.end(),
              [](const SummaryRow &a, const SummaryRow &b) {
                  return a.totalTime > b.totalTime;
              });
    return rows;
}

} // namespace

std::vector<SummaryRow>
Profiler::kernelSummary() const
{
    std::map<std::string, SummaryRow> acc;
    for (const KernelRecord &k : kernels_) {
        SummaryRow &row = acc[k.name];
        row.name = k.name;
        ++row.calls;
        row.totalTime += k.duration();
    }
    return summarize(acc);
}

std::vector<SummaryRow>
Profiler::apiSummary() const
{
    std::map<std::string, SummaryRow> acc;
    for (const ApiTotal &t : apiTotals_)
        acc[t.name] = {t.name, t.calls, t.ticks};
    return summarize(acc);
}

sim::Tick
Profiler::apiTime(const std::string &name) const
{
    for (const ApiTotal &t : apiTotals_) {
        if (t.name == name)
            return t.ticks;
    }
    return 0;
}

double
Profiler::apiTimeFraction(const std::string &name) const
{
    sim::Tick total = 0;
    for (const ApiTotal &t : apiTotals_)
        total += t.ticks;
    return total == 0 ? 0.0
                      : static_cast<double>(apiTime(name)) /
                            static_cast<double>(total);
}

sim::Tick
Profiler::deviceKernelTime(int device) const
{
    sim::Tick total = 0;
    for (const KernelRecord &k : kernels_) {
        if (k.device == device)
            total += k.duration();
    }
    return total;
}

sim::Bytes
Profiler::copiedBytes(const std::string &kind) const
{
    sim::Bytes total = 0;
    for (const CopyTotal &t : copyTotals_) {
        if (kind.empty() || t.name == kind)
            total += t.bytes;
    }
    return total;
}

sim::Bytes
Profiler::copiedWireBytes(const std::string &kind) const
{
    sim::Bytes total = 0;
    for (const CopyTotal &t : copyTotals_) {
        if (kind.empty() || t.name == kind)
            total += t.wireBytes;
    }
    return total;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void
fnvBytes(std::uint64_t &h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

template <typename T>
void
fnvValue(std::uint64_t &h, T v)
{
    fnvBytes(h, &v, sizeof(v));
}

} // namespace

std::uint64_t
Profiler::digest() const
{
    std::uint64_t h = kFnvOffset;
    fnvValue(h, kernels_.size());
    for (const KernelRecord &k : kernels_) {
        h = k.name.fold(h);
        h = k.stream.fold(h);
        fnvValue(h, k.device);
        fnvValue(h, k.start);
        fnvValue(h, k.end);
    }
    fnvValue(h, apis_.size());
    for (const ApiRecord &a : apis_) {
        h = a.name.fold(h);
        h = a.thread.fold(h);
        fnvValue(h, a.start);
        fnvValue(h, a.end);
    }
    fnvValue(h, copies_.size());
    for (const CopyRecord &c : copies_) {
        h = c.kind.fold(h);
        fnvValue(h, c.src);
        fnvValue(h, c.dst);
        fnvValue(h, c.bytes);
        fnvValue(h, c.wireBytes);
        fnvValue(h, c.start);
        fnvValue(h, c.end);
    }
    return h;
}

std::string
Profiler::report() const
{
    std::ostringstream os;
    os << std::fixed;
    os << "==== GPU kernel summary ====\n";
    for (const SummaryRow &row : kernelSummary()) {
        os << std::setw(12) << std::setprecision(3)
           << sim::ticksToMs(row.totalTime) << " ms  " << std::setw(8)
           << row.calls << " calls  " << std::setw(10)
           << std::setprecision(2) << row.avgUs() << " us avg  "
           << row.name << "\n";
    }
    os << "==== CUDA API summary ====\n";
    for (const SummaryRow &row : apiSummary()) {
        os << std::setw(12) << std::setprecision(3)
           << sim::ticksToMs(row.totalTime) << " ms  " << std::setw(8)
           << row.calls << " calls  " << std::setw(10)
           << std::setprecision(2) << row.avgUs() << " us avg  "
           << row.name << "\n";
    }
    os << "==== Memcpy summary ====\n";
    std::map<std::string, const CopyTotal *> copies;
    for (const CopyTotal &t : copyTotals_)
        copies[t.name] = &t;
    for (const auto &[kind, t] : copies) {
        os << std::setw(12) << t->copies << " copies  " << std::setw(12)
           << std::setprecision(1)
           << static_cast<double>(t->bytes) / (1 << 20) << " MiB  "
           << kind << "\n";
    }
    return os.str();
}

std::string
Profiler::csv() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    os << "kind,name,where,start_us,dur_us,bytes,wire_bytes\n";
    for (const KernelRecord &k : kernels_) {
        os << "kernel," << k.name << ",gpu" << k.device << ","
           << sim::ticksToUs(k.start) << "," << sim::ticksToUs(k.duration())
           << ",0,0\n";
    }
    for (const ApiRecord &a : apis_) {
        os << "api," << a.name << "," << a.thread << ","
           << sim::ticksToUs(a.start) << "," << sim::ticksToUs(a.duration())
           << ",0,0\n";
    }
    for (const CopyRecord &c : copies_) {
        os << "memcpy," << c.kind << ",gpu" << c.src << ">gpu" << c.dst
           << "," << sim::ticksToUs(c.start) << ","
           << sim::ticksToUs(c.duration()) << "," << c.bytes << ","
           << c.wireBytes << "\n";
    }
    return os.str();
}

} // namespace dgxsim::profiling

namespace dgxsim::profiling {

namespace {

void
emitEvent(std::ostringstream &os, bool &first, const std::string &name,
          const std::string &pid, const std::string &tid,
          double ts_us, double dur_us)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  {\"name\": \"" << sim::jsonEscape(name)
       << "\", \"ph\": \"X\", \"pid\": \"" << sim::jsonEscape(pid)
       << "\", \"tid\": \"" << sim::jsonEscape(tid)
       << "\", \"ts\": " << ts_us << ", \"dur\": " << dur_us << "}";
}

/** The (pid, tid) track a record renders on, plus its time span. */
struct TracePos
{
    std::string pid;
    std::string tid;
    sim::Tick start = 0;
    sim::Tick end = 0;
};

void
emitFlowHalf(std::ostringstream &os, bool &first, char phase,
             std::uint64_t flow_id, const TracePos &at, double ts_us)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  {\"name\": \"dep\", \"cat\": \"dep\", \"ph\": \"" << phase
       << "\", \"id\": " << flow_id;
    if (phase == 'f')
        os << ", \"bp\": \"e\"";
    os << ", \"pid\": \"" << sim::jsonEscape(at.pid)
       << "\", \"tid\": \"" << sim::jsonEscape(at.tid)
       << "\", \"ts\": " << ts_us << "}";
}

} // namespace

std::string
Profiler::chromeTrace() const
{
    std::ostringstream os;
    os << "{\"traceEvents\": [\n";
    bool first = true;
    for (const KernelRecord &k : kernels_) {
        emitEvent(os, first, k.name, "GPU" + std::to_string(k.device),
                  "kernels", sim::ticksToUs(k.start),
                  sim::ticksToUs(k.duration()));
    }
    for (const ApiRecord &a : apis_) {
        emitEvent(os, first, a.name, "host", a.thread,
                  sim::ticksToUs(a.start),
                  sim::ticksToUs(a.duration()));
    }
    for (const CopyRecord &c : copies_) {
        emitEvent(os, first,
                  c.kind.str() + " " + std::to_string(c.bytes) + "B",
                  "fabric",
                  "gpu" + std::to_string(c.src) + ">gpu" +
                      std::to_string(c.dst),
                  sim::ticksToUs(c.start),
                  sim::ticksToUs(c.duration()));
    }
    // Flow events ("s" at the predecessor's end, "f" at the dependent
    // record) for every causal edge whose endpoints render on
    // different tracks; same-track edges are visually implied by the
    // lane ordering and would only add clutter.
    const auto locate = [this](RecordId id) {
        const RecordRef &ref = recordRef(id);
        switch (ref.kind) {
          case RecordKind::Kernel: {
            const KernelRecord &k = kernels_[ref.index];
            return TracePos{"GPU" + std::to_string(k.device), "kernels",
                            k.start, k.end};
          }
          case RecordKind::Api: {
            const ApiRecord &a = apis_[ref.index];
            return TracePos{"host", a.thread, a.start, a.end};
          }
          default: {
            const CopyRecord &c = copies_[ref.index];
            return TracePos{"fabric",
                            "gpu" + std::to_string(c.src) + ">gpu" +
                                std::to_string(c.dst),
                            c.start, c.end};
          }
        }
    };
    std::uint64_t flow_id = 0;
    const RecordId lo = firstId();
    const RecordId hi = lo + static_cast<RecordId>(recordCount());
    for (RecordId id = lo; id < hi; ++id) {
        const TracePos to = locate(id);
        for (RecordId dep : deps(id)) {
            const TracePos from = locate(dep);
            if (from.pid == to.pid && from.tid == to.tid)
                continue;
            // A blocking API may start before the work it waited on
            // ends; bind the arrow to the record's end in that case.
            const sim::Tick arrive =
                from.end <= to.start ? to.start : to.end;
            ++flow_id;
            emitFlowHalf(os, first, 's', flow_id, from,
                         sim::ticksToUs(from.end));
            emitFlowHalf(os, first, 'f', flow_id, to,
                         sim::ticksToUs(arrive));
        }
    }
    os << "\n]}\n";
    return os.str();
}

void
Profiler::writeChromeTrace(const std::string &path) const
{
    std::ofstream file(path);
    if (!file)
        sim::fatal("cannot open trace file ", path);
    file << chromeTrace();
}

} // namespace dgxsim::profiling
