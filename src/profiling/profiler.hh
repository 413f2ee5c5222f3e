/**
 * @file
 * nvprof-like profiler for the simulated system.
 *
 * Every simulated kernel, CUDA API call and DMA copy deposits a record
 * here. The summary views mirror what `nvprof --print-gpu-summary` and
 * `--print-api-summary` give on a real DGX-1, which is exactly the
 * data the paper's evaluation is built from.
 *
 * Records additionally carry a stable id and the causal edges the
 * analysis engine (src/analysis) consumes: which earlier records this
 * one waited on (stream program order, event waits, copy->kernel
 * chains, host->device issue edges). Emission sites thread the edges
 * through two mechanisms:
 *
 *  - explicit `deps` arguments at record time, and
 *  - an ambient *cause scope*: a stack of CauseTokens the currently
 *    executing continuation runs under. A site that fires downstream
 *    callbacks after landing a record pushes that record's token
 *    around the callback, so anything the callback enqueues (or any
 *    record it lands) can pick the cause up with currentCause().
 *
 * A CauseToken is a 16-byte value: a record id known up front, or a
 * pointer to a late-bound slot. HostThread takes a slot from
 * lateCause() *before* running an API's action and binds it when the
 * API record lands, which is how ops enqueued by the action acquire
 * their host->device issue edge. Slots live in a per-Profiler deque
 * (stable addresses) that clear() keeps, so a token captured before a
 * clear() still reads its slot.
 *
 * Deps live in one flat array per Profiler: each record's RecordRef
 * holds (begin, count) into it, and deps(id) returns the span. The
 * record path allocates only when that array, the record vectors or
 * the slot deque grow.
 *
 * Ids, deps and the cause machinery are NOT folded into digest() —
 * the determinism contract and the committed baselines predate them.
 * The digest folds each label through its interned fold table
 * (interner.hh), equal to byte-serial FNV-1a.
 *
 * Running totals: API ticks and calls per name, and copies, payload
 * and wire bytes per copy kind, are summed as each record lands.
 * apiSummary(), apiTime(), apiTimeFraction(), copiedBytes() and
 * copiedWireBytes() read them; they are integer sums, so they equal
 * a scan of the stored records exactly.
 *
 * A timing-only Profiler (core::TrainConfig::timingOnly) still
 * assigns ids, lets late-bound tokens bind, keeps the totals and
 * hands every record to the Auditor, but stores no record and no
 * dep: kernels(), apis(), copies() and recordCount() stay empty, so
 * digest() and the analysis engine have nothing to read. Callers that
 * need only the totals (advise's simulations, `check --no-digest`,
 * `sweep`) skip the record vectors and the digest.
 */

#ifndef DGXSIM_PROFILING_PROFILER_HH
#define DGXSIM_PROFILING_PROFILER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "profiling/interner.hh"
#include "sim/auditor.hh"
#include "sim/types.hh"

namespace dgxsim::profiling {

/** Stable id of one record; assignment order == landing order. */
using RecordId = std::int64_t;

/** Sentinel: "no record" / unresolved token. */
constexpr RecordId kNoRecord = -1;

/** Sentinel for ApiRecord::overhead: overhead portion unknown. */
constexpr sim::Tick kUnknownOverhead = ~sim::Tick{0};

/**
 * A reference to a record: an id known up front, or a late-bound slot
 * from Profiler::lateCause() that bind() fills once the record lands.
 * Copies of a late-bound token share its slot. The default (null)
 * token resolves to kNoRecord.
 */
class CauseToken
{
  public:
    CauseToken() = default;
    /** The null token, so callers can pass `nullptr` for no cause. */
    CauseToken(std::nullptr_t) {}
    explicit CauseToken(RecordId id) : id_(id) {}

    /** @return the id this token resolves to, or kNoRecord. */
    RecordId id() const { return slot_ ? *slot_ : id_; }

    /** Fill a late-bound token's slot (no-op on other tokens). */
    void
    bind(RecordId id) const
    {
        if (slot_)
            *slot_ = id;
    }

  private:
    friend class Profiler;
    explicit CauseToken(RecordId *slot) : slot_(slot) {}

    RecordId *slot_ = nullptr;
    RecordId id_ = kNoRecord;
};

/**
 * A view of the causal predecessors handed to a record call: a braced
 * list or a vector of ids. The profiler drops kNoRecord and stale ids,
 * then sorts and deduplicates the rest.
 */
class Deps : public std::span<const RecordId>
{
  public:
    Deps() = default;
    Deps(std::initializer_list<RecordId> ids) : span(ids.begin(), ids.size())
    {
    }
    Deps(const std::vector<RecordId> &ids) : span(ids) {}
};

/** Which record vector an id points into. */
enum class RecordKind
{
    Kernel,
    Api,
    Copy,
};

/** Locator of one record: which vector, which index, which deps. */
struct RecordRef
{
    RecordKind kind = RecordKind::Kernel;
    std::uint32_t index = 0;
    /** The record's deps: [depBegin, depBegin + depCount) of the
     * profiler's flat dep array. */
    std::uint32_t depBegin = 0;
    std::uint32_t depCount = 0;
};

/** One executed GPU kernel. */
struct KernelRecord
{
    /** Interned (see interner.hh): one pointer per record. */
    Name name;
    int device = -1;
    sim::Tick start = 0;
    sim::Tick end = 0;
    /**
     * Serialized issue context (CUDA stream name, NCCL ring-hop
     * gate, communicator op queue). Kernels within one (device,
     * stream) lane never overlap; lanes on the same device may,
     * like concurrent streams on real hardware. Empty when the
     * issuer is unknown.
     */
    Name stream;
    /** Stable id (not folded into the digest). */
    RecordId id = kNoRecord;

    sim::Tick duration() const { return end - start; }
};

/** One host-side CUDA API call (including blocked time). */
struct ApiRecord
{
    /** Interned (see interner.hh): one pointer per record. */
    Name name;
    Name thread;
    sim::Tick start = 0;
    sim::Tick end = 0;
    /**
     * The fixed host-occupancy portion of the call (entry overhead);
     * the remainder of a blocking call is time spent waiting on its
     * end-dependencies. kUnknownOverhead means unknown, in which
     * case consumers treat the full duration as overhead.
     */
    sim::Tick overhead = kUnknownOverhead;
    /**
     * True for calls that stall until awaited device work lands. Their
     * deps may END after the call STARTS (the call waited on them);
     * analysis splits them into start- and end-dependencies by
     * timestamp.
     */
    bool blocking = false;
    /** Stable id (not folded into the digest). */
    RecordId id = kNoRecord;

    sim::Tick duration() const { return end - start; }

    /** @return the fixed-overhead portion (duration if unknown). */
    sim::Tick
    overheadTicks() const
    {
        if (overhead == kUnknownOverhead)
            return duration();
        return std::min(overhead, duration());
    }
};

/** One DMA copy between devices / host. */
struct CopyRecord
{
    Name kind; ///< interned; e.g. "PtoP", "DtoH", "HtoD"
    int src = -1;
    int dst = -1;
    sim::Bytes bytes = 0;
    sim::Tick start = 0;
    sim::Tick end = 0;
    /**
     * Bytes that actually crossed the wire, including protocol
     * overhead (NCCL FIFO/flag traffic). The transfer's duration
     * reflects this count, so bandwidth derived from records must
     * use it; equals `bytes` for plain DMA copies.
     */
    sim::Bytes wireBytes = 0;
    /** Stable id (not folded into the digest). */
    RecordId id = kNoRecord;

    sim::Tick duration() const { return end - start; }
};

/** Aggregate row of a summary table. */
struct SummaryRow
{
    std::string name;
    std::uint64_t calls = 0;
    sim::Tick totalTime = 0;

    double
    avgUs() const
    {
        return calls == 0 ? 0.0
                          : sim::ticksToUs(totalTime) /
                                static_cast<double>(calls);
    }
};

/**
 * Collects timing records for one simulation run. Cheap enough to
 * leave always-on; clear() between measured regions.
 */
class Profiler
{
  public:
    /** @param timing_only keep only ids and totals (file comment). */
    explicit Profiler(bool timing_only = false) : timingOnly_(timing_only)
    {
    }

    /**
     * Record a kernel. @p stream names the serialized lane that
     * issued it (see KernelRecord::stream); empty when unknown.
     * @return the new record's id.
     */
    RecordId
    recordKernel(Name name, int device, sim::Tick start, sim::Tick end,
                 Name stream = {}, Deps deps = {})
    {
        if (auditor_)
            auditor_->onKernelRecord(device, stream.str(), start, end);
        if (!timingOnly_) {
            kernels_.push_back({name, device, start, end, stream, nextId_});
            land(RecordKind::Kernel, kernels_.size() - 1, deps);
        }
        return nextId_++;
    }

    /**
     * Record an API call. @p overhead is the fixed host-occupancy
     * portion (kUnknownOverhead: unknown); @p blocking marks calls
     * that stalled on device work, whose @p deps may end after
     * @p start. @return the new record's id.
     */
    RecordId
    recordApi(Name name, Name thread, sim::Tick start, sim::Tick end,
              sim::Tick overhead = kUnknownOverhead,
              bool blocking = false, Deps deps = {})
    {
        if (auditor_)
            auditor_->onApiRecord(thread.str(), start, end);
        ApiTotal &total = totalOf(apiTotals_, name);
        ++total.calls;
        total.ticks += end - start;
        if (!timingOnly_) {
            apis_.push_back(
                {name, thread, start, end, overhead, blocking, nextId_});
            land(RecordKind::Api, apis_.size() - 1, deps);
        }
        return nextId_++;
    }

    /**
     * Record a copy. @p wire_bytes is the on-wire byte count when it
     * differs from the payload (protocol overhead); 0 means equal.
     * @return the new record's id.
     */
    RecordId
    recordCopy(Name kind, int src, int dst, sim::Bytes bytes,
               sim::Tick start, sim::Tick end, sim::Bytes wire_bytes = 0,
               Deps deps = {})
    {
        const sim::Bytes wire = wire_bytes ? wire_bytes : bytes;
        if (auditor_)
            auditor_->onCopyRecord(start, end, bytes, wire);
        CopyTotal &total = totalOf(copyTotals_, kind);
        ++total.copies;
        total.bytes += bytes;
        total.wireBytes += wire;
        if (!timingOnly_) {
            copies_.push_back(
                {kind, src, dst, bytes, start, end, wire, nextId_});
            land(RecordKind::Copy, copies_.size() - 1, deps);
        }
        return nextId_++;
    }

    const std::vector<KernelRecord> &kernels() const { return kernels_; }
    const std::vector<ApiRecord> &apis() const { return apis_; }
    const std::vector<CopyRecord> &copies() const { return copies_; }

    /** Ids of the current record set: [firstId(), firstId()+count).
     * A timing-only Profiler stores none, so its count stays 0. */
    RecordId firstId() const { return baseId_; }
    std::size_t recordCount() const { return refs_.size(); }

    /** @return the locator of record @p id (must be in range). */
    const RecordRef &
    recordRef(RecordId id) const
    {
        return refs_[static_cast<std::size_t>(id - baseId_)];
    }

    /** @return record @p id's causal predecessors, sorted (in range). */
    std::span<const RecordId>
    deps(RecordId id) const
    {
        const RecordRef &ref = recordRef(id);
        return {deps_.data() + ref.depBegin, ref.depCount};
    }

    // --- ambient cause scope (see file comment) ---

    /** @return the innermost active cause token, or a null token. */
    CauseToken
    currentCause() const
    {
        return causes_.empty() ? CauseToken() : causes_.back();
    }

    /** @return currentCause() resolved to an id (or kNoRecord). */
    RecordId currentCauseId() const { return currentCause().id(); }

    void pushCause(CauseToken token) { causes_.push_back(token); }
    void popCause() { causes_.pop_back(); }

    /** @return a fresh late-bound token (see the file comment). */
    CauseToken
    lateCause()
    {
        return CauseToken(&slots_.emplace_back(kNoRecord));
    }

    /** Kernel time grouped by kernel name. */
    std::vector<SummaryRow> kernelSummary() const;

    /** API time grouped by API name (all host threads pooled). */
    std::vector<SummaryRow> apiSummary() const;

    /** Total time across all calls of one API. */
    sim::Tick apiTime(const std::string &name) const;

    /** Total time of one API as a fraction of all API time. */
    double apiTimeFraction(const std::string &name) const;

    /** Total kernel-busy time on one device. */
    sim::Tick deviceKernelTime(int device) const;

    /** Total payload bytes copied, optionally filtered by copy kind. */
    sim::Bytes copiedBytes(const std::string &kind = "") const;

    /** Total on-wire bytes copied, optionally filtered by copy kind. */
    sim::Bytes copiedWireBytes(const std::string &kind = "") const;

    /**
     * Drop all records and zero the totals. Ids keep growing so stale
     * tokens stay inert; late-bound slots survive for the tokens that
     * still point at them.
     */
    void
    clear()
    {
        baseId_ = nextId_;
        kernels_.clear();
        apis_.clear();
        copies_.clear();
        refs_.clear();
        deps_.clear();
        apiTotals_.clear();
        copyTotals_.clear();
    }

    /** Render an nvprof-style text report. */
    std::string report() const;

    /** Render all records as CSV (kind,name,where,start_us,dur_us). */
    std::string csv() const;

    /**
     * Render all records as a chrome://tracing / Perfetto JSON trace
     * ("traceEvents" array): complete events (GPU kernels grouped per
     * device, API calls per host thread, copies per route) plus flow
     * events ("ph":"s"/"f") for every causal edge that crosses
     * track boundaries, so Perfetto renders the dependency arrows.
     */
    std::string chromeTrace() const;

    /** Write chromeTrace() to @p path (fatal on I/O failure). */
    void writeChromeTrace(const std::string &path) const;

    /**
     * Fold every record into an order-sensitive FNV-1a digest. Two
     * runs of the same configuration must produce identical digests;
     * the determinism harness (core/determinism.hh) is built on this.
     * Labels fold through their interned tables (Name::fold), equal
     * to byte-serial FNV-1a over the bytes plus a NUL. Ids and causal
     * edges are deliberately NOT folded: they annotate the record
     * stream without changing it.
     */
    std::uint64_t digest() const;

    /**
     * Attach an invariant auditor: every future record is validated
     * as it lands (kernel-lane monotonicity, API-thread serialization,
     * copy sanity). Passing nullptr detaches.
     */
    void setAuditor(sim::Auditor *auditor) { auditor_ = auditor; }

  private:
    /** Running totals of one API name. */
    struct ApiTotal
    {
        Name name;
        std::uint64_t calls = 0;
        sim::Tick ticks = 0;
    };

    /** Running totals of one copy kind. */
    struct CopyTotal
    {
        Name name;
        std::uint64_t copies = 0;
        sim::Bytes bytes = 0;
        sim::Bytes wireBytes = 0;
    };

    /** @return @p name's entry of @p totals, appended on first sight
     * (a handful of names: a scan beats a hash). */
    template <typename Total>
    static Total &
    totalOf(std::vector<Total> &totals, Name name)
    {
        for (Total &total : totals) {
            if (total.name == name)
                return total;
        }
        return totals.emplace_back(Total{name});
    }

    /**
     * Append the locator of the record just stored at @p index, with
     * @p deps minus invalid/stale ids and duplicates, sorted, at the
     * end of the flat dep array.
     */
    void
    land(RecordKind kind, std::size_t index, Deps deps)
    {
        const std::size_t begin = deps_.size();
        for (RecordId d : deps) {
            if (d >= baseId_ && d < nextId_)
                deps_.push_back(d);
        }
        const auto first = deps_.begin() + static_cast<std::ptrdiff_t>(begin);
        std::sort(first, deps_.end());
        deps_.erase(std::unique(first, deps_.end()), deps_.end());
        refs_.push_back({kind, static_cast<std::uint32_t>(index),
                         static_cast<std::uint32_t>(begin),
                         static_cast<std::uint32_t>(deps_.size() - begin)});
    }

    std::vector<KernelRecord> kernels_;
    std::vector<ApiRecord> apis_;
    std::vector<CopyRecord> copies_;
    std::vector<RecordRef> refs_;
    /** Every record's deps, back to back (see RecordRef). */
    std::vector<RecordId> deps_;
    std::vector<ApiTotal> apiTotals_;
    std::vector<CopyTotal> copyTotals_;
    /** Id of the first record since the last clear(). */
    RecordId baseId_ = 0;
    /** Id the next record gets. */
    RecordId nextId_ = 0;
    bool timingOnly_ = false;
    std::vector<CauseToken> causes_;
    /** Late-bound token slots; stable addresses, kept by clear(). */
    std::deque<RecordId> slots_;
    sim::Auditor *auditor_ = nullptr;
};

/** @return @p profiler's current cause; a null token without one. */
inline CauseToken
currentCause(const Profiler *profiler)
{
    return profiler ? profiler->currentCause() : CauseToken();
}

/** RAII ambient-cause guard; tolerates a null profiler. */
class CauseScope
{
  public:
    CauseScope(Profiler *profiler, CauseToken token) : profiler_(profiler)
    {
        if (profiler_)
            profiler_->pushCause(token);
    }
    ~CauseScope()
    {
        if (profiler_)
            profiler_->popCause();
    }
    CauseScope(const CauseScope &) = delete;
    CauseScope &operator=(const CauseScope &) = delete;

  private:
    Profiler *profiler_;
};

} // namespace dgxsim::profiling

#endif // DGXSIM_PROFILING_PROFILER_HH
