#include "profiling/interner.hh"

#include <deque>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace dgxsim::profiling {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** The empty string: folding it multiplies by P and adds nothing. */
constinit const InternedString kEmpty{std::string(), kFnvPrime, {}};

/** Heterogeneous hashing so lookups never build a temporary string. */
struct StringHash {
    using is_transparent = void;

    std::size_t
    operator()(std::string_view s) const
    {
        return std::hash<std::string_view>{}(s);
    }
};

/** Keys view the entries' own storage, which never moves. */
using Index = std::unordered_map<std::string_view, const InternedString *,
                                 StringHash, std::equal_to<>>;

struct Table {
    std::mutex mutex;
    // A deque never relocates its elements, so handing out
    // `const InternedString *` is safe for the process lifetime.
    std::deque<InternedString> entries;
    Index index;
};

Table &
table()
{
    static Table t;
    return t;
}

/** Fill @p e's fold table by running byte-serial FNV-1a per low byte. */
void
buildFold(InternedString &e)
{
    e.scale = 1;
    for (std::size_t i = 0; i <= e.str.size(); ++i)
        e.scale *= kFnvPrime;
    for (std::uint64_t low = 0; low < 256; ++low) {
        std::uint64_t h = low;
        for (char c : e.str) {
            h ^= static_cast<unsigned char>(c);
            h *= kFnvPrime;
        }
        h *= kFnvPrime; // the NUL separator: h ^= 0
        e.offset[low] = h - low * e.scale;
    }
}

} // namespace

Name::Name() : entry_(&kEmpty) {}

const InternedString &
internEntry(std::string_view s)
{
    if (s.empty())
        return kEmpty;
    // Per-thread cache of resolved names: after the first sight of a
    // name on a thread, lookups never take the mutex. Campaign
    // workers each build their own cache; the canonical storage below
    // is shared.
    thread_local Index cache;
    if (auto it = cache.find(s); it != cache.end())
        return *it->second;

    Table &t = table();
    const InternedString *canonical = nullptr;
    {
        std::lock_guard<std::mutex> lock(t.mutex);
        auto it = t.index.find(s);
        if (it == t.index.end()) {
            InternedString &e = t.entries.emplace_back();
            e.str = s;
            buildFold(e);
            it = t.index.emplace(e.str, &e).first;
        }
        canonical = it->second;
    }
    cache.emplace(canonical->str, canonical);
    return *canonical;
}

std::size_t
internedStringCount()
{
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mutex);
    return t.entries.size();
}

std::ostream &
operator<<(std::ostream &os, const Name &name)
{
    return os << name.str();
}

} // namespace dgxsim::profiling
