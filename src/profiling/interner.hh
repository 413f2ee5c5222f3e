/**
 * @file
 * Process-wide string interning for profiler records.
 *
 * A Name canonicalizes a label (kernel, API, lane, copy kind) once in
 * a shared table and stores only the pointer. Labels are interned
 * where they are built (layer-cost tables, lane constructors,
 * communicators, static literals) and travel as Name from there on,
 * so landing a record neither allocates nor hashes a string.
 *
 * Digest fold: the determinism digest folds each label's bytes plus a
 * NUL separator with byte-serial FNV-1a. The low byte of an FNV-1a
 * state evolves on its own (the multiply carries only upward), so
 * folding string s into state h equals
 *     h * P^(|s|+1) + C_s[h & 0xff]
 * for a 256-entry table C_s. The interner builds that table once, at
 * a string's first sight, and Name::fold() applies it with one
 * multiply and one lookup. Tables cost 2 KB per distinct string; the
 * vocabulary of kernel, API and lane names is bounded.
 *
 * The digest and every summary/report hash or compare string
 * *contents*, never addresses, so canonicalizing the storage cannot
 * change any baseline. Name deliberately exposes no ordering — nothing
 * may sort by pointer.
 *
 * The table is shared by all threads (campaign workers intern
 * concurrently) behind a mutex, with a thread-local cache keeping
 * the lookup lock-free after first use of a name on that thread.
 * Interned strings live for the process lifetime, which is the right
 * trade for a bounded vocabulary of kernel/API/lane names.
 */

#ifndef DGXSIM_PROFILING_INTERNER_HH
#define DGXSIM_PROFILING_INTERNER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dgxsim::profiling {

/** One canonical string plus its FNV-1a fold table. */
struct InternedString
{
    std::string str;
    /** FNV prime raised to |str| + 1 (the bytes plus the NUL). */
    std::uint64_t scale = 0;
    /** Fold offset per low byte of the incoming state. */
    std::array<std::uint64_t, 256> offset{};
};

/**
 * @return the canonical entry equal to @p s, interning it (and
 * building its fold table) on first sight. The reference is stable
 * for the process lifetime.
 */
const InternedString &internEntry(std::string_view s);

/** @return the canonical std::string equal to @p s. */
inline const std::string &
internString(std::string_view s)
{
    return internEntry(s).str;
}

/** @return how many distinct strings the table holds (tests). */
std::size_t internedStringCount();

/**
 * An interned string: one pointer into the shared table. Converts
 * implicitly to const std::string& so existing consumers (summary
 * maps, comparisons against literals) keep working; construction
 * from text is explicit so nothing interns by accident. The default
 * Name is the empty string and interns nothing.
 */
class Name
{
  public:
    Name();
    explicit Name(std::string_view s) : entry_(&internEntry(s)) {}

    operator const std::string &() const { return entry_->str; }
    const std::string &str() const { return entry_->str; }
    const char *c_str() const { return entry_->str.c_str(); }
    bool empty() const { return entry_->str.empty(); }
    std::size_t size() const { return entry_->str.size(); }

    std::size_t
    find(std::string_view s, std::size_t pos = 0) const
    {
        return entry_->str.find(s, pos);
    }

    std::size_t
    rfind(std::string_view s, std::size_t pos = std::string::npos) const
    {
        return entry_->str.rfind(s, pos);
    }

    /**
     * @return FNV-1a state @p h after folding this string's bytes and
     * a NUL separator (see the file comment).
     */
    std::uint64_t
    fold(std::uint64_t h) const
    {
        return h * entry_->scale + entry_->offset[h & 0xff];
    }

    /** Content equality (pointer compare: the table canonicalizes). */
    friend bool
    operator==(const Name &a, const Name &b)
    {
        return a.entry_ == b.entry_;
    }

    /** Content comparison against any string-ish value. */
    friend bool
    operator==(const Name &a, std::string_view b)
    {
        return a.entry_->str == b;
    }

  private:
    friend struct std::hash<Name>;

    const InternedString *entry_;
};

std::ostream &operator<<(std::ostream &os, const Name &name);

} // namespace dgxsim::profiling

/** Hash by identity, for grouping; never for ordering. */
template <>
struct std::hash<dgxsim::profiling::Name>
{
    std::size_t
    operator()(const dgxsim::profiling::Name &name) const noexcept
    {
        return std::hash<const void *>{}(name.entry_);
    }
};

#endif // DGXSIM_PROFILING_INTERNER_HH
