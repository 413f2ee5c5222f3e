#include "sim/suggest.hh"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace dgxsim::sim {

namespace {

/**
 * Damerau-Levenshtein distance (three-row, adjacent transpositions
 * count 1): `dcg` is one edit from `dgc`, so the most common typo
 * class still earns a suggestion on short names.
 */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev2(b.size() + 1);
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
            if (i > 1 && j > 1 && a[i - 1] == b[j - 2] &&
                a[i - 2] == b[j - 1])
                cur[j] = std::min(cur[j], prev2[j - 2] + 1);
        }
        std::swap(prev2, prev);
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

std::string
closestName(const std::string &got,
            const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t bestDist = 0;
    for (const std::string &c : candidates) {
        const std::size_t d = editDistance(got, c);
        if (best.empty() || d < bestDist) {
            best = c;
            bestDist = d;
        }
    }
    // A suggestion further away than half the candidate is more
    // likely to mislead than to help.
    if (best.empty() || bestDist * 2 > std::max<std::size_t>(best.size(), 1))
        return "";
    return best;
}

std::string
didYouMean(const std::string &got,
           const std::vector<std::string> &candidates)
{
    const std::string best = closestName(got, candidates);
    if (best.empty())
        return "";
    return " (did you mean '" + best + "'?)";
}

std::optional<double>
parseFinite(std::string_view text)
{
    double value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

} // namespace dgxsim::sim
