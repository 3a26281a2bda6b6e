#include "sim/profile/histogram.hh"

#include <algorithm>

namespace aosd
{

std::uint64_t
Histogram::bucketLowerBound(std::size_t i)
{
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

std::uint64_t
Histogram::bucketUpperBound(std::size_t i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
}

void
Histogram::reset()
{
    counts.fill(0);
    n = sum = lo = hi = 0;
}

double
Histogram::mean() const
{
    return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

double
Histogram::percentile(double p) const
{
    if (n == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the percentile sample, 1-based, at least 1.
    auto rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(n) + 0.9999999999);
    rank = std::clamp<std::uint64_t>(rank, 1, n);

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bucketCount; ++i) {
        if (counts[i] == 0)
            continue;
        if (cum + counts[i] < rank) {
            cum += counts[i];
            continue;
        }
        // The rank-th sample lies in bucket i.
        std::uint64_t blo = std::max(bucketLowerBound(i), lo);
        std::uint64_t bhi = std::min(bucketUpperBound(i), hi);
        if (bhi < blo)
            bhi = blo;
        std::uint64_t pos = rank - cum; // 1..counts[i]
        if (counts[i] <= 1 || bhi == blo)
            return static_cast<double>(blo);
        return static_cast<double>(blo) +
               static_cast<double>(bhi - blo) *
                   static_cast<double>(pos - 1) /
                   static_cast<double>(counts[i] - 1);
    }
    return static_cast<double>(hi);
}

Json
Histogram::toJson() const
{
    Json out = Json::object();
    out.set("count", Json(n));
    out.set("sum", Json(sum));
    out.set("min", Json(min()));
    out.set("max", Json(max()));
    out.set("mean", Json(mean()));
    out.set("p50", Json(p50()));
    out.set("p90", Json(p90()));
    out.set("p99", Json(p99()));
    out.set("p999", Json(p999()));
    return out;
}

} // namespace aosd
