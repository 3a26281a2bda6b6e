/**
 * @file
 * Fixed-bucket log2 histogram for cycle counts.
 *
 * The profiler, the span tracer and the traffic sweep need latency
 * distributions (p50/p90/p99 of a span's or a request's cycles)
 * without allocating per sample. Values land in one of 65
 * power-of-two buckets: bucket 0 holds exactly the value 0, bucket
 * i >= 1 holds [2^(i-1), 2^i), so a value's bucket is its bit width
 * and sample() costs one bit scan. Exact count/sum/min/max ride along
 * so the mean is precise and percentile interpolation can be clamped
 * to the observed range (a histogram whose samples are all one value
 * reports that value exactly).
 */

#ifndef AOSD_SIM_PROFILE_HISTOGRAM_HH
#define AOSD_SIM_PROFILE_HISTOGRAM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "sim/json.hh"

namespace aosd
{

/** Log2-bucketed distribution of unsigned 64-bit samples. */
class Histogram
{
  public:
    /** Bucket 0 plus one bucket per bit position. */
    static constexpr std::size_t bucketCount = 65;

    /** Bucket a value falls into: 0 for 0, else 1 + floor(log2(v)),
     *  which is the bit width of `v`. */
    static std::size_t
    bucketIndex(std::uint64_t v)
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    /** Smallest value belonging to bucket `i`. */
    static std::uint64_t bucketLowerBound(std::size_t i);

    /** Largest value belonging to bucket `i`. */
    static std::uint64_t bucketUpperBound(std::size_t i);

    /** Inline: a traffic sweep samples three histograms per
     *  simulated request. */
    void
    sample(std::uint64_t v)
    {
        if (n == 0) {
            lo = hi = v;
        } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        ++counts[bucketIndex(v)];
        ++n;
        sum += v;
    }

    void reset();

    std::uint64_t count() const { return n; }
    std::uint64_t total() const { return sum; }
    /** 0 when empty (documented, never NaN). */
    double mean() const;
    std::uint64_t min() const { return n ? lo : 0; }
    std::uint64_t max() const { return n ? hi : 0; }
    std::uint64_t bucket(std::size_t i) const { return counts[i]; }

    /**
     * Value at percentile `p` (0..100). The sample of rank
     * ceil(p/100 * n) is located in its bucket; the bucket's bounds are
     * clamped to the observed min/max and the result interpolated
     * linearly across the bucket's samples. Empty histogram: 0.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }
    double p999() const { return percentile(99.9); }

    /** {"count":..,"sum":..,"min":..,"max":..,"p50":..,...}. */
    Json toJson() const;

  private:
    std::array<std::uint64_t, bucketCount> counts{};
    std::uint64_t n = 0;
    std::uint64_t sum = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
};

} // namespace aosd

#endif // AOSD_SIM_PROFILE_HISTOGRAM_HH
