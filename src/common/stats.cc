#include "common/stats.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace profess
{

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : width_(bucket_width), buckets_(num_buckets + 1, 0)
{
    fatal_if(num_buckets < 1, "Histogram needs >= 1 bucket");
    fatal_if(!(bucket_width > 0.0),
             "Histogram bucket width must be > 0 (got %g)",
             bucket_width);
    // Bucket edges are 0, w, 2w, ...: strictly increasing as long
    // as adding one width to the largest edge still moves it (a
    // denormal width under a large edge would collapse edges).
    double last = width_ * static_cast<double>(num_buckets - 1);
    fatal_if(last + width_ <= last,
             "Histogram bucket edges not monotone "
             "(width %g too small for %zu buckets)",
             bucket_width, num_buckets);
}

double
Histogram::quantile(double q) const
{
    std::uint64_t total = stat_.count();
    if (total == 0)
        return 0.0;
    auto target = static_cast<std::uint64_t>(q * total);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen > target)
            return width_ * static_cast<double>(i + 1);
    }
    return width_ * static_cast<double>(buckets_.size());
}

namespace
{

/** Linear-interpolated order statistic of a sorted series. */
double
interpQuantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted[0];
    double pos = q * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

} // anonymous namespace

double
geometricMean(const std::vector<double> &data)
{
    if (data.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : data) {
        panic_if(x <= 0.0, "geometricMean requires positive data");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(data.size()));
}

BoxSummary
boxSummary(std::vector<double> data)
{
    BoxSummary s;
    if (data.empty())
        return s;
    std::sort(data.begin(), data.end());
    s.n = data.size();
    s.min = data.front();
    s.max = data.back();
    s.q1 = interpQuantile(data, 0.25);
    s.median = interpQuantile(data, 0.50);
    s.q3 = interpQuantile(data, 0.75);
    // Zero or below has no logarithm: no geometric mean then.
    s.gmean = s.min > 0.0 ? geometricMean(data)
                          : std::numeric_limits<double>::quiet_NaN();
    return s;
}

} // namespace profess
