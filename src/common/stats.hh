/**
 * @file
 * Statistics utilities used by monitors and by result reporting.
 *
 * RunningStat  - numerically stable mean / variance (Welford).
 * ExpSmoother  - simple exponential smoothing, used by RSM (Sec. 3.1.3)
 *                with the paper's alpha = 0.125.
 * Histogram    - fixed-bucket histogram for latency distributions.
 * StatSet      - a named collection of scalar counters a component can
 *                expose for reporting.
 */

#ifndef PROFESS_COMMON_STATS_HH
#define PROFESS_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace profess
{

/** Welford running mean and variance. */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
    }

    /** @return number of samples added. */
    std::uint64_t count() const { return n_; }

    /** @return sample mean (0 if empty). */
    double mean() const { return mean_; }

    /** @return population variance (0 if fewer than 2 samples). */
    double
    variance() const
    {
        return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
    }

    /** @return population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Reset to the empty state. */
    void
    reset()
    {
        n_ = 0;
        mean_ = 0.0;
        m2_ = 0.0;
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Simple exponential smoothing: avg <- avg + alpha * (x - avg).
 *
 * The first sample initializes the average directly, as is standard.
 */
class ExpSmoother
{
  public:
    /** @param alpha Smoothing parameter in (0, 1]. */
    explicit ExpSmoother(double alpha = 0.125) : alpha_(alpha) {}

    /** Add a sample and return the updated average. */
    double
    add(double x)
    {
        if (!primed_) {
            avg_ = x;
            primed_ = true;
        } else {
            avg_ += alpha_ * (x - avg_);
        }
        return avg_;
    }

    /** @return current smoothed value (0 before the first sample). */
    double value() const { return avg_; }

    /** @return true once at least one sample has been added. */
    bool primed() const { return primed_; }

    /** Reset to the unprimed state. */
    void
    reset()
    {
        avg_ = 0.0;
        primed_ = false;
    }

  private:
    double alpha_;
    double avg_ = 0.0;
    bool primed_ = false;
};

/**
 * Fixed-width-bucket histogram with explicit underflow and overflow
 * accounting.  Construction validates the implied bucket edges
 * (0, w, 2w, ...) are strictly increasing (width > 0 and not so
 * small that consecutive edges collapse in floating point).
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket (> 0).
     * @param num_buckets Number of regular buckets (>= 1).
     */
    Histogram(double bucket_width, std::size_t num_buckets);

    /** Add one sample. */
    void
    add(double x)
    {
        stat_.add(x);
        sum_ += x;
        if (x < 0) {
            ++underflow_;
            return;
        }
        auto i = static_cast<std::size_t>(x / width_);
        if (i >= buckets_.size() - 1)
            i = buckets_.size() - 1;
        ++buckets_[i];
    }

    /** @return count in bucket i (last bucket = overflow). */
    std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

    /** @return number of buckets including overflow. */
    std::size_t numBuckets() const { return buckets_.size(); }

    /** @return samples below the first bucket edge (x < 0). */
    std::uint64_t underflow() const { return underflow_; }

    /** @return samples at or beyond the last regular edge. */
    std::uint64_t overflow() const { return buckets_.back(); }

    /** @return summary statistics over all added samples. */
    const RunningStat &summary() const { return stat_; }

    /** @return exact running sum of all added samples (including
     *  underflow), for exporters that must reconcile sum and count
     *  without the rounding of mean * count. */
    double sum() const { return sum_; }

    /** @return width of each regular bucket. */
    double bucketWidth() const { return width_; }

    /**
     * Approximate quantile from the histogram.
     *
     * @param q Quantile in [0, 1].
     * @return Upper edge of the bucket holding the quantile.
     */
    double quantile(double q) const;

    /** Reset all counts (bucket layout is kept). */
    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        underflow_ = 0;
        sum_ = 0.0;
        stat_.reset();
    }

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    double sum_ = 0.0;
    RunningStat stat_;
};

/**
 * A named set of scalar statistics.  Components register counters by
 * name; the simulator dumps them uniformly.
 */
class StatSet
{
  public:
    /** Increment a named counter. */
    void
    inc(const std::string &name, std::uint64_t v = 1)
    {
        counters_[name] += v;
    }

    /**
     * @return a stable reference to a named counter.
     *
     * Hot-path components resolve the reference once at construction
     * and bump it with a plain add, skipping the per-access map
     * lookup.  References stay valid across reset(), which zeroes
     * counters in place instead of erasing them.
     */
    std::uint64_t &
    counterRef(const std::string &name)
    {
        return counters_[name];
    }

    /** Set a named value. */
    void set(const std::string &name, double v) { values_[name] = v; }

    /** @return counter value (0 if never incremented). */
    std::uint64_t
    counter(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** @return set value (0 if never set). */
    double
    value(const std::string &name) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

    /** @return all counters, sorted by name. */
    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }

    /** @return all values, sorted by name. */
    const std::map<std::string, double> &values() const { return values_; }

    /**
     * Zero all statistics.
     *
     * Counters are zeroed in place (not erased) so references from
     * counterRef() stay valid; a counter that was only ever zero
     * reads the same either way.
     */
    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second = 0;
        values_.clear();
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> values_;
};

/**
 * A counter of a StatSet that joins the set on its first increment,
 * as StatSet::inc() does, but looks its name up only that once.  For
 * counters whose absence shows (a dump or a digest that lists every
 * name), where a counterRef() taken up front would add a zero entry
 * to runs that never count one.
 */
class LazyCounter
{
  public:
    LazyCounter(StatSet &set, const char *name) : set_(set), name_(name)
    {
    }

    void
    inc(std::uint64_t v = 1)
    {
        if (ref_ == nullptr)
            ref_ = &set_.counterRef(name_);
        *ref_ += v;
    }

  private:
    StatSet &set_;
    const char *name_;
    std::uint64_t *ref_ = nullptr; ///< stable: reset() zeroes in place
};

/**
 * Box-plot style summary of a data series (Fig. 5 reporting):
 * min, first quartile, median, third quartile, max and geometric mean.
 */
struct BoxSummary
{
    double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
    double gmean = 0;
    std::size_t n = 0;
};

/**
 * Compute a BoxSummary of a series.
 *
 * Quartiles use linear interpolation between order statistics; the
 * geometric mean is NaN unless every value is positive.
 */
BoxSummary boxSummary(std::vector<double> data);

/** @return geometric mean of a strictly positive series (0 if empty). */
double geometricMean(const std::vector<double> &data);

} // namespace profess

#endif // PROFESS_COMMON_STATS_HH
