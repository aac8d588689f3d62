/**
 * @file
 * Statistics utilities: running mean/variance, histograms, and Student-t
 * confidence intervals over independent replications.
 *
 * The paper's methodology (Section 6.0): "Simulation runs were made
 * repeatedly until the 95% confidence intervals for the sample means were
 * acceptable (less than 5% of the mean values)". ReplicationStat implements
 * exactly that acceptance test.
 */

#ifndef TPNET_SIM_STATS_HPP
#define TPNET_SIM_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tpnet {

struct SnapshotAccess;

/** Numerically stable (Welford) running mean/variance accumulator. */
class RunningStat
{
    friend struct SnapshotAccess;

  public:
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        if (x < min_ || n_ == 1)
            min_ = x;
        if (x > max_ || n_ == 1)
            max_ = x;
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Unbiased sample variance (0 when fewer than 2 samples). */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const;

    /**
     * Fold another accumulator into this one (Chan et al. parallel
     * variance combination). Merging is exact for count/mean/min/max
     * and numerically stable for the variance; it is associative and
     * commutative up to floating-point rounding, which is what lets
     * per-replication metric windows be folded in any grouping.
     */
    void merge(const RunningStat &other);

    void
    clear()
    {
        n_ = 0;
        mean_ = m2_ = min_ = max_ = 0.0;
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Two-sided Student-t critical value at 95% confidence for @p df degrees
 * of freedom (table lookup, asymptotic 1.96 beyond the table).
 */
double tCritical95(std::size_t df);

/**
 * Accumulates one scalar result per independent replication and decides
 * when the 95% confidence half-width has dropped below a relative bound.
 */
class ReplicationStat
{
  public:
    /** @param rel_bound CI half-width bound as a fraction of the mean. */
    explicit ReplicationStat(double rel_bound = 0.05)
        : relBound_(rel_bound)
    {}

    void add(double x) { stat_.add(x); }

    std::size_t count() const { return stat_.count(); }
    double mean() const { return stat_.mean(); }

    /** 95% confidence half-width of the mean (inf with < 2 samples). */
    double halfWidth95() const;

    /**
     * @return true once at least @p min_reps replications were added and
     * the 95% half-width is within the relative bound of the mean.
     */
    bool acceptable(std::size_t min_reps = 2) const;

  private:
    RunningStat stat_;
    double relBound_;
};

/** Fixed-bin latency histogram (bins of equal width, overflow bin). */
class Histogram
{
    friend struct SnapshotAccess;

  public:
    Histogram() = default;

    Histogram(double bin_width, std::size_t bins)
        : width_(bin_width), counts_(bins + 1, 0)
    {}

    void add(double x);

    std::uint64_t total() const { return total_; }
    double binWidth() const { return width_; }
    std::size_t bins() const { return counts_.empty() ? 0
                                                      : counts_.size() - 1; }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t overflow() const
    {
        return counts_.empty() ? 0 : counts_.back();
    }

    /** Value below which fraction @p q of the samples fall (approx.). */
    double percentile(double q) const;

    /**
     * Fold another histogram into this one. Both histograms must have
     * identical geometry (bin width and bin count); merging histograms
     * of different shapes is a programming error and dies loudly.
     */
    void merge(const Histogram &other);

  private:
    double width_ = 1.0;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace tpnet

#endif // TPNET_SIM_STATS_HPP
