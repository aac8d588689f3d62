#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/log.hpp"

namespace tpnet {

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * nb / (na + nb);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
tCritical95(std::size_t df)
{
    // Two-sided 95% critical values of the Student-t distribution.
    static const double table[] = {
        0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    constexpr std::size_t tableMax = sizeof(table) / sizeof(table[0]) - 1;
    if (df == 0)
        return std::numeric_limits<double>::infinity();
    if (df <= tableMax)
        return table[df];
    if (df <= 40)
        return 2.021;
    if (df <= 60)
        return 2.000;
    if (df <= 120)
        return 1.980;
    return 1.960;
}

double
ReplicationStat::halfWidth95() const
{
    if (stat_.count() < 2)
        return std::numeric_limits<double>::infinity();
    const double se = stat_.stddev() /
        std::sqrt(static_cast<double>(stat_.count()));
    return tCritical95(stat_.count() - 1) * se;
}

bool
ReplicationStat::acceptable(std::size_t min_reps) const
{
    if (stat_.count() < min_reps || stat_.count() < 2)
        return false;
    const double mean = stat_.mean();
    if (mean == 0.0)
        return halfWidth95() == 0.0;
    return halfWidth95() <= relBound_ * std::abs(mean);
}

void
Histogram::add(double x)
{
    if (counts_.empty())
        return;
    std::size_t bin = x < 0 ? 0 : static_cast<std::size_t>(x / width_);
    if (bin >= counts_.size() - 1)
        bin = counts_.size() - 1;
    ++counts_[bin];
    ++total_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.counts_.empty() || other.total_ == 0) {
        if (!other.counts_.empty() && counts_.empty())
            *this = other;
        return;
    }
    if (counts_.empty()) {
        *this = other;
        return;
    }
    if (counts_.size() != other.counts_.size() || width_ != other.width_) {
        tpnet_panic("merging histograms of different geometry: ",
                    counts_.size(), "x", width_, " vs ",
                    other.counts_.size(), "x", other.width_);
    }
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

double
Histogram::percentile(double q) const
{
    if (total_ == 0 || counts_.empty())
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double target = q * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += static_cast<double>(counts_[i]);
        // cum > 0 keeps q == 0 on the first *nonempty* bin instead of
        // reporting the midpoint of an empty lowest bin.
        if (cum >= target && cum > 0.0) {
            // Midpoint of the bin as the representative value.
            return (static_cast<double>(i) + 0.5) * width_;
        }
    }
    return static_cast<double>(counts_.size()) * width_;
}

} // namespace tpnet
