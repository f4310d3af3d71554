#include "util/stats.h"

#include <algorithm>

#include "util/logging.h"

namespace exist {

void
Samples::sort() const
{
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
}

double
Samples::mean() const
{
    return values_.empty() ? 0.0 : sum() / static_cast<double>(count());
}

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : values_)
        s += v;
    return s;
}

double
Samples::min() const
{
    sort();
    return values_.empty() ? 0.0 : values_.front();
}

double
Samples::max() const
{
    sort();
    return values_.empty() ? 0.0 : values_.back();
}

double
Samples::percentile(double p) const
{
    EXIST_ASSERT(p >= 0.0 && p <= 100.0, "percentile %f out of range", p);
    if (values_.empty())
        return 0.0;
    sort();
    if (values_.size() == 1)
        return values_[0];
    double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, values_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values_[lo] + frac * (values_[hi] - values_[lo]);
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples))
{
    std::sort(sorted_.begin(), sorted_.end());
}

double
Cdf::at(double x) const
{
    if (sorted_.empty())
        return 0.0;
    auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

double
Cdf::quantile(double q) const
{
    EXIST_ASSERT(q >= 0.0 && q <= 1.0, "quantile %f out of range", q);
    if (sorted_.empty())
        return 0.0;
    auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted_.size() - 1));
    return sorted_[idx];
}

}  // namespace exist
