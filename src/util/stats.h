/**
 * @file
 * Statistics helpers used throughout the harness: percentile
 * extraction and empirical CDFs.
 */
#ifndef EXIST_UTIL_STATS_H
#define EXIST_UTIL_STATS_H

#include <cstddef>
#include <vector>

namespace exist {

/**
 * Sample reservoir with percentile queries. Keeps all samples; intended
 * for per-experiment latency distributions (at most a few million values).
 */
class Samples
{
  public:
    void add(double x) { values_.push_back(x); sorted_ = false; }
    void reserve(std::size_t n) { values_.reserve(n); }

    std::size_t count() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double mean() const;
    double sum() const;
    double min() const;
    double max() const;

    /** Percentile in [0, 100] using linear interpolation. */
    double percentile(double p) const;

    const std::vector<double> &values() const { return values_; }

  private:
    void sort() const;

    mutable std::vector<double> values_;
    mutable bool sorted_ = false;
};

/**
 * Empirical cumulative distribution function built from samples.
 * Used to reproduce the paper's Figure 8 (context-switch period CDF).
 */
class Cdf
{
  public:
    explicit Cdf(std::vector<double> samples);

    /** Fraction of samples <= x. */
    double at(double x) const;

    /** Value at the given quantile q in [0, 1]. */
    double quantile(double q) const;

    std::size_t count() const { return sorted_.size(); }

  private:
    std::vector<double> sorted_;
};

}  // namespace exist

#endif  // EXIST_UTIL_STATS_H
