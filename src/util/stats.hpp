// Descriptive statistics used by the dataset-measurement reproductions
// (Section III) and the evaluation harness (Section V): means, standard
// deviations, Pearson correlation (Table I), empirical CDFs (Figs 3, 10, 12,
// 13, 15, 16) and percentile summaries.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mobirescue::util {

/// Arithmetic mean; 0 for an empty span.
double Mean(std::span<const double> xs);

/// Population standard deviation; 0 for fewer than 2 samples.
double StdDev(std::span<const double> xs);

/// Covariance of two equal-length series (population normalisation).
double Covariance(std::span<const double> xs, std::span<const double> ys);

/// Pearson correlation coefficient cov(x,y)/(sd_x*sd_y) in [-1, 1].
/// Returns 0 when either series is constant. Throws on length mismatch.
double PearsonCorrelation(std::span<const double> xs, std::span<const double> ys);

/// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> xs, double p);

/// Several linear-interpolated percentiles of one sample set with a single
/// sort; `ps` are in [0, 100]. Returns one value per requested percentile
/// (all 0 for an empty sample set).
std::vector<double> Percentiles(std::vector<double> xs,
                                std::span<const double> ps);

/// Count/mean/extremes plus the tail percentiles the serve layer and the
/// latency benches report (p50/p90/p95/p99). All fields are 0 when no
/// samples were given.
struct PercentileSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Summarises a sample vector (one sort, linear-interpolated percentiles —
/// identical values to calling Percentile per rank).
PercentileSummary Summarize(std::span<const double> xs);

/// An empirical cumulative distribution function over observed samples.
///
/// Benches print these as (value, fraction <= value) series matching the
/// CDF figures in the paper.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> samples);

  void Add(double x);
  /// Sorts pending samples; called automatically by queries.
  void Finalize();

  /// P(X <= x).
  double At(double x) const;
  /// Smallest sample v with P(X <= v) >= q, q in (0, 1].
  double Quantile(double q) const;
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double min() const;
  double max() const;

  /// Evenly spaced (value, cdf) points for printing, `points >= 2`.
  std::vector<std::pair<double, double>> Curve(std::size_t points = 20) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Streaming mean/std/min/max accumulator (Welford).
class RunningStats {
 public:
  void Add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace mobirescue::util
