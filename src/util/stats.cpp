#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mobirescue::util {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double StdDev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double Covariance(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("Covariance: length mismatch");
  }
  if (xs.empty()) return 0.0;
  const double mx = Mean(xs), my = Mean(ys);
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += (xs[i] - mx) * (ys[i] - my);
  }
  return acc / static_cast<double>(xs.size());
}

double PearsonCorrelation(std::span<const double> xs, std::span<const double> ys) {
  const double sx = StdDev(xs), sy = StdDev(ys);
  if (sx == 0.0 || sy == 0.0) return 0.0;
  return Covariance(xs, ys) / (sx * sy);
}

namespace {

/// Percentile over an already-sorted sample vector.
double SortedPercentile(const std::vector<double>& xs, double p) {
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

}  // namespace

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return SortedPercentile(xs, p);
}

std::vector<double> Percentiles(std::vector<double> xs,
                                std::span<const double> ps) {
  std::vector<double> out(ps.size(), 0.0);
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out[i] = SortedPercentile(xs, ps[i]);
  }
  return out;
}

PercentileSummary Summarize(std::span<const double> xs) {
  PercentileSummary s;
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.count = sorted.size();
  s.mean = Mean(sorted);
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = SortedPercentile(sorted, 50.0);
  s.p90 = SortedPercentile(sorted, 90.0);
  s.p95 = SortedPercentile(sorted, 95.0);
  s.p99 = SortedPercentile(sorted, 99.0);
  return s;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : samples_(std::move(samples)), sorted_(false) {
  Finalize();
}

void EmpiricalCdf::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::Finalize() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::At(double x) const {
  if (samples_.empty()) return 0.0;
  const_cast<EmpiricalCdf*>(this)->Finalize();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double EmpiricalCdf::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  const_cast<EmpiricalCdf*>(this)->Finalize();
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  return samples_[idx == 0 ? 0 : idx - 1];
}

double EmpiricalCdf::min() const {
  const_cast<EmpiricalCdf*>(this)->Finalize();
  return samples_.empty() ? 0.0 : samples_.front();
}

double EmpiricalCdf::max() const {
  const_cast<EmpiricalCdf*>(this)->Finalize();
  return samples_.empty() ? 0.0 : samples_.back();
}

std::vector<std::pair<double, double>> EmpiricalCdf::Curve(
    std::size_t points) const {
  std::vector<std::pair<double, double>> curve;
  if (samples_.empty() || points < 2) return curve;
  const_cast<EmpiricalCdf*>(this)->Finalize();
  const double lo = samples_.front(), hi = samples_.back();
  curve.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    curve.emplace_back(x, At(x));
  }
  return curve;
}

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace mobirescue::util
