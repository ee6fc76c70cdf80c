// Feature standardisation. Disaster factors live on wildly different scales
// (mm of rain ~0-200, wind ~0-100 mph, altitude ~150-300 m); the SVM and the
// DQN both consume z-scored features.
#pragma once

#include <span>
#include <vector>

namespace mobirescue::ml {

class FeatureScaler {
 public:
  FeatureScaler() = default;

  /// Learns per-feature mean/std from rows of equal length.
  void Fit(std::span<const std::vector<double>> rows);

  /// z-scores one row (constant features pass through centred).
  std::vector<double> Transform(std::span<const double> row) const;

  /// z-scores, in place, a row-major buffer of rows of dimension() values
  /// each, with Transform's arithmetic.
  void TransformRows(std::span<double> rows) const;

  std::vector<std::vector<double>> TransformAll(
      std::span<const std::vector<double>> rows) const;

  bool fitted() const { return !mean_.empty(); }
  std::size_t dimension() const { return mean_.size(); }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& stddev() const { return std_; }

  /// Restores a previously-fitted state (deserialization).
  void Restore(std::vector<double> mean, std::vector<double> stddev) {
    mean_ = std::move(mean);
    std_ = std::move(stddev);
  }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace mobirescue::ml
