#include "ml/svm/scaler.hpp"

#include <cmath>
#include <stdexcept>

namespace mobirescue::ml {

void FeatureScaler::Fit(std::span<const std::vector<double>> rows) {
  if (rows.empty()) throw std::invalid_argument("FeatureScaler: no rows");
  const std::size_t dim = rows.front().size();
  mean_.assign(dim, 0.0);
  std_.assign(dim, 0.0);
  for (const auto& row : rows) {
    if (row.size() != dim) {
      throw std::invalid_argument("FeatureScaler: ragged rows");
    }
    for (std::size_t j = 0; j < dim; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= static_cast<double>(rows.size());
  for (const auto& row : rows) {
    for (std::size_t j = 0; j < dim; ++j) {
      const double d = row[j] - mean_[j];
      std_[j] += d * d;
    }
  }
  for (double& s : std_) {
    s = std::sqrt(s / static_cast<double>(rows.size()));
    if (s < 1e-12) s = 1.0;  // constant feature: centre only
  }
}

std::vector<double> FeatureScaler::Transform(std::span<const double> row) const {
  if (row.size() != mean_.size()) {
    throw std::invalid_argument("FeatureScaler: dimension mismatch");
  }
  std::vector<double> out(row.begin(), row.end());
  TransformRows(out);
  return out;
}

void FeatureScaler::TransformRows(std::span<double> rows) const {
  const std::size_t dim = mean_.size();
  if ((dim == 0 && !rows.empty()) || (dim != 0 && rows.size() % dim != 0)) {
    throw std::invalid_argument("FeatureScaler: dimension mismatch");
  }
  for (std::size_t i = 0; i < rows.size(); i += dim) {
    for (std::size_t j = 0; j < dim; ++j) {
      rows[i + j] = (rows[i + j] - mean_[j]) / std_[j];
    }
  }
}

std::vector<std::vector<double>> FeatureScaler::TransformAll(
    std::span<const std::vector<double>> rows) const {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(Transform(row));
  return out;
}

}  // namespace mobirescue::ml
