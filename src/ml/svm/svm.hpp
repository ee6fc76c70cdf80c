// Support Vector Machine with SMO training (Cortes & Vapnik; Platt's SMO).
//
// This is the classifier at the heart of the paper's Section IV-B: given a
// disaster-factor vector it outputs the binary rescue decision f(p_q, h_q).
// Implemented from scratch: the simplified SMO algorithm over a kernel Gram
// evaluation, soft margin C, KKT tolerance, bounded passes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/svm/kernel.hpp"

namespace mobirescue::ml {

/// Labelled dataset: rows of features plus labels in {-1, +1}.
struct SvmDataset {
  std::vector<std::vector<double>> x;
  std::vector<int> y;

  std::size_t size() const { return x.size(); }
  void Add(std::vector<double> features, int label);
};

struct SvmConfig {
  KernelConfig kernel;
  double c = 1.0;          // soft-margin penalty
  double tolerance = 1e-3; // KKT violation tolerance
  int max_passes = 8;      // passes with no alpha change before stopping
  int max_iterations = 300;
  /// Maintain Platt's incremental error cache (O(n) per pair update)
  /// instead of recomputing the decision function per candidate pair
  /// (O(n_sv) each, O(n * n_sv) per sweep). Off is the scalar reference
  /// path the microbenches compare against; both converge to equivalent
  /// models but floating-point drift makes the trajectories differ.
  bool use_error_cache = true;
  std::uint64_t seed = 13;
};

/// A trained SVM: the support vectors, their alpha*y coefficients and bias.
/// Support vectors are additionally stored as one contiguous row-major
/// buffer so decision evaluation streams through memory instead of chasing
/// per-vector allocations. A linear model also keeps its primal weights
/// w = sum_i coeff_i * sv_i, computed once here, and scores bias + w.x.
class SvmModel {
 public:
  SvmModel() = default;
  SvmModel(KernelConfig kernel, std::vector<std::vector<double>> support_x,
           std::vector<double> coeff, double bias);

  /// Signed decision value; >= 0 classifies as +1. Linear: bias + w.x;
  /// RBF and polynomial: bias + sum_i coeff_i * k(sv_i, x).
  double DecisionValue(std::span<const double> features) const;

  /// Decision values of the out.size() rows of the row-major buffer `rows`
  /// (out.size() x dim). Kernel models score blocks of 4 rows per pass over
  /// the flattened support vectors. Entry i is bit-identical to
  /// DecisionValue(row i).
  void DecisionValues(std::span<const double> rows, std::size_t dim,
                      std::span<double> out) const;

  /// The same for rows held one vector each.
  std::vector<double> DecisionValues(
      const std::vector<std::vector<double>>& rows) const;

  /// Binary prediction in {-1, +1}.
  int Predict(std::span<const double> features) const;

  std::size_t num_support_vectors() const { return support_x_.size(); }
  double bias() const { return bias_; }
  const KernelConfig& kernel() const { return kernel_; }

  /// Introspection for serialization/tests.
  std::size_t dimension() const {
    return support_x_.empty() ? 0 : support_x_.front().size();
  }
  const std::vector<double>& support_vector(std::size_t i) const {
    return support_x_.at(i);
  }
  double coefficient(std::size_t i) const { return coeff_.at(i); }

 private:
  KernelConfig kernel_;
  std::vector<std::vector<double>> support_x_;
  std::vector<double> coeff_;  // alpha_i * y_i
  double bias_ = 0.0;
  // Row-major (num_sv x dim) copy of support_x_ for contiguous evaluation.
  std::vector<double> sv_flat_;
  std::size_t dim_ = 0;
  // Primal weights of a linear model (dim_ entries); empty otherwise.
  std::vector<double> w_;
};

/// Trains an SVM on the dataset with simplified SMO.
SvmModel TrainSvm(const SvmDataset& data, const SvmConfig& config);

}  // namespace mobirescue::ml
