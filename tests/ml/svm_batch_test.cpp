// Parity tests for the SVM fast paths: batched DecisionValues must be
// bit-identical to per-row DecisionValue for every kernel type, a linear
// model's primal bias + w.x must agree with its support-vector sum, and
// SMO with the error cache must train models equivalent in quality to the
// scalar recompute-everything reference.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/serialize.hpp"
#include "ml/svm/svm.hpp"
#include "util/rng.hpp"

namespace mobirescue::ml {
namespace {

SvmDataset TwoBlobs(std::size_t n, util::Rng& rng) {
  SvmDataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double cx = positive ? 1.5 : -1.5;
    data.Add({cx + rng.Normal(0, 0.8), rng.Normal(0, 0.8)}, positive ? 1 : -1);
  }
  return data;
}

class SvmBatchKernelTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(SvmBatchKernelTest, DecisionValuesMatchPerRowBitwise) {
  util::Rng rng(41);
  const SvmDataset data = TwoBlobs(90, rng);
  SvmConfig config;
  config.kernel.type = GetParam();
  config.kernel.gamma = 0.7;
  const SvmModel model = TrainSvm(data, config);
  ASSERT_GT(model.num_support_vectors(), 0u);

  // Row counts around the 4-row block: empty, tail only, exact blocks,
  // blocks plus a tail, and a predictor-sized batch.
  for (const std::size_t n : {0, 1, 3, 4, 5, 7, 40, 2001}) {
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back({rng.Uniform(-3, 3), rng.Uniform(-3, 3)});
    }
    const std::vector<double> batched = model.DecisionValues(rows);
    std::vector<double> flat;
    for (const std::vector<double>& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    std::vector<double> from_flat(n);
    model.DecisionValues(flat, 2, from_flat);
    ASSERT_EQ(batched.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(batched[i], model.DecisionValue(rows[i]))
          << KernelName(GetParam()) << " n " << n << " row " << i;
      ASSERT_EQ(from_flat[i], batched[i])
          << KernelName(GetParam()) << " n " << n << " row " << i;
    }
  }
}

TEST_P(SvmBatchKernelTest, SaveLoadRoundTripKeepsDecisionValuesBitwise) {
  // The text format stores the support vectors, not w: a loaded linear
  // model folds its primal weights again and must land on the same bits.
  util::Rng rng(46);
  const SvmDataset data = TwoBlobs(70, rng);
  SvmConfig config;
  config.kernel.type = GetParam();
  const SvmModel model = TrainSvm(data, config);
  ASSERT_GT(model.num_support_vectors(), 0u);
  util::TextWriter out;
  SaveSvm(model, out);
  const std::string text = out.Release();
  util::TextReader in(text, "LoadSvm");
  const SvmModel loaded = LoadSvm(in);

  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.Uniform(-3, 3), rng.Uniform(-3, 3)});
  }
  const std::vector<double> want = model.DecisionValues(rows);
  const std::vector<double> got = loaded.DecisionValues(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << KernelName(GetParam()) << " row " << i;
    ASSERT_EQ(loaded.DecisionValue(rows[i]), model.DecisionValue(rows[i]))
        << KernelName(GetParam()) << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SvmBatchKernelTest,
                         ::testing::Values(KernelType::kLinear,
                                           KernelType::kRbf,
                                           KernelType::kPolynomial),
                         [](const auto& info) { return KernelName(info.param); });

TEST(SvmBatchTest, DecisionValuesHandlesEmptyAndSingleRow) {
  util::Rng rng(42);
  const SvmDataset data = TwoBlobs(40, rng);
  const SvmModel model = TrainSvm(data, SvmConfig{});
  EXPECT_TRUE(model.DecisionValues({}).empty());
  const std::vector<std::vector<double>> one = {{0.4, -0.2}};
  const std::vector<double> values = model.DecisionValues(one);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], model.DecisionValue(one[0]));
}

TEST(SvmBatchTest, LinearPrimalAgreesWithSupportVectorSum) {
  // bias + w.x regroups sum_i coeff_i * (sv_i . x): equal in exact
  // arithmetic, within rounding of the summed terms in floating point.
  util::Rng rng(47);
  SvmDataset data;
  for (int i = 0; i < 120; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    data.Add({label * 0.8 + rng.Normal(0, 1.0), rng.Normal(0, 1.0),
              -label * 0.5 + rng.Normal(0, 1.0)},
             label);
  }
  SvmConfig config;
  config.kernel.type = KernelType::kLinear;
  config.c = 2.0;
  const SvmModel model = TrainSvm(data, config);
  ASSERT_GT(model.num_support_vectors(), 10u);

  for (int i = 0; i < 500; ++i) {
    const std::vector<double> x = {rng.Uniform(-4, 4), rng.Uniform(-4, 4),
                                   rng.Uniform(-4, 4)};
    // The reference: the support-vector sum, term by term.
    double sum = model.bias();
    double scale = std::abs(model.bias());
    for (std::size_t k = 0; k < model.num_support_vectors(); ++k) {
      const double term =
          model.coefficient(k) *
          EvalKernel(model.kernel(), model.support_vector(k), x);
      sum += term;
      scale += std::abs(term);
    }
    EXPECT_NEAR(model.DecisionValue(x), sum, 1e-12 * scale) << "row " << i;
  }
}

TEST(SvmBatchTest, NoSupportVectorsScoresEveryRowAtTheBias) {
  // A bias-only model (e.g. trained on one row) has no dimension of its
  // own: every entry point must still score each row, at the bias.
  for (const KernelType type :
       {KernelType::kLinear, KernelType::kRbf, KernelType::kPolynomial}) {
    KernelConfig kernel;
    kernel.type = type;
    const SvmModel model(kernel, {}, {}, -0.625);
    EXPECT_EQ(model.dimension(), 0u);
    const std::vector<double> x = {1.5, -2.0, 0.25};
    EXPECT_EQ(model.DecisionValue(x), -0.625) << KernelName(type);
    EXPECT_EQ(model.Predict(x), -1) << KernelName(type);

    const std::vector<std::vector<double>> rows(5, x);
    const std::vector<double> batched = model.DecisionValues(rows);
    std::vector<double> flat;
    for (const std::vector<double>& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    std::vector<double> from_flat(rows.size(), 0.0);
    model.DecisionValues(flat, 3, from_flat);
    ASSERT_EQ(batched.size(), rows.size()) << KernelName(type);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batched[i], -0.625) << KernelName(type) << " row " << i;
      EXPECT_EQ(from_flat[i], -0.625) << KernelName(type) << " row " << i;
    }
  }
}

TEST(SvmBatchTest, FlatDecisionValuesRejectsMismatchedBuffers) {
  util::Rng rng(48);
  const SvmDataset data = TwoBlobs(30, rng);
  SvmConfig config;
  config.kernel.type = KernelType::kLinear;
  const SvmModel model = TrainSvm(data, config);
  const std::vector<double> flat = {0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<double> out(2);
  // 5 values are not 2 rows of 2.
  EXPECT_THROW(model.DecisionValues(flat, 2, out), std::invalid_argument);
  // 2 rows of 3 do not fit a 2-feature model.
  const std::vector<double> wide = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  EXPECT_THROW(model.DecisionValues(wide, 3, out), std::invalid_argument);
  const std::vector<double> short_row = {0.1};
  EXPECT_THROW(model.DecisionValue(short_row), std::invalid_argument);
}

TEST(SvmBatchTest, DecisionValuesRejectsRaggedRows) {
  util::Rng rng(43);
  const SvmDataset data = TwoBlobs(30, rng);
  const SvmModel model = TrainSvm(data, SvmConfig{});
  const std::vector<std::vector<double>> ragged = {{0.1, 0.2}, {0.3}};
  EXPECT_THROW(model.DecisionValues(ragged), std::invalid_argument);
  const std::vector<std::vector<double>> too_wide = {{0.1, 0.2, 0.3}};
  EXPECT_THROW(model.DecisionValues(too_wide), std::invalid_argument);
}

TEST(SvmBatchTest, ErrorCacheTrainsEquivalentQualityModel) {
  // The cached and scalar SMO paths take different (FP-drift-divergent)
  // optimisation trajectories, so weights differ — but both must separate
  // the same data equally well.
  util::Rng rng(44);
  const SvmDataset data = TwoBlobs(160, rng);
  SvmConfig cached;
  SvmConfig scalar;
  scalar.use_error_cache = false;
  const SvmModel with_cache = TrainSvm(data, cached);
  const SvmModel without_cache = TrainSvm(data, scalar);

  int correct_cached = 0, correct_scalar = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (with_cache.Predict(data.x[i]) == data.y[i]) ++correct_cached;
    if (without_cache.Predict(data.x[i]) == data.y[i]) ++correct_scalar;
  }
  EXPECT_GE(correct_cached, static_cast<int>(data.size() * 9 / 10));
  EXPECT_GE(correct_scalar, static_cast<int>(data.size() * 9 / 10));
}

TEST(SvmBatchTest, ErrorCachePathIsDeterministic) {
  util::Rng rng(45);
  const SvmDataset data = TwoBlobs(80, rng);
  const SvmModel a = TrainSvm(data, SvmConfig{});
  const SvmModel b = TrainSvm(data, SvmConfig{});
  ASSERT_EQ(a.num_support_vectors(), b.num_support_vectors());
  EXPECT_EQ(a.bias(), b.bias());
  for (std::size_t i = 0; i < a.num_support_vectors(); ++i) {
    EXPECT_EQ(a.coefficient(i), b.coefficient(i)) << "sv " << i;
  }
}

}  // namespace
}  // namespace mobirescue::ml
