// Parity tests for the SVM fast paths: batched DecisionValues must be
// bit-identical to per-row DecisionValue for every kernel type, and SMO
// with the error cache must train models equivalent in quality to the
// scalar recompute-everything reference.
#include <gtest/gtest.h>

#include <vector>

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
    ASSERT_EQ(batched.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(batched[i], model.DecisionValue(rows[i]))
          << KernelName(GetParam()) << " n " << n << " row " << i;
    }
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
