#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.hpp"

namespace mobirescue::ml {
namespace {

SvmModel TrainToy(std::uint64_t seed) {
  util::Rng rng(seed);
  SvmDataset data;
  for (int i = 0; i < 60; ++i) {
    const bool positive = i % 2 == 0;
    data.Add({(positive ? 2.0 : -2.0) + rng.Normal(0, 0.4),
              rng.Normal(0, 0.4)},
             positive ? 1 : -1);
  }
  return TrainSvm(data, SvmConfig{});
}

TEST(SerializeTest, SvmRoundTripPreservesDecisions) {
  const SvmModel original = TrainToy(1);
  std::stringstream buffer;
  SaveSvm(original, buffer);
  const SvmModel loaded = LoadSvm(buffer);

  EXPECT_EQ(loaded.num_support_vectors(), original.num_support_vectors());
  EXPECT_DOUBLE_EQ(loaded.bias(), original.bias());
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    EXPECT_DOUBLE_EQ(original.DecisionValue(x), loaded.DecisionValue(x));
  }
}

TEST(SerializeTest, SvmRejectsGarbage) {
  std::stringstream buffer("not-a-model 1 2 3");
  EXPECT_THROW(LoadSvm(buffer), std::runtime_error);
  std::stringstream truncated("mobirescue-svm-v1\n1 0.5 3 1.0\n5 2 0.1\n");
  EXPECT_THROW(LoadSvm(truncated), std::runtime_error);
}

// Header counts are untrusted: a loader must reject a hostile count with
// std::runtime_error before sizing anything by it. 2^62 elements exceed
// std::vector's max_size, so a loader that still trusted the count would
// fail fast with std::length_error instead of allocating.
constexpr const char* kHugeCount = "4611686018427387904";  // 2^62

TEST(SerializeTest, SvmHostileCountsRejected) {
  std::stringstream huge_n(std::string("mobirescue-svm-v1\n1 0.5 3 1.0\n") +
                           kHugeCount + " 3 0.1\n0.5 1 2 3\n");
  EXPECT_THROW(LoadSvm(huge_n), std::runtime_error);
  std::stringstream huge_dim(std::string("mobirescue-svm-v1\n1 0.5 3 1.0\n1 ") +
                             kHugeCount + " 0.1\n0.5 1 2 3\n");
  EXPECT_THROW(LoadSvm(huge_dim), std::runtime_error);
}

TEST(SerializeTest, ScalerHostileDimensionRejected) {
  std::stringstream buffer(std::string("mobirescue-scaler-v1\n") +
                           kHugeCount + "\n1 2\n3 4\n");
  EXPECT_THROW(LoadScaler(buffer), std::runtime_error);
}

TEST(SerializeTest, MlpHostileLayerCountRejected) {
  MlpConfig config;
  config.input_dim = 4;
  config.hidden = {8};
  Mlp net(config);
  std::stringstream buffer(std::string("mobirescue-mlp-v1\n4 1 ") +
                           kHugeCount + " 8\n");
  EXPECT_THROW(LoadMlpWeights(net, buffer), std::runtime_error);
}

TEST(SerializeTest, ScalerRoundTrip) {
  FeatureScaler scaler;
  std::vector<std::vector<double>> rows = {{1.0, 10.0}, {3.0, 30.0},
                                           {5.0, 20.0}};
  scaler.Fit(rows);
  std::stringstream buffer;
  SaveScaler(scaler, buffer);
  const FeatureScaler loaded = LoadScaler(buffer);
  const std::vector<double> probe = {2.0, 25.0};
  EXPECT_EQ(scaler.Transform(probe), loaded.Transform(probe));
}

TEST(SerializeTest, MlpWeightsRoundTrip) {
  MlpConfig config;
  config.input_dim = 4;
  config.hidden = {8, 8};
  config.output_dim = 2;
  Mlp original(config);

  std::stringstream buffer;
  SaveMlpWeights(original, buffer);

  config.seed = 999;  // different random init
  Mlp loaded(config);
  LoadMlpWeights(loaded, buffer);
  const std::vector<double> x = {0.1, -0.2, 0.3, -0.4};
  EXPECT_EQ(original.Predict(x), loaded.Predict(x));
}

TEST(SerializeTest, MlpTopologyMismatchRejected) {
  MlpConfig a;
  a.input_dim = 4;
  a.hidden = {8};
  Mlp net_a(a);
  std::stringstream buffer;
  SaveMlpWeights(net_a, buffer);

  MlpConfig b;
  b.input_dim = 5;
  b.hidden = {8};
  Mlp net_b(b);
  EXPECT_THROW(LoadMlpWeights(net_b, buffer), std::runtime_error);
}

TEST(SerializeTest, FileRoundTrip) {
  const SvmModel original = TrainToy(3);
  const std::string path = ::testing::TempDir() + "/svm_checkpoint.txt";
  SaveSvmToFile(original, path);
  const SvmModel loaded = LoadSvmFromFile(path);
  EXPECT_EQ(loaded.num_support_vectors(), original.num_support_vectors());
  EXPECT_THROW(LoadSvmFromFile("/nonexistent/path/model.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace mobirescue::ml
