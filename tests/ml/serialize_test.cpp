#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"

namespace mobirescue::ml {
namespace {

SvmModel LoadSvmText(const std::string& text) {
  util::TextReader in(text, "LoadSvm");
  return LoadSvm(in);
}

FeatureScaler LoadScalerText(const std::string& text) {
  util::TextReader in(text, "LoadScaler");
  return LoadScaler(in);
}

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
  util::TextWriter out;
  SaveSvm(original, out);
  const SvmModel loaded = LoadSvmText(out.Release());

  EXPECT_EQ(loaded.num_support_vectors(), original.num_support_vectors());
  EXPECT_DOUBLE_EQ(loaded.bias(), original.bias());
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    EXPECT_DOUBLE_EQ(original.DecisionValue(x), loaded.DecisionValue(x));
  }
}

TEST(SerializeTest, SvmRejectsGarbage) {
  EXPECT_THROW(LoadSvmText("not-a-model 1 2 3"), std::runtime_error);
  EXPECT_THROW(LoadSvmText("mobirescue-svm-v1\n1 0.5 3 1.0\n5 2 0.1\n"),
               std::runtime_error);
}

// Header counts are untrusted: a loader must reject a hostile count with
// std::runtime_error before sizing anything by it. 2^62 elements exceed
// std::vector's max_size, so a loader that still trusted the count would
// fail fast with std::length_error instead of allocating.
constexpr const char* kHugeCount = "4611686018427387904";  // 2^62

TEST(SerializeTest, SvmHostileCountsRejected) {
  EXPECT_THROW(LoadSvmText(std::string("mobirescue-svm-v1\n1 0.5 3 1.0\n") +
                           kHugeCount + " 3 0.1\n0.5 1 2 3\n"),
               std::runtime_error);
  EXPECT_THROW(LoadSvmText(std::string("mobirescue-svm-v1\n1 0.5 3 1.0\n1 ") +
                           kHugeCount + " 0.1\n0.5 1 2 3\n"),
               std::runtime_error);
}

TEST(SerializeTest, ScalerHostileDimensionRejected) {
  EXPECT_THROW(LoadScalerText(std::string("mobirescue-scaler-v1\n") +
                              kHugeCount + "\n1 2\n3 4\n"),
               std::runtime_error);
}

TEST(SerializeTest, ScalerRoundTrip) {
  FeatureScaler scaler;
  std::vector<std::vector<double>> rows = {{1.0, 10.0}, {3.0, 30.0},
                                           {5.0, 20.0}};
  scaler.Fit(rows);
  util::TextWriter out;
  SaveScaler(scaler, out);
  const FeatureScaler loaded = LoadScalerText(out.Release());
  const std::vector<double> probe = {2.0, 25.0};
  EXPECT_EQ(scaler.Transform(probe), loaded.Transform(probe));
}

}  // namespace
}  // namespace mobirescue::ml
