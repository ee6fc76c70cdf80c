#include "serve/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "roadnet/city_builder.hpp"
#include "util/rng.hpp"
#include "weather/disaster_factors.hpp"
#include "weather/weather_field.hpp"

namespace mobirescue::serve {
namespace {

/// An agent whose weights have drifted from initialization: pushes random
/// transitions and takes gradient steps.
std::shared_ptr<rl::DqnAgent> TrainedAgent() {
  rl::DqnConfig config;
  config.feature_dim = 5;
  config.hidden = {16, 8};
  config.batch_size = 16;
  config.seed = 77;
  auto agent = std::make_shared<rl::DqnAgent>(config);

  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    rl::Transition t;
    t.features.resize(config.feature_dim);
    for (double& f : t.features) f = rng.Uniform(-1.0, 1.0);
    t.reward = rng.Uniform(-1.0, 1.0);
    t.terminal = i % 5 == 0;
    if (!t.terminal) {
      t.next_candidates.assign(3, std::vector<double>(config.feature_dim));
      for (auto& row : t.next_candidates) {
        for (double& f : row) f = rng.Uniform(-1.0, 1.0);
      }
    }
    agent->Push(std::move(t));
  }
  for (int i = 0; i < 30; ++i) agent->TrainStep();
  return agent;
}

/// A small trained-looking SVM model + scaler, built directly.
ServiceCheckpoint HandMadeCheckpoint() {
  ServiceCheckpoint ckpt;
  ckpt.dqn.feature_dim = 5;
  ckpt.dqn.hidden = {16, 8};

  ml::KernelConfig kernel;
  kernel.type = ml::KernelType::kRbf;
  kernel.gamma = 0.37;
  ckpt.svm = ml::SvmModel(
      kernel,
      {{0.25, -1.5, 3.0}, {-0.75, 2.25, -0.125}, {1.0 / 3.0, 0.1, -2.7}},
      {0.5, -1.25, 0.8125}, -0.3217);
  ml::FeatureScaler scaler;
  scaler.Restore({10.5, -2.25, 100.0 / 7.0}, {3.75, 0.5, 12.1});
  ckpt.svm_scaler = scaler;
  ckpt.svm_threshold = 0.1234567890123456;
  return ckpt;
}

std::vector<std::vector<double>> ProbeBatch(std::size_t rows,
                                            std::size_t dim,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> batch(rows, std::vector<double>(dim));
  for (auto& row : batch) {
    for (double& v : row) v = rng.Uniform(-2.0, 2.0);
  }
  return batch;
}

TEST(CheckpointTest, DqnRoundTripBitIdenticalQValues) {
  auto agent = TrainedAgent();
  ServiceCheckpoint ckpt = HandMadeCheckpoint();
  ckpt.dqn = agent->config();
  ckpt.dqn_weights = agent->SaveWeights();
  ckpt.dqn_target_weights = agent->SaveTargetWeights();
  // 30 train steps < target_sync_every: the target net still lags the
  // online net, so this round trip only passes if both are checkpointed.
  ASSERT_NE(ckpt.dqn_target_weights, ckpt.dqn_weights);

  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  const ServiceCheckpoint loaded = LoadCheckpoint(ss.str());
  auto restored = RestoreAgent(loaded);

  ASSERT_EQ(restored->config().feature_dim, agent->config().feature_dim);
  ASSERT_EQ(restored->config().hidden, agent->config().hidden);

  const auto probe = ProbeBatch(64, agent->config().feature_dim, 11);
  const std::vector<double> want = agent->QValues(probe);
  const std::vector<double> got = restored->QValues(probe);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    // Bit-identical: the text format stores doubles at max precision.
    EXPECT_EQ(got[i], want[i]) << "row " << i;
  }
  // The target network is restored too (bootstrap targets continue
  // seamlessly after a server restart).
  const std::vector<double> want_target = agent->SaveTargetWeights();
  const std::vector<double> got_target = restored->SaveTargetWeights();
  ASSERT_EQ(got_target.size(), want_target.size());
  EXPECT_EQ(std::memcmp(got_target.data(), want_target.data(),
                        want_target.size() * sizeof(double)),
            0);
}

TEST(CheckpointTest, SvmRoundTripBitIdenticalDecisionValues) {
  const ServiceCheckpoint ckpt = HandMadeCheckpoint();

  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  const ServiceCheckpoint loaded = LoadCheckpoint(ss.str());

  EXPECT_EQ(loaded.svm_threshold, ckpt.svm_threshold);
  const auto raw = ProbeBatch(32, 3, 29);
  std::vector<std::vector<double>> scaled_want, scaled_got;
  for (const auto& row : raw) {
    scaled_want.push_back(ckpt.svm_scaler.Transform(row));
    scaled_got.push_back(loaded.svm_scaler.Transform(row));
  }
  const std::vector<double> want = ckpt.svm.DecisionValues(scaled_want);
  const std::vector<double> got = loaded.svm.DecisionValues(scaled_got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i;
  }
}

TEST(CheckpointTest, SvmScalerDimensionMismatchRejected) {
  ServiceCheckpoint ckpt = HandMadeCheckpoint();
  ml::FeatureScaler two_dim;
  two_dim.Restore({1.0, 2.0}, {0.5, 0.25});
  ckpt.svm_scaler = two_dim;  // the SVM's support vectors are 3-dim

  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  EXPECT_THROW(LoadCheckpoint(ss.str()), std::runtime_error);
}

TEST(CheckpointTest, SvmFactorCountMismatchRejected) {
  // The predictor's flat refresh indexes exactly (P, W, A) per row, so an
  // SVM and scaler that agree with each other on any other dimension are
  // rejected too: by the loader, and by the restoring predictor.
  const weather::WeatherField field(util::kCharlotteCropBox,
                                    weather::StormConfig{});
  const roadnet::TerrainModel terrain;
  const weather::FactorSampler factors(field, terrain);
  for (const std::size_t dim : {2u, 4u}) {
    ServiceCheckpoint ckpt = HandMadeCheckpoint();
    std::vector<std::vector<double>> sv(2, std::vector<double>(dim));
    sv[0][0] = 0.5;
    sv[1][dim - 1] = -1.25;
    ckpt.svm = ml::SvmModel(ckpt.svm.kernel(), sv, {0.75, -0.5}, 0.125);
    ml::FeatureScaler scaler;
    scaler.Restore(std::vector<double>(dim, 1.0),
                   std::vector<double>(dim, 2.0));
    ckpt.svm_scaler = scaler;

    std::stringstream ss;
    SaveCheckpoint(ckpt, ss);
    EXPECT_THROW(LoadCheckpoint(ss.str()), std::runtime_error) << "dim " << dim;
    EXPECT_THROW(predict::SvmRequestPredictor(factors, ckpt.svm,
                                              ckpt.svm_scaler, 0.0),
                 std::invalid_argument)
        << "dim " << dim;
  }
  // A bias-only SVM has no dimension; the 3-factor scaler decides.
  ServiceCheckpoint bias_only = HandMadeCheckpoint();
  bias_only.svm = ml::SvmModel(bias_only.svm.kernel(), {}, {}, 0.5);
  std::stringstream ss;
  SaveCheckpoint(bias_only, ss);
  const ServiceCheckpoint loaded = LoadCheckpoint(ss.str());
  EXPECT_NO_THROW(predict::SvmRequestPredictor(factors, loaded.svm,
                                               loaded.svm_scaler, 0.0));
}

TEST(CheckpointTest, FileRoundTrip) {
  auto agent = TrainedAgent();
  ServiceCheckpoint ckpt = HandMadeCheckpoint();
  ckpt.dqn = agent->config();
  ckpt.dqn_weights = agent->SaveWeights();
  ckpt.dqn_target_weights = agent->SaveTargetWeights();

  const std::string path =
      ::testing::TempDir() + "/mobirescue_ckpt_test.txt";
  SaveCheckpointToFile(ckpt, path);
  const ServiceCheckpoint loaded = LoadCheckpointFromFile(path);
  EXPECT_EQ(loaded.dqn_weights, ckpt.dqn_weights);
  EXPECT_EQ(loaded.svm_threshold, ckpt.svm_threshold);
}

TEST(CheckpointTest, MalformedInputThrows) {
  std::stringstream wrong_magic("not-a-checkpoint 1 2 3");
  EXPECT_THROW(LoadCheckpoint(wrong_magic.str()), std::runtime_error);

  // Truncated: header only.
  std::stringstream truncated("mobirescue-ckpt-v1\nmobirescue-dqn-v1\n5 2 16");
  EXPECT_THROW(LoadCheckpoint(truncated.str()), std::runtime_error);

  EXPECT_THROW(LoadCheckpointFromFile("/nonexistent/path/ckpt.txt"),
               std::runtime_error);
}

// --- Hardened loading ------------------------------------------------------

std::vector<std::string> Tokens(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> tokens;
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

std::string Join(const std::vector<std::string>& tokens, std::size_t count) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    if (i != 0) out += " ";
    out += tokens[i];
  }
  return out;
}

ServiceCheckpoint FullCheckpoint() {
  auto agent = TrainedAgent();
  ServiceCheckpoint ckpt = HandMadeCheckpoint();
  ckpt.dqn = agent->config();
  ckpt.dqn_weights = agent->SaveWeights();
  ckpt.dqn_target_weights = agent->SaveTargetWeights();
  return ckpt;
}

ServingState SampleServingState() {
  ServingState s;
  s.ticks = 97;
  s.watermark = 29100.0;
  mobility::GpsRecord a;
  a.person = 3;
  a.t = 29099.5;
  a.pos = {43.7712345678901, 11.2598765432109};
  a.altitude_m = 51.25;
  a.speed_mps = 2.75;
  mobility::GpsRecord b = a;
  b.person = 9;
  b.t = 29100.0;
  s.latest = {a, b};
  mobility::GpsRecord deferred = a;
  deferred.t = 29410.0;
  s.deferred = {deferred};
  s.counters.applied = 1234;
  s.counters.matched = 1000;
  s.counters.unmatched = 234;
  s.counters.quarantined_non_finite = 5;
  s.counters.quarantined_out_of_box = 7;
  s.counters.quarantined_stale = 2;
  s.flow_cells = {{12, 3}, {40, 1}};
  s.flow_seen = {100, 101, 250};
  return s;
}

TEST(CheckpointTest, ExpectedWeightCountMatchesTheAgent) {
  auto agent = TrainedAgent();
  EXPECT_EQ(ExpectedDqnWeightCount(agent->config()),
            agent->SaveWeights().size());
  // 5 -> {16, 8} -> 1: (5*16+16) + (16*8+8) + (8+1).
  rl::DqnConfig config;
  config.feature_dim = 5;
  config.hidden = {16, 8};
  EXPECT_EQ(ExpectedDqnWeightCount(config), 241u);
}

TEST(CheckpointTest, NanAndInfWeightsRoundTrip) {
  ServiceCheckpoint ckpt = FullCheckpoint();
  ckpt.dqn_weights[0] = std::numeric_limits<double>::quiet_NaN();
  ckpt.dqn_weights[1] = std::numeric_limits<double>::infinity();
  ckpt.dqn_weights[2] = -std::numeric_limits<double>::infinity();

  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  const ServiceCheckpoint loaded = LoadCheckpoint(ss.str());
  ASSERT_EQ(loaded.dqn_weights.size(), ckpt.dqn_weights.size());
  // A poisoned model survives the round trip poisoned (so a monitoring
  // layer can detect it) instead of failing to parse.
  EXPECT_TRUE(std::isnan(loaded.dqn_weights[0]));
  EXPECT_EQ(loaded.dqn_weights[1], std::numeric_limits<double>::infinity());
  EXPECT_EQ(loaded.dqn_weights[2], -std::numeric_limits<double>::infinity());
  for (std::size_t i = 3; i < ckpt.dqn_weights.size(); ++i) {
    EXPECT_EQ(loaded.dqn_weights[i], ckpt.dqn_weights[i]) << i;
  }
}

TEST(CheckpointTest, WeightBlockSizeMustMatchTopology) {
  ServiceCheckpoint ckpt = FullCheckpoint();
  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  std::vector<std::string> tokens = Tokens(ss.str());

  // The online weight block's count token directly follows the 2 topology
  // tokens, 2 hidden widths and 9 hyperparameters after the two magics.
  const std::size_t count_index = 2 + 2 + 2 + 9;
  ASSERT_EQ(tokens[count_index],
            std::to_string(ExpectedDqnWeightCount(ckpt.dqn)));

  // One weight short / one extra: both reject, even though the stream
  // could satisfy the smaller read.
  for (const char* bad : {"240", "242"}) {
    std::vector<std::string> corrupt = tokens;
    corrupt[count_index] = bad;
    EXPECT_THROW(LoadCheckpoint(Join(corrupt, corrupt.size())),
                 std::runtime_error)
        << bad;
  }

  // A corrupt header advertising a huge block must throw *before* any
  // allocation happens (the size is checked against the topology).
  std::vector<std::string> huge = tokens;
  huge[count_index] = "999999999999";
  EXPECT_THROW(LoadCheckpoint(Join(huge, huge.size())), std::runtime_error);
}

TEST(CheckpointTest, TopologyBoundsRejectCorruptHeaders) {
  // feature_dim beyond the sanity bound: rejected before the hidden widths
  // are even read (no allocation from a corrupt count).
  std::stringstream huge_dim(
      "mobirescue-ckpt-v1\nmobirescue-dqn-v1\n9999999 2 16 8\n");
  EXPECT_THROW(LoadCheckpoint(huge_dim.str()), std::runtime_error);

  std::stringstream huge_layers(
      "mobirescue-ckpt-v1\nmobirescue-dqn-v1\n5 4096 16\n");
  EXPECT_THROW(LoadCheckpoint(huge_layers.str()), std::runtime_error);

  std::stringstream zero_width(
      "mobirescue-ckpt-v1\nmobirescue-dqn-v1\n5 2 16 0\n");
  EXPECT_THROW(LoadCheckpoint(zero_width.str()), std::runtime_error);
}

TEST(CheckpointTest, TruncationAtEveryTokenBoundaryThrows) {
  // The property the loader must hold: a model-only checkpoint cut after
  // ANY proper prefix of its tokens fails to parse — no silent zero-filled
  // models, no partial loads.
  ServiceCheckpoint ckpt = FullCheckpoint();
  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  const std::vector<std::string> tokens = Tokens(ss.str());
  ASSERT_GT(tokens.size(), 100u);

  for (std::size_t n = 0; n < tokens.size(); ++n) {
    EXPECT_THROW(LoadCheckpoint(Join(tokens, n)), std::runtime_error)
        << "prefix of " << n << " tokens parsed";
  }
  // Sanity: the full document does parse.
  EXPECT_NO_THROW(LoadCheckpoint(Join(tokens, tokens.size())));
}

TEST(CheckpointTest, ServingStateTruncationThrowsAndModelPrefixLoads) {
  ServiceCheckpoint ckpt = FullCheckpoint();
  const std::stringstream model_only = [&] {
    std::stringstream ss;
    SaveCheckpoint(ckpt, ss);
    return ss;
  }();
  const std::size_t model_tokens = Tokens(model_only.str()).size();

  ckpt.has_serving_state = true;
  ckpt.serving = SampleServingState();
  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  const std::vector<std::string> tokens = Tokens(ss.str());
  ASSERT_GT(tokens.size(), model_tokens);

  // Cut exactly at the model/serving boundary: a valid v1 model-only file
  // (backward compatibility with pre-recovery checkpoints).
  EXPECT_FALSE(LoadCheckpoint(Join(tokens, model_tokens)).has_serving_state);
  // Cut anywhere inside the serving-state section: throws.
  for (std::size_t n = model_tokens + 1; n < tokens.size(); ++n) {
    EXPECT_THROW(LoadCheckpoint(Join(tokens, n)), std::runtime_error)
        << "serving-state prefix of " << n << " tokens parsed";
  }
}

TEST(CheckpointTest, TrailingGarbageThrows) {
  ServiceCheckpoint ckpt = FullCheckpoint();
  std::stringstream model_only;
  SaveCheckpoint(ckpt, model_only);
  EXPECT_THROW(LoadCheckpoint(model_only.str() + " 42"), std::runtime_error);

  ckpt.has_serving_state = true;
  ckpt.serving = SampleServingState();
  std::stringstream with_state;
  SaveCheckpoint(ckpt, with_state);
  EXPECT_THROW(LoadCheckpoint(with_state.str() + " 42"), std::runtime_error);
}

TEST(CheckpointTest, ServingStateRoundTrip) {
  ServiceCheckpoint ckpt = FullCheckpoint();
  ckpt.has_serving_state = true;
  ckpt.serving = SampleServingState();

  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  const ServiceCheckpoint loaded = LoadCheckpoint(ss.str());

  ASSERT_TRUE(loaded.has_serving_state);
  const ServingState& want = ckpt.serving;
  const ServingState& got = loaded.serving;
  EXPECT_EQ(got.ticks, want.ticks);
  EXPECT_EQ(got.watermark, want.watermark);
  ASSERT_EQ(got.latest.size(), want.latest.size());
  for (std::size_t i = 0; i < want.latest.size(); ++i) {
    EXPECT_EQ(got.latest[i].person, want.latest[i].person);
    EXPECT_EQ(got.latest[i].t, want.latest[i].t);
    EXPECT_EQ(got.latest[i].pos.lat, want.latest[i].pos.lat);
    EXPECT_EQ(got.latest[i].pos.lon, want.latest[i].pos.lon);
    EXPECT_EQ(got.latest[i].speed_mps, want.latest[i].speed_mps);
  }
  ASSERT_EQ(got.deferred.size(), want.deferred.size());
  EXPECT_EQ(got.deferred[0].t, want.deferred[0].t);
  EXPECT_EQ(got.counters.applied, want.counters.applied);
  EXPECT_EQ(got.counters.quarantined_non_finite,
            want.counters.quarantined_non_finite);
  EXPECT_EQ(got.counters.quarantined_out_of_box,
            want.counters.quarantined_out_of_box);
  EXPECT_EQ(got.counters.quarantined_stale, want.counters.quarantined_stale);
  EXPECT_EQ(got.flow_cells, want.flow_cells);
  EXPECT_EQ(got.flow_seen, want.flow_seen);
}

TEST(CheckpointTest, ServingStateCountsAreBoundsChecked) {
  ServiceCheckpoint ckpt = FullCheckpoint();
  ckpt.has_serving_state = true;
  ckpt.serving = SampleServingState();
  std::stringstream ss;
  SaveCheckpoint(ckpt, ss);
  const std::string text = ss.str();

  // Corrupt the "latest <n>" count into an absurd value: the loader must
  // reject it up front instead of resizing a multi-gigabyte vector.
  const std::string needle = "latest 2";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  EXPECT_THROW(LoadCheckpoint(text.substr(0, at) + "latest 99999999999" +
                              text.substr(at + needle.size())),
               std::runtime_error);
}

}  // namespace
}  // namespace mobirescue::serve
