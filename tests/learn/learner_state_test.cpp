// The learner blob's replay-buffer section is written through the buffer's
// per-slot text memo (rl::ReplayBuffer::AppendText). A memo that outlives
// a push or a restore would write a transition the buffer no longer holds,
// so this drives a small ring through several wraps, with train steps,
// saves and one rewind, and checks every warm-memo blob against the blob a
// freshly restored learner writes with a cold memo.
#include "learn/learner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "rl/dqn_agent.hpp"
#include "util/rng.hpp"

namespace mobirescue::learn {
namespace {

constexpr std::size_t kFeatureDim = 4;
constexpr std::size_t kCapacity = 16;
constexpr int kPushesPerRound = 5;

LearnConfig SmallRingConfig() {
  LearnConfig cfg;
  cfg.enabled = true;
  cfg.buffer_capacity = kCapacity;
  return cfg;
}

std::shared_ptr<rl::DqnAgent> LiveAgent() {
  rl::DqnConfig c;
  c.feature_dim = kFeatureDim;
  c.hidden = {8};
  c.batch_size = 8;
  c.seed = 41;
  return std::make_shared<rl::DqnAgent>(c);
}

rl::Transition RandomTransition(util::Rng& rng) {
  rl::Transition t;
  t.features.resize(kFeatureDim);
  for (double& f : t.features) f = rng.Uniform(-1.0, 1.0);
  t.reward = rng.Uniform(-1.0, 1.0);
  t.duration_rounds = 1 + static_cast<int>(rng.Index(3));
  t.next_candidates.assign(1 + rng.Index(3), std::vector<double>(kFeatureDim));
  for (auto& row : t.next_candidates) {
    for (double& f : row) f = rng.Uniform(-1.0, 1.0);
  }
  return t;
}

/// Round `round`'s work: a few pushes into the candidate's buffer, then two
/// gradient steps. A pure function of the round and the learner's state.
void RunRound(OnlineLearner& learner, int round) {
  util::Rng rng(100 + static_cast<std::uint64_t>(round));
  for (int i = 0; i < kPushesPerRound; ++i) {
    learner.candidate().mutable_buffer().Push(RandomTransition(rng));
  }
  learner.candidate().TrainStep();
  learner.candidate().TrainStep();
}

TEST(LearnerStateTest, WarmMemoBlobEqualsColdRestoredBlobAcrossWraps) {
  constexpr int kRounds = 14;
  constexpr int kRewindAt = 7;  // rewinds to the blob saved after round 3
  constexpr int kRewindTo = 3;
  const std::shared_ptr<rl::DqnAgent> live = LiveAgent();

  // `warm` saves after every round, so each save formats only the slots
  // pushed since the last one.
  OnlineLearner warm(SmallRingConfig(), dispatch::RewardWeights{}, live);
  std::vector<std::string> blobs;
  // The reference: every round runs on a learner freshly restored from the
  // previous reference blob, so each of its saves formats every slot.
  std::string cold_blob = warm.SaveStateString();

  for (int round = 0; round < kRounds; ++round) {
    if (round == kRewindAt) {
      warm.LoadStateString(blobs[kRewindTo]);
      cold_blob = blobs[kRewindTo];
    }
    RunRound(warm, round);
    blobs.push_back(warm.SaveStateString());

    OnlineLearner cold(SmallRingConfig(), dispatch::RewardWeights{}, live);
    cold.LoadStateString(cold_blob);
    RunRound(cold, round);
    cold_blob = cold.SaveStateString();

    EXPECT_EQ(blobs.back(), cold_blob) << "round " << round;
  }

  // The ring wrapped before the rewind and twice more after it.
  const rl::ReplayBuffer& buffer = warm.candidate().buffer();
  EXPECT_EQ(buffer.size(), kCapacity);
  EXPECT_GT(buffer.evictions(), 2 * kCapacity);
  EXPECT_GT(warm.candidate().train_steps(), 0u);
}

}  // namespace
}  // namespace mobirescue::learn
