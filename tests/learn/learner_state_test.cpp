// The learner blob's replay-buffer section is written through the buffer's
// per-slot text memo (rl::ReplayBuffer::AppendText), and its evidence
// section through the same memo wherever the buffer holds a bit-identical
// copy (rl::ReplayBuffer::MemoisedText). A memo that outlives a push or a
// restore would write a transition the buffer no longer holds, so this
// drives a small ring through several wraps, with train steps, saves and
// one rewind, and checks every warm-memo blob against the blob a freshly
// restored learner writes with a cold memo, and the evidence each blob
// carries against the evidence the learner holds. The evidence window
// either fits in the buffer or does not, and a restored blob's evidence
// may differ from the buffer's newest slots in one bit.
#include "learn/learner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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

LearnConfig SmallRingConfig(std::size_t evidence_window) {
  LearnConfig cfg;
  cfg.enabled = true;
  cfg.buffer_capacity = kCapacity;
  cfg.promotion.evidence_window = evidence_window;
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

/// Round `round`'s work: a few closed transitions into the buffer and the
/// evidence window, then two gradient steps. A pure function of the round
/// and the learner's state.
void RunRound(OnlineLearner& learner, int round) {
  util::Rng rng(100 + static_cast<std::uint64_t>(round));
  for (int i = 0; i < kPushesPerRound; ++i) {
    learner.AddTransition(RandomTransition(rng));
  }
  learner.candidate().TrainStep();
  learner.candidate().TrainStep();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

std::vector<rl::Transition> Evidence(const OnlineLearner& learner) {
  std::vector<rl::Transition> out;
  learner.promotion().evidence().ForEachOldestFirst(
      [&](const rl::Transition& t) { out.push_back(t); });
  return out;
}

/// The evidence `blob` carries, read back, is the evidence `learner` holds,
/// bit for bit.
void ExpectBlobCarriesTheEvidence(const std::string& blob,
                                  const OnlineLearner& learner,
                                  const LearnConfig& cfg) {
  OnlineLearner reread(cfg, dispatch::RewardWeights{}, LiveAgent());
  reread.LoadStateString(blob);
  const std::vector<rl::Transition> got = Evidence(reread);
  const std::vector<rl::Transition> want = Evidence(learner);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const rl::Transition& g = got[i];
    const rl::Transition& w = want[i];
    EXPECT_TRUE(SameBits(g.reward, w.reward)) << "evidence " << i;
    EXPECT_EQ(g.terminal, w.terminal) << "evidence " << i;
    EXPECT_EQ(g.duration_rounds, w.duration_rounds) << "evidence " << i;
    EXPECT_TRUE(SameBits(g.features, w.features)) << "evidence " << i;
    ASSERT_EQ(g.next_candidates.size(), w.next_candidates.size());
    for (std::size_t c = 0; c < g.next_candidates.size(); ++c) {
      EXPECT_TRUE(SameBits(g.next_candidates[c], w.next_candidates[c]))
          << "evidence " << i << " candidate " << c;
    }
  }
}

void ExpectWarmMemoBlobsEqualColdRestoredBlobs(const LearnConfig& cfg) {
  constexpr int kRounds = 14;
  constexpr int kRewindAt = 7;  // rewinds to the blob saved after round 3
  constexpr int kRewindTo = 3;
  const std::shared_ptr<rl::DqnAgent> live = LiveAgent();

  // `warm` saves after every round, so each save formats only the slots
  // pushed since the last one.
  OnlineLearner warm(cfg, dispatch::RewardWeights{}, live);
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
    ExpectBlobCarriesTheEvidence(blobs.back(), warm, cfg);

    OnlineLearner cold(cfg, dispatch::RewardWeights{}, live);
    cold.LoadStateString(cold_blob);
    RunRound(cold, round);
    cold_blob = cold.SaveStateString();

    EXPECT_EQ(blobs.back(), cold_blob) << "round " << round;
  }

  // The ring wrapped before the rewind and twice more after it, and the
  // evidence window is full.
  const rl::ReplayBuffer& buffer = warm.candidate().buffer();
  EXPECT_EQ(buffer.size(), kCapacity);
  EXPECT_GT(buffer.evictions(), 2 * kCapacity);
  EXPECT_GT(warm.candidate().train_steps(), 0u);
  EXPECT_EQ(warm.promotion().evidence_size(), cfg.promotion.evidence_window);
}

TEST(LearnerStateTest, WarmMemoBlobEqualsColdRestoredBlobAcrossWraps) {
  // The evidence window fits in the buffer, as in service: the buffer
  // holds every evidence transition.
  ExpectWarmMemoBlobsEqualColdRestoredBlobs(SmallRingConfig(kCapacity / 2));
}

TEST(LearnerStateTest, EvidenceOlderThanTheBufferIsFormatted) {
  ExpectWarmMemoBlobsEqualColdRestoredBlobs(
      SmallRingConfig(kCapacity + kCapacity / 2));
}

TEST(LearnerStateTest, RestoredEvidenceThatDiffersFromTheBufferIsFormatted) {
  // Two learners take the same transitions but for the sign of two zeros:
  // a reward and a feature, which == would not tell apart. The blob under
  // test splices the first learner's sections up to the evidence with the
  // second's evidence, so every evidence transition has a buffer slot of
  // its age, and two of those slots differ from it in one bit.
  const LearnConfig cfg = SmallRingConfig(kCapacity / 2);
  OnlineLearner plus(cfg, dispatch::RewardWeights{}, LiveAgent());
  OnlineLearner minus(cfg, dispatch::RewardWeights{}, LiveAgent());
  util::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    rl::Transition t = RandomTransition(rng);
    rl::Transition flipped = t;
    if (i == 17) {
      t.reward = 0.0;
      flipped.reward = -0.0;
    }
    if (i == 19) {
      t.features[2] = 0.0;
      flipped.features[2] = -0.0;
    }
    plus.AddTransition(std::move(t));
    minus.AddTransition(std::move(flipped));
  }
  const std::string head = plus.SaveStateString();
  const std::string tail = minus.SaveStateString();
  const std::string marker = "\nevidence ";
  const std::string spliced =
      head.substr(0, head.find(marker)) + tail.substr(tail.find(marker));
  ASSERT_NE(spliced, head);

  OnlineLearner restored(cfg, dispatch::RewardWeights{}, LiveAgent());
  restored.LoadStateString(spliced);
  EXPECT_TRUE(std::signbit(Evidence(restored).back().features[2]));
  // The first save formats the buffer and reads the evidence's memo in the
  // same pass; the second finds both memos warm.
  EXPECT_EQ(restored.SaveStateString(), spliced);
  EXPECT_EQ(restored.SaveStateString(), spliced);
}

}  // namespace
}  // namespace mobirescue::learn
