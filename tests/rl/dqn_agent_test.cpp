#include "rl/dqn_agent.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::rl {
namespace {

DqnConfig SmallConfig() {
  DqnConfig config;
  config.feature_dim = 3;
  config.hidden = {16};
  config.batch_size = 16;
  config.buffer_capacity = 1000;
  config.epsilon_decay_steps = 100;
  config.learning_rate = 5e-3;
  return config;
}

TEST(DqnAgentTest, EpsilonAnneals) {
  DqnAgent agent(SmallConfig());
  EXPECT_NEAR(agent.CurrentEpsilon(), agent.config().epsilon_start, 1e-9);
  std::vector<std::vector<double>> candidates = {{0, 0, 0}, {1, 1, 1}};
  for (int i = 0; i < 200; ++i) agent.SelectAction(candidates, true);
  EXPECT_NEAR(agent.CurrentEpsilon(), agent.config().epsilon_end, 1e-9);
}

TEST(DqnAgentTest, GreedySelectionIsArgmaxQ) {
  DqnAgent agent(SmallConfig());
  std::vector<std::vector<double>> candidates = {
      {0.1, 0.2, 0.3}, {0.9, -0.5, 0.4}, {-1.0, 1.0, 0.0}};
  const std::size_t chosen = agent.SelectAction(candidates, false);
  double best = -1e300;
  std::size_t expect = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double q = agent.QValue(candidates[i]);
    if (q > best) {
      best = q;
      expect = i;
    }
  }
  EXPECT_EQ(chosen, expect);
}

TEST(DqnAgentTest, EmptyCandidatesThrow) {
  DqnAgent agent(SmallConfig());
  EXPECT_THROW(agent.SelectAction({}, false), std::invalid_argument);
}

TEST(DqnAgentTest, TrainStepNoopUntilBufferFilled) {
  DqnAgent agent(SmallConfig());
  EXPECT_DOUBLE_EQ(agent.TrainStep(), 0.0);
  EXPECT_EQ(agent.train_steps(), 0u);
}

TEST(DqnAgentTest, LearnsBanditRewards) {
  // Contextual bandit: terminal transitions, feature x -> reward 2x.
  // After training, Q must rank a high-feature action above a low one.
  DqnConfig config = SmallConfig();
  config.gamma = 0.0;
  DqnAgent agent(config);
  util::Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(-1, 1);
    Transition t;
    t.features = {x, 0.0, 1.0};
    t.reward = 2.0 * x;
    t.terminal = true;
    agent.Push(std::move(t));
  }
  for (int i = 0; i < 800; ++i) agent.TrainStep();
  EXPECT_GT(agent.QValue(std::vector<double>{0.9, 0.0, 1.0}),
            agent.QValue(std::vector<double>{-0.9, 0.0, 1.0}));
  EXPECT_NEAR(agent.QValue(std::vector<double>{0.5, 0.0, 1.0}), 1.0, 0.35);
}

TEST(DqnAgentTest, BootstrapUsesDiscountedNextValue) {
  // One-step chains: s0 (reward 0) -> s1 with known terminal reward 1, and
  // s2 (reward 0) -> s3 with terminal reward -1. With gamma=0.5, Q(s0)
  // should approach ~0.5 * Q(s1) ~ 0.5 and Q(s2) ~ -0.5: s2's candidate
  // set is all-negative, so a bootstrap max that started at 0 would floor
  // its target at 0.
  DqnConfig config = SmallConfig();
  config.gamma = 0.5;
  config.target_sync_every = 25;
  DqnAgent agent(config);
  for (int i = 0; i < 200; ++i) {
    Transition terminal;
    terminal.features = {1.0, 0.0, 0.0};
    terminal.reward = 1.0;
    terminal.terminal = true;
    agent.Push(std::move(terminal));

    Transition chain;
    chain.features = {0.0, 1.0, 0.0};
    chain.reward = 0.0;
    chain.next_candidates = {{1.0, 0.0, 0.0}};
    chain.duration_rounds = 1;
    agent.Push(std::move(chain));

    Transition loss;
    loss.features = {0.0, 0.0, 1.0};
    loss.reward = -1.0;
    loss.terminal = true;
    agent.Push(std::move(loss));

    Transition to_loss;
    to_loss.features = {0.0, 1.0, 1.0};
    to_loss.reward = 0.0;
    to_loss.next_candidates = {{0.0, 0.0, 1.0}, {0.0, 0.0, 1.0}};
    to_loss.duration_rounds = 1;
    agent.Push(std::move(to_loss));
  }
  for (int i = 0; i < 1500; ++i) agent.TrainStep();
  EXPECT_NEAR(agent.QValue(std::vector<double>{1.0, 0.0, 0.0}), 1.0, 0.3);
  EXPECT_NEAR(agent.QValue(std::vector<double>{0.0, 1.0, 0.0}), 0.5, 0.3);
  EXPECT_NEAR(agent.QValue(std::vector<double>{0.0, 0.0, 1.0}), -1.0, 0.3);
  EXPECT_NEAR(agent.QValue(std::vector<double>{0.0, 1.0, 1.0}), -0.5, 0.3);
}

TEST(DqnAgentTest, DurationDiscountsMore) {
  // Same chain but the macro action lasts 4 rounds: gamma^4 = 0.0625.
  DqnConfig config = SmallConfig();
  config.gamma = 0.5;
  config.target_sync_every = 25;
  DqnAgent agent(config);
  for (int i = 0; i < 200; ++i) {
    Transition terminal;
    terminal.features = {1.0, 0.0, 0.0};
    terminal.reward = 1.0;
    terminal.terminal = true;
    agent.Push(std::move(terminal));

    Transition slow;
    slow.features = {0.0, 0.0, 1.0};
    slow.reward = 0.0;
    slow.next_candidates = {{1.0, 0.0, 0.0}};
    slow.duration_rounds = 4;
    agent.Push(std::move(slow));
  }
  for (int i = 0; i < 1500; ++i) agent.TrainStep();
  EXPECT_LT(agent.QValue(std::vector<double>{0.0, 0.0, 1.0}), 0.35);
}

TEST(DqnAgentTest, SaveLoadWeightsRoundTrip) {
  DqnAgent a(SmallConfig());
  DqnConfig other = SmallConfig();
  other.seed = 99;
  DqnAgent b(other);
  const std::vector<double> x = {0.2, -0.4, 0.6};
  EXPECT_NE(a.QValue(x), b.QValue(x));
  b.LoadWeights(a.SaveWeights());
  EXPECT_DOUBLE_EQ(a.QValue(x), b.QValue(x));
}

TEST(DqnAgentTest, ExploreNowAdvancesDecisions) {
  DqnAgent agent(SmallConfig());
  const std::size_t before = agent.decisions_made();
  agent.ExploreNow();
  EXPECT_EQ(agent.decisions_made(), before + 1);
  EXPECT_LT(agent.RandomAction(5), 5u);
}

/// A transition with random features and reward; one in five is terminal,
/// the rest bootstrap over 1-4 random next-candidates.
Transition RandomTransition(util::Rng& rng) {
  Transition t;
  t.features = {rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
  t.reward = rng.Uniform(-1, 1);
  t.terminal = rng.Index(5) == 0;
  if (!t.terminal) {
    const std::size_t n = 1 + rng.Index(4);
    for (std::size_t i = 0; i < n; ++i) {
      t.next_candidates.push_back(
          {rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)});
    }
  }
  t.duration_rounds = 1 + static_cast<int>(rng.Index(3));
  return t;
}

std::vector<std::uint64_t> Bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> bits;
  for (const double x : v) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

std::string TrainerState(const DqnAgent& agent) {
  util::TextWriter out;
  agent.SaveTrainerState(out);
  return out.Release();
}

TEST(DqnAgentTest, BootstrapMemoMatchesRecomputation) {
  // `memo` trains as shipped. `fresh` reloads its own target weights
  // before every step: the same weights under a new target epoch, so it
  // recomputes every bootstrap, as TrainStep did before the memo. Syncs
  // every 5 steps, pushes between steps into a ring they wrap, and a
  // mid-run rewind of both buffers must leave every loss, both networks
  // and the optimizer state bitwise equal.
  DqnConfig config = SmallConfig();
  config.batch_size = 8;
  config.buffer_capacity = 24;
  config.target_sync_every = 5;
  DqnAgent memo(config);
  DqnAgent fresh(config);
  util::Rng rng(17);
  for (std::size_t i = 0; i < config.buffer_capacity; ++i) {
    const Transition t = RandomTransition(rng);
    memo.Push(t);
    fresh.Push(t);
  }
  std::vector<Transition> saved_data;
  std::size_t saved_cursor = 0;
  std::uint64_t saved_pushes = 0, saved_evictions = 0;
  const obs::SnapshotDelta counters;
  for (int step = 0; step < 40; ++step) {
    for (int p = 0; p < 2; ++p) {
      const Transition t = RandomTransition(rng);
      memo.Push(t);
      fresh.Push(t);
    }
    if (step == 12) {
      const ReplayBuffer& b = memo.buffer();
      saved_data = b.data();
      saved_cursor = b.cursor();
      saved_pushes = b.pushes();
      saved_evictions = b.evictions();
    }
    if (step == 22) {  // rewind both to step 12's contents
      memo.mutable_buffer().Restore(saved_data, saved_cursor, saved_pushes,
                                    saved_evictions);
      fresh.mutable_buffer().Restore(saved_data, saved_cursor, saved_pushes,
                                     saved_evictions);
    }
    fresh.LoadTargetWeights(fresh.SaveTargetWeights());
    const double memo_loss = memo.TrainStep();
    const double fresh_loss = fresh.TrainStep();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(memo_loss),
              std::bit_cast<std::uint64_t>(fresh_loss))
        << "step " << step;
  }
  EXPECT_EQ(memo.train_steps(), 40u);  // 8 target syncs
  EXPECT_EQ(Bits(memo.SaveWeights()), Bits(fresh.SaveWeights()));
  EXPECT_EQ(Bits(memo.SaveTargetWeights()), Bits(fresh.SaveTargetWeights()));
  EXPECT_EQ(TrainerState(memo), TrainerState(fresh));
  // `fresh` never hits its memo, so these are all `memo`'s: the memo was
  // used, and the test compared something.
  EXPECT_GT(counters.Delta("rl_dqn_bootstrap_memo_hits_total"), 0.0);
}

TEST(DqnAgentTest, MemoCountsTargetRowsAndHits) {
  // A buffer of exactly batch_size transitions: every step samples all of
  // them, so a step either scores all 6 next-candidate rows (3
  // bootstrapping transitions, one terminal) or takes all 3 maxima from
  // the memo.
  DqnConfig config = SmallConfig();
  config.batch_size = 4;
  config.buffer_capacity = 4;
  config.target_sync_every = 2;
  DqnAgent agent(config);
  util::Rng rng(3);
  for (const std::size_t n : {2, 3, 1, 0}) {
    Transition t = RandomTransition(rng);
    t.terminal = n == 0;
    t.next_candidates.resize(n, {0.1, 0.2, 0.3});
    agent.Push(std::move(t));
  }
  obs::SnapshotDelta counters;
  const auto step = [&](double rows, double hits) {
    counters.Rebase();
    agent.TrainStep();
    EXPECT_EQ(counters.Delta("rl_dqn_target_rows_total"), rows)
        << "step " << agent.train_steps();
    EXPECT_EQ(counters.Delta("rl_dqn_bootstrap_memo_hits_total"), hits)
        << "step " << agent.train_steps();
  };
  step(6, 0);  // a new epoch: everything is scored
  step(0, 3);  // the second step before the sync: all from the memo
  step(6, 0);  // the first step after the sync
  agent.Push(agent.buffer().data()[0]);
  step(2, 2);  // the overwritten slot 0 (2 rows) is scored again; sync
  step(6, 0);
  agent.LoadTargetWeights(agent.SaveTargetWeights());
  step(6, 0);  // loading target weights starts a new epoch; sync
  step(6, 0);
  agent.LoadWeights(agent.SaveWeights());
  step(6, 0);  // so does loading online weights (it syncs the target)
}

}  // namespace
}  // namespace mobirescue::rl
