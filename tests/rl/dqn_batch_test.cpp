// Parity and isolation tests for the batched DQN scoring paths: QValues
// and greedy SelectAction must match a per-row scalar scan bit for bit,
// SelectAction must reject an empty candidate set, and evaluation-time
// scoring must never perturb a training run.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "rl/dqn_agent.hpp"
#include "util/rng.hpp"

namespace mobirescue::rl {
namespace {

DqnConfig SmallConfig(std::uint64_t seed) {
  DqnConfig config;
  config.feature_dim = 6;
  config.hidden = {16, 16};
  config.seed = seed;
  return config;
}

std::vector<std::vector<double>> RandomCandidates(std::size_t n,
                                                  std::size_t dim,
                                                  util::Rng& rng) {
  std::vector<std::vector<double>> rows(n);
  for (std::vector<double>& row : rows) {
    row.resize(dim);
    for (double& v : row) v = rng.Uniform(-2.0, 2.0);
  }
  return rows;
}

TEST(DqnBatchTest, QValuesMatchPerRowBitwise) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    const DqnAgent agent(SmallConfig(seed));
    util::Rng rng(seed);
    for (const std::size_t n : {1ul, 2ul, 9ul, 40ul}) {
      const auto candidates = RandomCandidates(n, 6, rng);
      const std::vector<double> batched = agent.QValues(candidates);
      ASSERT_EQ(batched.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(batched[i], agent.QValue(candidates[i]))
            << "seed " << seed << " n " << n << " row " << i;
      }
    }
  }
}

TEST(DqnBatchTest, GreedySelectActionMatchesPerRowArgmax) {
  for (const std::uint64_t seed : {5u, 23u}) {
    DqnAgent agent(SmallConfig(seed));
    util::Rng rng(seed + 1);
    for (int round = 0; round < 20; ++round) {
      const auto candidates = RandomCandidates(1 + rng.Index(30), 6, rng);
      // Per-row scalar argmax with strict > (lowest index wins ties).
      std::size_t expected = 0;
      double best = agent.QValue(candidates[0]);
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        const double q = agent.QValue(candidates[i]);
        if (q > best) {
          best = q;
          expected = i;
        }
      }
      EXPECT_EQ(agent.SelectAction(candidates, /*explore=*/false), expected)
          << "seed " << seed << " round " << round;
    }
  }
}

TEST(DqnBatchTest, GreedySelectActionKeepsLowestIndexOnTies) {
  DqnAgent agent(SmallConfig(7));
  // Identical rows produce identical Q-values; the argmax must stay at 0.
  const std::vector<double> row = {0.5, -0.5, 1.0, 0.0, 0.25, -1.0};
  const std::vector<std::vector<double>> candidates(5, row);
  EXPECT_EQ(agent.SelectAction(candidates, /*explore=*/false), 0u);
}

TEST(DqnBatchTest, SelectActionThrowsOnEmptyCandidates) {
  DqnAgent agent(SmallConfig(13));
  EXPECT_THROW(agent.SelectAction({}, false), std::invalid_argument);
}

Transition MakeTransition(util::Rng& rng, bool terminal) {
  Transition t;
  t.features.resize(6);
  for (double& v : t.features) v = rng.Uniform(-1.0, 1.0);
  t.reward = rng.Uniform(-1.0, 1.0);
  t.terminal = terminal;
  if (!terminal) {
    for (int c = 0; c < 3; ++c) {
      std::vector<double> cand(6);
      for (double& v : cand) v = rng.Uniform(-1.0, 1.0);
      t.next_candidates.push_back(std::move(cand));
    }
  }
  return t;
}

TEST(DqnBatchTest, EvaluationScoringDoesNotPerturbTraining) {
  // Two agents, identical configs and replay contents. One serves heavy
  // evaluation traffic through the const scoring paths between training
  // steps; both must end with bitwise-identical weights (this is what lets
  // RunMethods share the training agent with parallel evaluators).
  DqnAgent trained(SmallConfig(37));
  DqnAgent evaluated(SmallConfig(37));
  util::Rng data_rng(370);
  for (int i = 0; i < 200; ++i) {
    const Transition t = MakeTransition(data_rng, i % 7 == 0);
    trained.Push(t);
    evaluated.Push(t);
  }

  util::Rng probe_rng(371);
  const auto probes = RandomCandidates(32, 6, probe_rng);
  for (int step = 0; step < 30; ++step) {
    // Interleave const evaluation traffic into one agent only.
    (void)evaluated.QValues(probes);
    (void)evaluated.QValue(probes[0]);
    const double loss_a = trained.TrainStep();
    const double loss_b = evaluated.TrainStep();
    ASSERT_EQ(loss_a, loss_b) << "step " << step;
  }
  const std::vector<double> w_a = trained.SaveWeights();
  const std::vector<double> w_b = evaluated.SaveWeights();
  ASSERT_EQ(w_a.size(), w_b.size());
  for (std::size_t i = 0; i < w_a.size(); ++i) {
    ASSERT_EQ(w_a[i], w_b[i]) << "weight " << i;
  }
}

TEST(DqnBatchTest, ConcurrentQScoringReadersAgree) {
  // Const batched scoring over one shared agent from several threads —
  // the RunMethods sharing model. Runs under the tsan preset via the
  // suite's `concurrency` label.
  const DqnAgent agent(SmallConfig(53));
  util::Rng rng(530);
  const auto candidates = RandomCandidates(24, 6, rng);
  const std::vector<double> expected = agent.QValues(candidates);

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int rep = 0; rep < 50; ++rep) {
          results[t] = agent.QValues(candidates);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace mobirescue::rl
