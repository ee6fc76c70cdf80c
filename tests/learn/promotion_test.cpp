// PromotionController state machine and gate semantics over small synthetic
// agents, BudgetedTrainer budgets and ShadowPolicyRunner scoring.
#include "learn/promotion_controller.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "learn/budgeted_trainer.hpp"
#include "learn/shadow_runner.hpp"
#include "rl/dqn_agent.hpp"
#include "rl/replay_buffer.hpp"

namespace mobirescue::learn {
namespace {

rl::DqnConfig TinyConfig(std::uint64_t seed) {
  rl::DqnConfig c;
  c.feature_dim = 4;
  c.hidden = {8};
  c.batch_size = 8;
  c.buffer_capacity = 256;
  c.seed = seed;
  return c;
}

rl::Transition MakeTransition(double tag) {
  rl::Transition t;
  t.features = {tag, 0.5, -tag, 1.0};
  t.reward = tag;
  t.next_candidates = {{0.0, tag, 1.0, -1.0}, {tag, tag, 0.0, 0.5}};
  t.duration_rounds = 1;
  return t;
}

PromotionConfig FastGate() {
  PromotionConfig p;
  p.check_every_n_ticks = 1;
  p.evidence_window = 16;
  p.min_evidence = 4;
  p.min_td_improvement = 0.02;
  p.watch_window_ticks = 3;
  p.cooldown_ticks = 2;
  return p;
}

void Feed(PromotionController& pc, int n) {
  for (int i = 0; i < n; ++i) {
    pc.AddEvidence(MakeTransition(0.1 * static_cast<double>(i + 1)));
  }
}

TEST(PromotionControllerTest, IdenticalCandidateNeverPromotes) {
  rl::DqnAgent live(TinyConfig(11));
  rl::DqnAgent candidate(TinyConfig(12));
  candidate.LoadWeights(live.SaveWeights());
  candidate.LoadTargetWeights(live.SaveTargetWeights());
  PromotionController pc(FastGate(), live, candidate);

  EXPECT_EQ(pc.state(), PromotionState::kWarmup);
  Feed(pc, 8);
  EXPECT_EQ(pc.state(), PromotionState::kEvaluating);

  const std::vector<double> before = live.SaveWeights();
  for (std::uint64_t tick = 1; tick <= 30; ++tick) {
    pc.OnTick(tick, /*used_fallback=*/false, /*nonfinite=*/false);
  }
  // Equal weights -> equal TD error -> the strict-improvement gate never
  // fires; every evaluation is a rejection.
  EXPECT_EQ(pc.promotions(), 0u);
  EXPECT_GT(pc.rejections(), 0u);
  EXPECT_EQ(live.SaveWeights(), before);
  EXPECT_TRUE(std::isfinite(pc.last_live_td()));
  EXPECT_DOUBLE_EQ(pc.last_live_td(), pc.last_candidate_td());
}

TEST(PromotionControllerTest, BetterCandidatePromotesThenRollsBackOnFault) {
  rl::DqnAgent live(TinyConfig(11));
  rl::DqnAgent candidate(TinyConfig(12));
  PromotionController pc(FastGate(), live, candidate);
  Feed(pc, 8);

  // Train the candidate on the same evidence until its TD error on the
  // window beats the live network's by the gate margin.
  for (int i = 0; i < 64; ++i) candidate.Push(MakeTransition(0.1 * (i % 8)));
  std::deque<rl::Transition> window;
  for (int i = 0; i < 8; ++i) window.push_back(MakeTransition(0.1 * (i + 1)));
  for (int step = 0; step < 400; ++step) {
    candidate.TrainStep();
    if (PromotionController::MeanTdError(candidate, window) <
        0.9 * PromotionController::MeanTdError(live, window)) {
      break;
    }
  }
  ASSERT_LT(PromotionController::MeanTdError(candidate, window),
            0.98 * PromotionController::MeanTdError(live, window))
      << "training failed to beat the frozen live net on synthetic data";

  const std::vector<double> pre_promotion = live.SaveWeights();
  pc.OnTick(1, false, false);
  ASSERT_EQ(pc.promotions(), 1u);
  EXPECT_EQ(pc.state(), PromotionState::kWatching);
  EXPECT_EQ(live.SaveWeights(), candidate.SaveWeights());
  EXPECT_EQ(pc.promotion_ticks(), std::vector<std::uint64_t>{1});

  // A fallback tick inside the watch window reverts the promotion.
  pc.OnTick(2, /*used_fallback=*/true, false);
  EXPECT_EQ(pc.rollbacks(), 1u);
  EXPECT_EQ(pc.state(), PromotionState::kCooldown);
  EXPECT_EQ(live.SaveWeights(), pre_promotion);
}

TEST(PromotionControllerTest, DefaultGateRulesMatchTheImplicitGate) {
  // DESIGN.md §16: the 4-arg ctor given DefaultGateRules(config) must walk
  // the state machine exactly like the 3-arg ctor — same rejections, same
  // promotion tick, same watch-window rollback. Two identically seeded
  // agent pairs, one controller each, driven by the same script.
  const PromotionConfig config = FastGate();
  rl::DqnAgent live_a(TinyConfig(11));
  rl::DqnAgent cand_a(TinyConfig(12));
  rl::DqnAgent live_b(TinyConfig(11));
  rl::DqnAgent cand_b(TinyConfig(12));
  PromotionController implicit_gate(config, live_a, cand_a);
  PromotionController explicit_gate(
      config, live_b, cand_b, PromotionController::DefaultGateRules(config));
  Feed(implicit_gate, 8);
  Feed(explicit_gate, 8);

  auto step = [&](std::uint64_t tick, bool fallback, bool nonfinite) {
    implicit_gate.OnTick(tick, fallback, nonfinite);
    explicit_gate.OnTick(tick, fallback, nonfinite);
    ASSERT_EQ(implicit_gate.state(), explicit_gate.state()) << "tick " << tick;
    ASSERT_EQ(implicit_gate.promotions(), explicit_gate.promotions());
    ASSERT_EQ(implicit_gate.rejections(), explicit_gate.rejections());
    ASSERT_EQ(implicit_gate.rollbacks(), explicit_gate.rollbacks());
  };

  // Phase 1: a nonfinite shadow verdict, then equal-weights evaluations —
  // every gate pass is a rejection plus its cooldown, in lockstep.
  step(1, false, true);
  for (std::uint64_t tick = 2; tick <= 8; ++tick) step(tick, false, false);
  EXPECT_GT(implicit_gate.rejections(), 0u);
  EXPECT_EQ(implicit_gate.promotions(), 0u);

  // Phase 2: train one candidate past the gate margin and mirror its
  // weights into the other pair, so both gates see the same evidence.
  for (int i = 0; i < 64; ++i) cand_a.Push(MakeTransition(0.1 * (i % 8)));
  std::deque<rl::Transition> window;
  for (int i = 0; i < 8; ++i) window.push_back(MakeTransition(0.1 * (i + 1)));
  for (int step_i = 0; step_i < 400; ++step_i) {
    cand_a.TrainStep();
    if (PromotionController::MeanTdError(cand_a, window) <
        0.9 * PromotionController::MeanTdError(live_a, window)) {
      break;
    }
  }
  ASSERT_LT(PromotionController::MeanTdError(cand_a, window),
            0.98 * PromotionController::MeanTdError(live_a, window))
      << "training failed to beat the frozen live net on synthetic data";
  cand_b.LoadWeights(cand_a.SaveWeights());
  cand_b.LoadTargetWeights(cand_a.SaveTargetWeights());

  // Phase 3: ride out any remaining cooldown, promote, then roll back on a
  // watch-window fallback tick — still in lockstep.
  std::uint64_t tick = 9;
  while (implicit_gate.promotions() == 0 && tick < 20) {
    step(tick++, false, false);
  }
  ASSERT_EQ(implicit_gate.promotions(), 1u);
  ASSERT_EQ(implicit_gate.state(), PromotionState::kWatching);
  EXPECT_EQ(live_a.SaveWeights(), live_b.SaveWeights());
  step(tick, /*fallback=*/true, false);
  EXPECT_EQ(implicit_gate.rollbacks(), 1u);
  EXPECT_EQ(implicit_gate.state(), PromotionState::kCooldown);
  EXPECT_EQ(live_a.SaveWeights(), live_b.SaveWeights());

  // The two gates evaluated the same number of times and agree on the TD
  // readings of the last evaluation, bit for bit.
  EXPECT_EQ(implicit_gate.gate().evaluations(),
            explicit_gate.gate().evaluations());
  EXPECT_EQ(implicit_gate.gate().trips(), explicit_gate.gate().trips());
  EXPECT_DOUBLE_EQ(implicit_gate.last_live_td(),
                   explicit_gate.last_live_td());
  EXPECT_DOUBLE_EQ(implicit_gate.last_candidate_td(),
                   explicit_gate.last_candidate_td());
}

TEST(PromotionControllerTest, NonFiniteCandidateIsRejected) {
  rl::DqnAgent live(TinyConfig(11));
  rl::DqnAgent candidate(TinyConfig(12));
  PromotionController pc(FastGate(), live, candidate);
  Feed(pc, 8);

  // Poison the candidate outright: NaN weights produce non-finite TD and
  // fail the weight health check.
  std::vector<double> poison = candidate.SaveWeights();
  for (double& w : poison) w = std::nan("");
  candidate.LoadWeights(poison);

  const std::vector<double> before = live.SaveWeights();
  for (std::uint64_t tick = 1; tick <= 10; ++tick) pc.OnTick(tick, false, false);
  EXPECT_EQ(pc.promotions(), 0u);
  EXPECT_GT(pc.rejections(), 0u);
  EXPECT_EQ(live.SaveWeights(), before);

  // The shadow runner's non-finite verdict alone must also block, even
  // with healthy weights.
  rl::DqnAgent candidate2(TinyConfig(13));
  PromotionController pc2(FastGate(), live, candidate2);
  Feed(pc2, 8);
  for (std::uint64_t tick = 1; tick <= 10; ++tick) {
    pc2.OnTick(tick, false, /*nonfinite=*/true);
  }
  EXPECT_EQ(pc2.promotions(), 0u);
  EXPECT_EQ(live.SaveWeights(), before);
}

TEST(PromotionControllerTest, SnapshotRoundTripsMidWatchState) {
  rl::DqnAgent live(TinyConfig(11));
  rl::DqnAgent candidate(TinyConfig(12));
  PromotionController pc(FastGate(), live, candidate);
  Feed(pc, 8);
  pc.OnTick(1, false, false);  // evaluates; promotion or rejection

  const PromotionController::Snapshot snap = pc.snapshot();
  rl::DqnAgent live2(TinyConfig(11));
  rl::DqnAgent candidate2(TinyConfig(12));
  PromotionController restored(FastGate(), live2, candidate2);
  restored.Restore(snap);
  EXPECT_EQ(restored.state(), pc.state());
  EXPECT_EQ(restored.promotions(), pc.promotions());
  EXPECT_EQ(restored.rejections(), pc.rejections());
  EXPECT_EQ(restored.evidence_size(), pc.evidence_size());
  EXPECT_EQ(restored.promotion_ticks(), pc.promotion_ticks());
}

TEST(BudgetedTrainerTest, StepBudgetIsDeterministicAndGated) {
  rl::DqnAgent candidate(TinyConfig(21));
  TrainerConfig cfg;
  cfg.steps_per_tick = 3;
  cfg.train_every_n_ticks = 2;
  cfg.min_buffer = 16;
  BudgetedTrainer trainer(cfg, candidate);

  // Below min_buffer: no steps.
  EXPECT_EQ(trainer.OnTick(2), 0);
  for (int i = 0; i < 32; ++i) candidate.Push(MakeTransition(0.1 * i));
  // Off-cadence tick: no steps.
  EXPECT_EQ(trainer.OnTick(3), 0);
  // On-cadence: exactly the step budget.
  EXPECT_EQ(trainer.OnTick(4), 3);
  EXPECT_EQ(trainer.steps_run(), 3u);
  EXPECT_EQ(candidate.train_steps(), 3u);
  EXPECT_EQ(trainer.budget_overruns(), 0u);

  // steps_per_tick = 0 disables training entirely.
  TrainerConfig off;
  off.steps_per_tick = 0;
  BudgetedTrainer disabled(off, candidate);
  EXPECT_EQ(disabled.OnTick(4), 0);
}

TEST(ShadowRunnerTest, AgreesWithItselfAndFlagsNonFiniteQ) {
  // HeuristicPrior reads fixed feature positions, so shadow captures need
  // full 11-dim dispatcher rows even at prior_weight 0.
  rl::DqnConfig wide = TinyConfig(31);
  wide.feature_dim = 11;
  auto agent = std::make_shared<rl::DqnAgent>(wide);
  ShadowConfig cfg;
  ShadowPolicyRunner runner(cfg);
  const std::size_t idx = runner.AddPolicy("self", agent);

  // A capture whose live actions were produced by this same agent: shadow
  // scoring must reproduce them (agreement 1.0). Build it by scoring rows
  // the same way the dispatcher does, with prior_weight 0 so the margin is
  // pure Q.
  const auto row11 = [](double a, double b) {
    std::vector<double> r(11, 0.0);
    r[0] = a;
    r[1] = b;
    r[4] = a > 0.5 ? 1.0 : 0.0;
    return r;
  };
  dispatch::RoundCapture cap;
  cap.valid = true;
  cap.feature_rows = {row11(1.0, 0.0), row11(0.0, 1.0), row11(0.2, 0.7)};
  cap.rows = {0};
  cap.team_begin = {0};
  cap.cand_row = {{1, 2}};
  cap.columns = {0, 1};
  cap.candidates = {roadnet::SegmentId{3}, roadnet::SegmentId{4}};
  cap.live_q = agent->QValues(cap.feature_rows);
  cap.prior_weight = 0.0;
  const double depot = cap.live_q[0];
  sim::TeamAction live;
  if (cap.live_q[1] > depot || cap.live_q[2] > depot) {
    live.kind = sim::ActionKind::kGoto;
    live.target = cap.live_q[1] >= cap.live_q[2] ? cap.candidates[0]
                                                 : cap.candidates[1];
  }
  cap.live_actions = {live};

  runner.OnTick(1, cap);
  ASSERT_EQ(runner.log().size(), 1u);
  EXPECT_DOUBLE_EQ(runner.log().back().agreement, 1.0);
  EXPECT_TRUE(runner.log().back().q_finite);
  EXPECT_FALSE(runner.SawNonFiniteQ(idx));
  EXPECT_DOUBLE_EQ(runner.MeanAgreement(idx), 1.0);

  // Poison the policy: the round is flagged, not crashed.
  std::vector<double> poison = agent->SaveWeights();
  for (double& w : poison) w = std::nan("");
  agent->LoadWeights(poison);
  runner.OnTick(2, cap);
  EXPECT_FALSE(runner.log().back().q_finite);
  EXPECT_TRUE(runner.SawNonFiniteQ(idx));
}

}  // namespace
}  // namespace mobirescue::learn
