// PromotionController state machine and gate semantics over small synthetic
// agents (the gate checked against the obs::HealthEngine rules it
// replaced), the OnlineLearner's step budget and ShadowPolicyRunner
// scoring.
#include "learn/promotion_controller.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "learn/learner.hpp"
#include "learn/shadow_runner.hpp"
#include "obs/health.hpp"
#include "rl/dqn_agent.hpp"
#include "rl/replay_buffer.hpp"
#include "util/ring.hpp"

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
  util::Ring<rl::Transition> window(8);
  for (int i = 0; i < 8; ++i) window.Push(MakeTransition(0.1 * (i + 1)));
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

/// The gate's three checks as the obs::HealthEngine rules that held them
/// before GateVerdict: subtraction-sign rules over observed values, with
/// the engine's fail-closed rule for a non-finite sample.
std::vector<obs::HealthRule> OldGateRules() {
  const auto rule = [](const char* name, const char* key, obs::HealthCmp cmp) {
    obs::HealthRule r;
    r.name = name;
    r.selector = key;
    r.observed = true;
    r.cmp = cmp;
    r.threshold = 0.0;
    return r;
  };
  return {rule("candidate-nonfinite", "learn_candidate_nonfinite",
               obs::HealthCmp::kGreaterThan),
          rule("candidate-td-gap", "learn_td_gap", obs::HealthCmp::kLessOrEqual),
          rule("candidate-td-margin", "learn_td_margin",
               obs::HealthCmp::kGreaterThan)};
}

TEST(PromotionControllerTest, GateVerdictMatchesTheOldHealthRules) {
  constexpr double kImprovement = 0.02;
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Around the 2% bar (live 1: the bar is 0.98), the smallest and largest
  // magnitudes, and every non-finite value.
  const std::vector<double> tds = {0.0,
                                   kDenormMin,
                                   -kDenormMin,
                                   0.97,
                                   std::nextafter(0.98, 0.0),
                                   0.98,
                                   std::nextafter(0.98, 1.0),
                                   0.99,
                                   1.0,
                                   1e308,
                                   kInf,
                                   -kInf,
                                   std::numeric_limits<double>::quiet_NaN()};
  obs::HealthEngine reference(OldGateRules());
  int cases = 0, promoted = 0;
  for (const bool nonfinite : {false, true}) {
    for (const double live : tds) {
      for (const double cand : tds) {
        reference.Observe("learn_candidate_nonfinite", nonfinite ? 1.0 : 0.0);
        reference.Observe("learn_td_gap", live - cand);
        reference.Observe("learn_td_margin",
                          cand - live * (1.0 - kImprovement));
        const obs::HealthVerdict& want = reference.Evaluate();
        const char* got = PromotionController::GateVerdict(nonfinite, live,
                                                           cand, kImprovement);
        SCOPED_TRACE(::testing::Message() << "nonfinite " << nonfinite
                                          << " live " << live << " cand "
                                          << cand);
        ++cases;
        if (want.healthy) {
          EXPECT_EQ(got, nullptr) << got;
          ++promoted;
        } else {
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(std::string(got), want.tripped.front());
        }
      }
    }
  }
  EXPECT_EQ(cases, 338);
  EXPECT_GT(promoted, 0);
  // The bar itself, read as plain comparisons.
  EXPECT_STREQ(PromotionController::GateVerdict(false, 1.0, 1.0, kImprovement),
               "candidate-td-gap");
  EXPECT_STREQ(PromotionController::GateVerdict(false, 1.0, 0.99, kImprovement),
               "candidate-td-margin");
  EXPECT_EQ(PromotionController::GateVerdict(false, 1.0, 0.97, kImprovement),
            nullptr);
}

TEST(PromotionControllerTest, MeanTdErrorOfAWrappedRingMatchesAFreshRing) {
  // A wrapped window must score its transitions oldest first, exactly as a
  // ring that never wrapped holds them. Rewards of mixed magnitudes make
  // the floating-point sum depend on that order.
  rl::DqnAgent agent(TinyConfig(17));
  constexpr std::size_t kWindow = 8;
  const auto transition = [](std::size_t i) {
    rl::Transition t = MakeTransition(0.1 * static_cast<double>(i % 5));
    t.reward = std::pow(10.0, static_cast<double>(i % 7) - 3.0) *
               (1.0 + 0.123 * static_cast<double>(i));
    t.terminal = i % 3 == 0;
    t.duration_rounds = 1 + static_cast<int>(i % 4);
    return t;
  };
  for (std::size_t pushes = kWindow; pushes < 4 * kWindow; ++pushes) {
    util::Ring<rl::Transition> wrapped(kWindow);
    for (std::size_t i = 0; i < pushes; ++i) wrapped.Push(transition(i));
    util::Ring<rl::Transition> fresh(kWindow);
    for (std::size_t i = pushes - kWindow; i < pushes; ++i) {
      fresh.Push(transition(i));
    }
    ASSERT_EQ(fresh.oldest(), 0u);
    const double a = PromotionController::MeanTdError(agent, wrapped);
    const double b = PromotionController::MeanTdError(agent, fresh);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << pushes << " pushes: " << a << " vs " << b;
  }
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
  std::vector<rl::Transition> evidence;
  pc.evidence().ForEachOldestFirst(
      [&](const rl::Transition& t) { evidence.push_back(t); });
  rl::DqnAgent live2(TinyConfig(11));
  rl::DqnAgent candidate2(TinyConfig(12));
  PromotionController restored(FastGate(), live2, candidate2);
  restored.Restore(snap, evidence);
  EXPECT_EQ(restored.state(), pc.state());
  EXPECT_EQ(restored.promotions(), pc.promotions());
  EXPECT_EQ(restored.rejections(), pc.rejections());
  EXPECT_EQ(restored.evidence_size(), pc.evidence_size());
  EXPECT_EQ(restored.promotion_ticks(), pc.promotion_ticks());
}

TEST(OnlineLearnerTest, StepBudgetIsDeterministicAndGated) {
  // A served tick with no teams and no scored round: the collector and the
  // shadow runner have nothing to do, so the tick's work is the step
  // budget.
  const sim::DispatchContext context;
  const dispatch::RoundCapture capture;
  LearnConfig cfg;
  cfg.enabled = true;
  cfg.trainer.steps_per_tick = 3;
  cfg.trainer.min_buffer = 16;
  OnlineLearner learner(cfg, dispatch::RewardWeights{},
                        std::make_shared<rl::DqnAgent>(TinyConfig(21)));

  // Below min_buffer: no steps.
  learner.OnServedTick(1, context, capture, false);
  EXPECT_EQ(learner.metrics().train_steps, 0u);
  for (int i = 0; i < 32; ++i) {
    learner.candidate().mutable_buffer().Push(MakeTransition(0.1 * i));
  }
  // Exactly the step budget.
  learner.OnServedTick(2, context, capture, false);
  EXPECT_EQ(learner.metrics().train_steps, 3u);
  EXPECT_EQ(learner.candidate().train_steps(), 3u);

  // steps_per_tick = 0 disables training entirely.
  LearnConfig off = cfg;
  off.trainer.steps_per_tick = 0;
  OnlineLearner disabled(off, dispatch::RewardWeights{},
                         std::make_shared<rl::DqnAgent>(TinyConfig(21)));
  for (int i = 0; i < 32; ++i) {
    disabled.candidate().mutable_buffer().Push(MakeTransition(0.1 * i));
  }
  disabled.OnServedTick(2, context, capture, false);
  EXPECT_EQ(disabled.metrics().train_steps, 0u);
}

TEST(ShadowRunnerTest, AgreesWithItselfAndFlagsNonFiniteQ) {
  // HeuristicPrior reads fixed feature positions, so shadow captures need
  // full 11-dim dispatcher rows even at prior_weight 0.
  rl::DqnConfig wide = TinyConfig(31);
  wide.feature_dim = 11;
  auto agent = std::make_shared<rl::DqnAgent>(wide);
  ShadowPolicyRunner runner(agent);

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
  EXPECT_DOUBLE_EQ(runner.log().data().back().agreement, 1.0);
  EXPECT_TRUE(runner.log().data().back().q_finite);
  EXPECT_FALSE(runner.SawNonFiniteQ());
  EXPECT_DOUBLE_EQ(runner.MeanAgreement(), 1.0);

  // Poison the policy: the round is flagged, not crashed.
  std::vector<double> poison = agent->SaveWeights();
  for (double& w : poison) w = std::nan("");
  agent->LoadWeights(poison);
  runner.OnTick(2, cap);
  EXPECT_FALSE(runner.log().data().back().q_finite);
  EXPECT_TRUE(runner.SawNonFiniteQ());
}

}  // namespace
}  // namespace mobirescue::learn
