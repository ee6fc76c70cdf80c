// The online continual-learning subsystem wired into the dispatch service
// (DESIGN.md §15), end to end on a real streamed day:
//   - a learning-enabled service with training frozen (steps_per_tick = 0)
//     serves the day bit-identically to the plain frozen-policy service —
//     collection and shadowing are pure observers,
//   - the whole loop (collect -> train -> shadow -> gate) is deterministic:
//     two identical runs make identical promotion decisions and end with
//     bitwise-equal live and candidate weights,
//   - a NaN-poisoned candidate is rejected by the gate every time and its
//     decisions never reach the simulator,
//   - the mobirescue-learn-v1 checkpoint blob round-trips the learner's
//     complete dynamic state,
//   - a process kill mid-episode (checkpoint cadence 1) recovers to the
//     exact same post-promotion weights and day outcome as the unkilled
//     run — the learner's interplay with the fault layer loses nothing,
//   - the periodic save, which reuses text across saves, writes the bytes
//     a fresh save of Checkpoint() writes after every tick of such a day.
#include "learn/learner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/world.hpp"
#include "serve/checkpoint.hpp"
#include "serve/dispatch_service.hpp"
#include "serve/fault_injector.hpp"
#include "serve/trace_streamer.hpp"
#include "sim/request.hpp"

namespace mobirescue::learn {
namespace {

// Every assertion in this suite is run-vs-run (bit-identity, determinism,
// gate behaviour) — none depends on how good the offline policy is. Under
// ThreadSanitizer's ~15x slowdown the suite keeps its full 288-tick days
// but trains the shared setup agent with fewer episodes.
#if defined(__SANITIZE_THREAD__)
constexpr int kSetupTrainingEpisodes = 2;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kSetupTrainingEpisodes = 2;
#else
constexpr int kSetupTrainingEpisodes = 6;
#endif
#else
constexpr int kSetupTrainingEpisodes = 6;
#endif

struct DayOutcome {
  std::vector<sim::Request> requests;
  int served = 0;
  int timely = 0;
};

class LearnServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new core::World(core::BuildWorld(core::WorldConfig::Small()));
    svm_ = core::TrainSvmPredictor(*world_).release();
    core::TrainingConfig training;
    training.episodes = kSetupTrainingEpisodes;
    training.sim.num_teams = 20;
    agent_ = core::TrainAgent(*world_, *svm_, training);
  }
  static void TearDownTestSuite() {
    delete svm_;
    delete world_;
    agent_.reset();
  }

  /// Promotions mutate the live agent in place, so every run gets its own
  /// copy of the trained weights.
  static std::shared_ptr<rl::DqnAgent> CloneAgent() {
    auto clone = std::make_shared<rl::DqnAgent>(agent_->config());
    clone->LoadWeights(agent_->SaveWeights());
    clone->LoadTargetWeights(agent_->SaveTargetWeights());
    return clone;
  }

  static sim::SimConfig SimCfg() {
    sim::SimConfig config;
    config.num_teams = 20;
    return config;
  }

  static int EvalDay() { return world_->eval.spec.eval_day; }
  static double DayOffset() { return EvalDay() * util::kSecondsPerDay; }

  static sim::RescueSimulator MakeSimulator() {
    return sim::RescueSimulator(
        *world_->city, *world_->eval.flood,
        sim::RequestsFromEvents(world_->eval.trace.rescues, EvalDay()),
        DayOffset(), SimCfg());
  }

  static mobility::GpsTrace DayTrace() {
    return sim::DaySlice(world_->eval.trace.records, EvalDay());
  }

  static DayOutcome Outcome(const sim::RescueSimulator& simulator) {
    DayOutcome out;
    out.requests = simulator.requests();
    out.served = simulator.metrics().total_served();
    out.timely = simulator.metrics().total_timely();
    return out;
  }

  static serve::ServiceConfig BaseServiceConfig() {
    serve::ServiceConfig config;
    config.queue.shard_capacity = 1 << 15;
    return config;
  }

  /// An aggressive gate so promotions can actually happen within one
  /// 288-tick day: short warmup, frequent checks, a small improvement bar.
  static LearnConfig AggressiveLearnConfig() {
    LearnConfig cfg;
    cfg.enabled = true;
    cfg.trainer.steps_per_tick = 8;
    cfg.trainer.min_buffer = 32;
    cfg.promotion.check_every_n_ticks = 4;
    cfg.promotion.min_evidence = 16;
    cfg.promotion.min_td_improvement = 0.005;
    cfg.promotion.watch_window_ticks = 6;
    cfg.promotion.cooldown_ticks = 8;
    return cfg;
  }

  struct LearningRun {
    DayOutcome outcome;
    serve::ServiceMetrics metrics;
    std::vector<double> live_weights;
    std::vector<double> candidate_weights;
    std::vector<std::uint64_t> promotion_ticks;
    std::string learner_state;
  };

  static LearningRun RunLearningDay(const LearnConfig& learn_cfg) {
    serve::ServiceConfig config = BaseServiceConfig();
    config.learn = learn_cfg;
    auto live = CloneAgent();
    serve::DispatchService service(*world_->city, *world_->index, *svm_, live,
                                   DayOffset(), config);
    sim::RescueSimulator simulator = MakeSimulator();
    serve::TraceStreamer streamer(DayTrace(), service);
    service.ServeEpisode(simulator, &streamer);

    LearningRun run;
    run.outcome = Outcome(simulator);
    run.metrics = service.metrics();
    run.live_weights = live->SaveWeights();
    if (service.learner() != nullptr) {
      run.candidate_weights = service.learner()->candidate().SaveWeights();
      run.promotion_ticks = service.learner()->promotion().promotion_ticks();
      run.learner_state = service.learner()->SaveStateString();
    }
    return run;
  }

  static DayOutcome RunFrozenDay() {
    auto live = CloneAgent();
    serve::DispatchService service(*world_->city, *world_->index, *svm_, live,
                                   DayOffset(), BaseServiceConfig());
    sim::RescueSimulator simulator = MakeSimulator();
    serve::TraceStreamer streamer(DayTrace(), service);
    service.ServeEpisode(simulator, &streamer);
    return Outcome(simulator);
  }

  static void ExpectIdentical(const DayOutcome& a, const DayOutcome& b) {
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.timely, b.timely);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      const sim::Request& ra = a.requests[i];
      const sim::Request& rb = b.requests[i];
      EXPECT_EQ(ra.status, rb.status) << "request " << i;
      EXPECT_EQ(ra.served_by_team, rb.served_by_team) << "request " << i;
      EXPECT_EQ(ra.pickup_time, rb.pickup_time) << "request " << i;
      EXPECT_EQ(ra.delivery_time, rb.delivery_time) << "request " << i;
    }
  }

  static core::World* world_;
  static predict::SvmRequestPredictor* svm_;
  static std::shared_ptr<rl::DqnAgent> agent_;
};

core::World* LearnServiceTest::world_ = nullptr;
predict::SvmRequestPredictor* LearnServiceTest::svm_ = nullptr;
std::shared_ptr<rl::DqnAgent> LearnServiceTest::agent_ = nullptr;

TEST_F(LearnServiceTest, FrozenTrainerObservesWithoutChangingDecisions) {
  // Learning enabled but training frozen: the candidate never improves, the
  // gate never promotes, and the served day is bit-identical to the plain
  // frozen-policy service — collection and shadowing are pure observers.
  const DayOutcome frozen = RunFrozenDay();
  EXPECT_FALSE(frozen.requests.empty());

  LearnConfig cfg;
  cfg.enabled = true;
  cfg.trainer.steps_per_tick = 0;
  const LearningRun run = RunLearningDay(cfg);

  ExpectIdentical(frozen, run.outcome);
  EXPECT_TRUE(run.metrics.learning);
  EXPECT_EQ(run.metrics.learn.ticks_observed, 288u);
  EXPECT_GT(run.metrics.learn.transitions, 0u);
  EXPECT_GT(run.metrics.learn.shadow_rounds, 0u);
  EXPECT_EQ(run.metrics.learn.train_steps, 0u);
  EXPECT_EQ(run.metrics.learn.promotions, 0u);
  // The live agent came through the day untouched.
  EXPECT_EQ(run.live_weights, agent_->SaveWeights());
  // An untrained candidate shadows the live policy's exact scores: full
  // agreement on every round.
  EXPECT_DOUBLE_EQ(run.metrics.learn.shadow_agreement, 1.0);
}

TEST_F(LearnServiceTest, ZeroCapacityReplayBufferServesAShortDay) {
  // buffer_capacity = 0 keeps no experience: every collected transition is
  // counted as an eviction, the trainer never finds a minibatch, and the
  // service keeps deciding on the primary dispatcher.
  serve::ServiceConfig config = BaseServiceConfig();
  config.learn = AggressiveLearnConfig();
  config.learn.buffer_capacity = 0;
  serve::DispatchService service(*world_->city, *world_->index, *svm_,
                                 CloneAgent(), DayOffset(), config);
  sim::RescueSimulator simulator = MakeSimulator();
  serve::TraceStreamer streamer(DayTrace(), service);
  sim::DispatchContext ctx;
  int ticks = 0;
  while (ticks < 48 && simulator.NextRound(service.dispatcher(), &ctx)) {
    streamer.WaitDelivered(ctx.now);
    simulator.SubmitDecision(service.Tick(ctx));
    ++ticks;
  }
  ASSERT_EQ(ticks, 48);
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.ticks, 48u);
  EXPECT_EQ(m.fallback_ticks, 0u);
  EXPECT_GT(m.learn.transitions, 0u);
  EXPECT_EQ(m.learn.train_steps, 0u);
  const rl::ReplayBuffer& buffer = service.learner()->candidate().buffer();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_GT(buffer.pushes(), 0u);
  EXPECT_EQ(buffer.evictions(), buffer.pushes());
}

TEST_F(LearnServiceTest, LearningLoopIsDeterministic) {
  // The acceptance bar: (seed, tick stream) fully determine the loop. Two
  // identical runs make identical promotion decisions and end with
  // bitwise-equal weights on both networks.
  const LearningRun a = RunLearningDay(AggressiveLearnConfig());
  const LearningRun b = RunLearningDay(AggressiveLearnConfig());

  ExpectIdentical(a.outcome, b.outcome);
  EXPECT_EQ(a.promotion_ticks, b.promotion_ticks);
  EXPECT_EQ(a.metrics.learn.promotions, b.metrics.learn.promotions);
  EXPECT_EQ(a.metrics.learn.rejections, b.metrics.learn.rejections);
  EXPECT_EQ(a.metrics.learn.train_steps, b.metrics.learn.train_steps);
  EXPECT_EQ(a.metrics.learn.transitions, b.metrics.learn.transitions);
  EXPECT_EQ(a.live_weights, b.live_weights);
  EXPECT_EQ(a.candidate_weights, b.candidate_weights);
  EXPECT_EQ(a.learner_state, b.learner_state);

  // The gate actually ran: the day produced enough evidence to evaluate.
  EXPECT_GT(a.metrics.learn.train_steps, 0u);
  EXPECT_GT(a.metrics.learn.promotions + a.metrics.learn.rejections, 0u);
  EXPECT_TRUE(std::isfinite(a.metrics.learn.last_live_td));
}

TEST_F(LearnServiceTest, NaNPoisonedCandidateIsNeverPromoted) {
  const DayOutcome frozen = RunFrozenDay();

  serve::ServiceConfig config = BaseServiceConfig();
  config.learn = AggressiveLearnConfig();
  auto live = CloneAgent();
  const std::vector<double> original = live->SaveWeights();
  serve::DispatchService service(*world_->city, *world_->index, *svm_, live,
                                 DayOffset(), config);
  ASSERT_NE(service.learner(), nullptr);

  // Poison the candidate before the day starts: every Q it produces and
  // every gradient step it takes stays NaN.
  std::vector<double> poison =
      service.learner()->candidate().SaveWeights();
  for (double& w : poison) w = std::nan("");
  service.learner()->candidate().LoadWeights(poison);

  sim::RescueSimulator simulator = MakeSimulator();
  serve::TraceStreamer streamer(DayTrace(), service);
  service.ServeEpisode(simulator, &streamer);

  const serve::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.learn.promotions, 0u);
  EXPECT_GT(metrics.learn.rejections, 0u);
  // The shadow runner flagged the non-finite Q output...
  EXPECT_TRUE(service.learner()->shadow().SawNonFiniteQ());
  // ...and the poisoned policy's decisions never reached the simulator:
  // the live agent is untouched and the day is the frozen-policy day.
  EXPECT_EQ(live->SaveWeights(), original);
  ExpectIdentical(frozen, Outcome(simulator));
}

TEST_F(LearnServiceTest, LearnerStateRoundTripsThroughCheckpoint) {
  serve::ServiceConfig config = BaseServiceConfig();
  config.learn = AggressiveLearnConfig();
  auto live = CloneAgent();
  serve::DispatchService service(*world_->city, *world_->index, *svm_, live,
                                 DayOffset(), config);
  sim::RescueSimulator simulator = MakeSimulator();
  serve::TraceStreamer streamer(DayTrace(), service);
  service.ServeEpisode(simulator, &streamer);
  ASSERT_NE(service.learner(), nullptr);
  const std::string before = service.learner()->SaveStateString();

  // Full artifact round trip through the text format.
  const std::string path =
      std::string(::testing::TempDir()) + "learn_service_ckpt.txt";
  serve::SaveCheckpointToFile(service.Checkpoint(), path);
  const serve::ServiceCheckpoint loaded = serve::LoadCheckpointFromFile(path);
  EXPECT_FALSE(loaded.learner_state.empty());

  // A fresh service built from the restored models plus the serving-state
  // restore carries the learner's complete dynamic state.
  auto restored_agent = serve::RestoreAgent(loaded);
  auto restored_svm = serve::RestorePredictor(loaded, *world_->train.factors);
  serve::DispatchService restored(*world_->city, *world_->index,
                                  *restored_svm, restored_agent, DayOffset(),
                                  config);
  ASSERT_NE(restored.learner(), nullptr);
  restored.RestoreServingState(loaded);

  EXPECT_EQ(restored.learner()->SaveStateString(), before);
  EXPECT_EQ(restored.learner()->candidate().SaveWeights(),
            service.learner()->candidate().SaveWeights());
  EXPECT_EQ(restored.learner()->promotion().promotion_ticks(),
            service.learner()->promotion().promotion_ticks());
  EXPECT_EQ(restored_agent->SaveWeights(), live->SaveWeights());
}

TEST_F(LearnServiceTest, KillWithoutLearningIsBitIdentical) {
  // Control for the learning kill test below: at checkpoint cadence 1 with
  // per-round prediction refresh, kill-and-restore of the PLAIN frozen
  // service must already be lossless. Any divergence here is a serving-
  // state restore gap, not a learner bug.
  dispatch::MobiRescueConfig mr;
  mr.prediction_refresh_s = 0.0;
  serve::ServiceConfig config = BaseServiceConfig();

  DayOutcome baseline;
  {
    auto live = CloneAgent();
    serve::DispatchService service(*world_->city, *world_->index, *svm_, live,
                                   DayOffset(), config, mr);
    sim::RescueSimulator simulator = MakeSimulator();
    serve::TraceStreamer streamer(DayTrace(), service);
    service.ServeEpisode(simulator, &streamer);
    baseline = Outcome(simulator);
  }

  const std::string ckpt_path =
      std::string(::testing::TempDir()) + "frozen_kill_ckpt.txt";
  serve::FaultPlan plan;
  plan.kill_at_ticks = {97};
  serve::FaultInjector injector{plan};
  auto restored_svms = std::make_shared<
      std::vector<std::unique_ptr<predict::SvmRequestPredictor>>>();
  auto restored_agents =
      std::make_shared<std::vector<std::shared_ptr<rl::DqnAgent>>>();
  sim::RescueSimulator simulator = MakeSimulator();
  serve::FaultedEpisodeConfig episode;
  episode.checkpoint_every_n_ticks = 1;
  episode.checkpoint_path = ckpt_path;
  serve::FaultedEpisodeOutcome outcome = serve::RunFaultedEpisode(
      simulator, DayTrace(), injector,
      [&](const serve::ServiceCheckpoint* ckpt)
          -> std::unique_ptr<serve::DispatchService> {
        if (ckpt == nullptr) {
          return std::make_unique<serve::DispatchService>(
              *world_->city, *world_->index, *svm_, CloneAgent(), DayOffset(),
              config, mr);
        }
        restored_agents->push_back(serve::RestoreAgent(*ckpt));
        restored_svms->push_back(
            serve::RestorePredictor(*ckpt, *world_->train.factors));
        return std::make_unique<serve::DispatchService>(
            *world_->city, *world_->index, *restored_svms->back(),
            restored_agents->back(), DayOffset(), config, mr);
      },
      episode);
  EXPECT_EQ(outcome.ticks, 288u);
  EXPECT_EQ(outcome.kills, 1u);
  ExpectIdentical(baseline, Outcome(simulator));
}

TEST_F(LearnServiceTest, KillMidLearningRecoversBitIdentically) {
  // Kill-and-restore loses nothing at checkpoint cadence 1: the recovered
  // run's training, shadowing, promotions, and served day are all
  // bit-identical to the unkilled run. prediction_refresh_s = 0 keeps the
  // one non-checkpointed cache (the SVM's {ñ_e}) rebuilt every round.
  dispatch::MobiRescueConfig mr;
  mr.prediction_refresh_s = 0.0;

  serve::ServiceConfig config = BaseServiceConfig();
  config.learn = AggressiveLearnConfig();

  // Baseline: the unkilled learning day under the same refresh cadence.
  LearningRun baseline;
  {
    auto live = CloneAgent();
    serve::DispatchService service(*world_->city, *world_->index, *svm_, live,
                                   DayOffset(), config, mr);
    sim::RescueSimulator simulator = MakeSimulator();
    serve::TraceStreamer streamer(DayTrace(), service);
    service.ServeEpisode(simulator, &streamer);
    baseline.outcome = Outcome(simulator);
    baseline.metrics = service.metrics();
    baseline.live_weights = live->SaveWeights();
    baseline.promotion_ticks = service.learner()->promotion().promotion_ticks();
    baseline.learner_state = service.learner()->SaveStateString();
  }

  const std::string ckpt_path =
      std::string(::testing::TempDir()) + "learn_kill_ckpt.txt";
  serve::FaultPlan plan;  // kill-only: record faults would change the day
  plan.kill_at_ticks = {97, 193};
  serve::FaultInjector injector{plan};

  auto restored_svms = std::make_shared<
      std::vector<std::unique_ptr<predict::SvmRequestPredictor>>>();
  auto restored_agents =
      std::make_shared<std::vector<std::shared_ptr<rl::DqnAgent>>>();

  sim::RescueSimulator simulator = MakeSimulator();
  serve::FaultedEpisodeConfig episode;
  episode.checkpoint_every_n_ticks = 1;
  episode.checkpoint_path = ckpt_path;
  serve::FaultedEpisodeOutcome outcome = serve::RunFaultedEpisode(
      simulator, DayTrace(), injector,
      [&](const serve::ServiceCheckpoint* ckpt)
          -> std::unique_ptr<serve::DispatchService> {
        if (ckpt == nullptr) {
          return std::make_unique<serve::DispatchService>(
              *world_->city, *world_->index, *svm_, CloneAgent(), DayOffset(),
              config, mr);
        }
        restored_agents->push_back(serve::RestoreAgent(*ckpt));
        restored_svms->push_back(
            serve::RestorePredictor(*ckpt, *world_->train.factors));
        return std::make_unique<serve::DispatchService>(
            *world_->city, *world_->index, *restored_svms->back(),
            restored_agents->back(), DayOffset(), config, mr);
      },
      episode);

  EXPECT_EQ(outcome.ticks, 288u);
  EXPECT_EQ(outcome.kills, 2u);
  ASSERT_NE(outcome.service->learner(), nullptr);

  // The recovered day IS the unkilled day, down to the learner's last bit.
  ExpectIdentical(baseline.outcome, Outcome(simulator));
  EXPECT_EQ(outcome.service->learner()->promotion().promotion_ticks(),
            baseline.promotion_ticks);
  EXPECT_EQ(outcome.service->learner()->SaveStateString(),
            baseline.learner_state);
  EXPECT_FALSE(restored_agents->empty());
  EXPECT_EQ(restored_agents->back()->SaveWeights(), baseline.live_weights);
  EXPECT_GE(outcome.service->metrics().recoveries, 1u);
}

TEST_F(LearnServiceTest, PeriodicFileEqualsAFreshSaveEveryTick) {
  // The periodic save keeps its writer and reuses text across saves: the
  // model sections while the live weights stay the same, the replay
  // buffer's memo, and the evidence taken from it. After every tick of a
  // learning day that promotes, rolls one promotion back (a decide failure
  // inside the watch window) and restores into a fresh service mid-day,
  // the file must be the bytes a fresh save of Checkpoint() writes.
  constexpr int kRestoreAfterTick = 150;
  serve::ServiceConfig config = BaseServiceConfig();
  config.learn = AggressiveLearnConfig();
  config.checkpoint_every_n_ticks = 1;
  config.checkpoint_path =
      std::string(::testing::TempDir()) + "learn_periodic_ckpt.txt";
  bool fail_next_decide = false;
  config.decide_chaos = [&fail_next_decide](util::SimTime) {
    if (std::exchange(fail_next_decide, false)) {
      throw std::runtime_error("injected decide failure");
    }
  };

  // The restored models outlive the service built on them.
  std::shared_ptr<rl::DqnAgent> restored_agent;
  std::unique_ptr<predict::SvmRequestPredictor> restored_svm;
  auto service = std::make_unique<serve::DispatchService>(
      *world_->city, *world_->index, *svm_, CloneAgent(), DayOffset(),
      config);
  sim::RescueSimulator simulator = MakeSimulator();
  const mobility::GpsTrace trace = DayTrace();
  auto streamer = std::make_unique<serve::TraceStreamer>(trace, *service);
  int ticks = 0;
  sim::DispatchContext ctx;
  while (simulator.NextRound(service->dispatcher(), &ctx)) {
    streamer->WaitDelivered(ctx.now);
    simulator.SubmitDecision(service->Tick(ctx));
    ++ticks;

    std::ostringstream fresh;
    serve::SaveCheckpoint(service->Checkpoint(), fresh);
    const std::string want = std::move(fresh).str();
    std::ifstream file(config.checkpoint_path, std::ios::binary);
    const std::string on_disk((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
    // Not ASSERT_EQ: gtest's line diff of two texts this long needs memory
    // that grows with the product of their line counts.
    const auto diff =
        std::mismatch(on_disk.begin(), on_disk.end(), want.begin(), want.end());
    ASSERT_TRUE(diff.first == on_disk.end() && diff.second == want.end())
        << "tick " << ticks << ": the file (" << on_disk.size()
        << " bytes) differs from a fresh save (" << want.size()
        << " bytes) at byte " << (diff.first - on_disk.begin());

    const PromotionController& promotion = service->learner()->promotion();
    if (promotion.state() == PromotionState::kWatching &&
        promotion.rollbacks() == 0) {
      fail_next_decide = true;
    }
    if (ticks == kRestoreAfterTick) {
      const serve::ServiceCheckpoint ckpt =
          serve::LoadCheckpointFromFile(config.checkpoint_path);
      streamer.reset();
      service.reset();
      restored_agent = serve::RestoreAgent(ckpt);
      restored_svm = serve::RestorePredictor(ckpt, *world_->train.factors);
      service = std::make_unique<serve::DispatchService>(
          *world_->city, *world_->index, *restored_svm, restored_agent,
          DayOffset(), config);
      service->RestoreServingState(ckpt);
      mobility::GpsTrace remaining;
      for (const mobility::GpsRecord& r : trace) {
        if (r.t > ckpt.serving.watermark) remaining.push_back(r);
      }
      streamer = std::make_unique<serve::TraceStreamer>(std::move(remaining),
                                                        *service);
    }
  }

  EXPECT_EQ(ticks, 288);
  const serve::ServiceMetrics m = service->metrics();
  EXPECT_EQ(m.recoveries, 1u);
  EXPECT_EQ(m.checkpoints_written,
            static_cast<std::uint64_t>(288 - kRestoreAfterTick));
  EXPECT_EQ(m.learn.rollbacks, 1u);
  // A promotion before the restore and one after it.
  const std::vector<std::uint64_t>& promoted =
      service->learner()->promotion().promotion_ticks();
  ASSERT_GE(promoted.size(), 2u);
  EXPECT_LE(promoted.front(), static_cast<std::uint64_t>(kRestoreAfterTick));
  EXPECT_GT(promoted.back(), static_cast<std::uint64_t>(kRestoreAfterTick));
  std::remove(config.checkpoint_path.c_str());
}

}  // namespace
}  // namespace mobirescue::learn
