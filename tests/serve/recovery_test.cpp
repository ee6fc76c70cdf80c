// Fault-tolerant serving end to end (DESIGN.md §13):
//   - the all-zero fault plan run through RunFaultedEpisode stays
//     bit-identical to the batch pipeline replay (the PR-3 invariant holds
//     through the fault-injection path),
//   - a chaos plan with mid-episode kills completes the full 288-tick day
//     by restoring from periodic checkpoints, with recovery events visible
//     in the obs registry,
//   - a periodic save that fails (file-size limit) keeps serving and
//     keeps the previous checkpoint,
//   - the degradation ladder: an injected Decide() failure or a budget
//     overrun hands the tick to the greedy fallback for the cooldown, and
//     an injected predictor failure keeps serving on the last-known
//     request distribution.
#include "serve/fault_injector.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "core/world.hpp"
#include "file_size_limit.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "serve/checkpoint.hpp"
#include "serve/dispatch_service.hpp"
#include "serve/trace_streamer.hpp"
#include "sim/population_tracker.hpp"
#include "sim/request.hpp"

namespace mobirescue::serve {
namespace {

struct DayOutcome {
  std::vector<sim::Request> requests;
  int served = 0;
  int timely = 0;
};

class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new core::World(core::BuildWorld(core::WorldConfig::Small()));
    svm_ = core::TrainSvmPredictor(*world_).release();
    core::TrainingConfig training;
    training.episodes = 6;
    training.sim.num_teams = 20;
    agent_ = core::TrainAgent(*world_, *svm_, training);
  }
  static void TearDownTestSuite() {
    delete svm_;
    delete world_;
    agent_.reset();
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

  static DayOutcome RunBatch() {
    sim::PopulationTracker tracker(DayTrace());
    dispatch::MobiRescueDispatcher dispatcher(*world_->city, *svm_, tracker,
                                              *world_->index, agent_,
                                              DayOffset());
    sim::RescueSimulator simulator = MakeSimulator();
    simulator.Run(dispatcher);
    return Outcome(simulator);
  }

  static ServiceConfig BaseServiceConfig() {
    ServiceConfig config;
    config.queue.shard_capacity = 1 << 15;
    return config;
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

core::World* RecoveryTest::world_ = nullptr;
predict::SvmRequestPredictor* RecoveryTest::svm_ = nullptr;
std::shared_ptr<rl::DqnAgent> RecoveryTest::agent_ = nullptr;

TEST_F(RecoveryTest, ZeroFaultPlanPreservesBatchBitIdentity) {
  // The acceptance gate for the whole fault layer: with every fault off,
  // RunFaultedEpisode is just the streamed service, and streamed == batch.
  const DayOutcome batch = RunBatch();
  EXPECT_FALSE(batch.requests.empty());
  EXPECT_GT(batch.served, 0);

  FaultInjector injector{FaultPlan{}};
  sim::RescueSimulator simulator = MakeSimulator();
  FaultedEpisodeOutcome outcome = RunFaultedEpisode(
      simulator, DayTrace(), injector,
      [](const ServiceCheckpoint* ckpt) -> std::unique_ptr<DispatchService> {
        EXPECT_EQ(ckpt, nullptr);  // no kills on the identity plan
        return std::make_unique<DispatchService>(*world_->city, *world_->index,
                                                 *svm_, agent_, DayOffset(),
                                                 BaseServiceConfig());
      });

  EXPECT_EQ(outcome.ticks, 288u);
  EXPECT_EQ(outcome.kills, 0u);
  ExpectIdentical(batch, Outcome(simulator));

  const ServiceMetrics metrics = outcome.service->metrics();
  EXPECT_EQ(metrics.state.quarantined(), 0u);
  EXPECT_EQ(metrics.fallback_ticks, 0u);
  EXPECT_EQ(metrics.recoveries, 0u);
}

TEST_F(RecoveryTest, FailedPeriodicSavesKeepServing) {
  // A periodic save that fails on every tick (a file-size limit stands in
  // for a full disk) neither throws out of Tick nor changes a decision:
  // the day still matches the batch replay, each failure is counted and
  // flight-recorded, and the checkpoint already on disk still loads.
  const DayOutcome batch = RunBatch();
  const std::string path =
      std::string(::testing::TempDir()) + "recovery_failed_save_ckpt.txt";
  ServiceConfig config = BaseServiceConfig();
  config.checkpoint_every_n_ticks = 1;
  config.checkpoint_path = path;
  DispatchService service(*world_->city, *world_->index, *svm_, agent_,
                          DayOffset(), config);
  SaveCheckpointToFile(service.Checkpoint(), path);

  obs::SnapshotDelta registry_delta(obs::Registry::Global());
  sim::RescueSimulator simulator = MakeSimulator();
  {
    FileSizeLimit limit(4096);
    TraceStreamer streamer(DayTrace(), service);
    service.ServeEpisode(simulator, &streamer);
  }

  ExpectIdentical(batch, Outcome(simulator));
  EXPECT_EQ(service.metrics().ticks, 288u);
  EXPECT_EQ(service.metrics().checkpoints_written, 0u);
  EXPECT_EQ(registry_delta.Delta("serve_checkpoint_failures_total"), 288.0);
  EXPECT_EQ(registry_delta.Delta("serve_tick_checkpoint_ms"), 288.0);
  bool recorded = false;
  for (const obs::Event& e : obs::FlightRecorder::Global().CollectRecent(16)) {
    recorded |= std::string_view(e.kind) == "checkpoint_failed" &&
                e.severity == obs::Severity::kError;
  }
  EXPECT_TRUE(recorded);
  EXPECT_EQ(LoadCheckpointFromFile(path).serving.ticks, 0u);
  std::filesystem::remove(path);
}

TEST_F(RecoveryTest, KillMidEpisodeRestoresFromCheckpointAndFinishes) {
  const std::string ckpt_path =
      std::string(::testing::TempDir()) + "recovery_test_ckpt.txt";

  FaultPlan plan = FaultPlan::Chaos(991);
  plan.kill_at_ticks = {97, 193};
  FaultInjector injector{plan};

  // The factory owns keeping restored models alive for the service's
  // lifetime (the outcome's service outlives this lambda).
  auto restored_svms =
      std::make_shared<std::vector<std::unique_ptr<predict::SvmRequestPredictor>>>();
  auto restored_agents = std::make_shared<std::vector<std::shared_ptr<rl::DqnAgent>>>();

  obs::SnapshotDelta registry_delta(obs::Registry::Global());

  sim::RescueSimulator simulator = MakeSimulator();
  FaultedEpisodeConfig episode;
  episode.checkpoint_every_n_ticks = 16;
  episode.checkpoint_path = ckpt_path;
  FaultedEpisodeOutcome outcome = RunFaultedEpisode(
      simulator, DayTrace(), injector,
      [&](const ServiceCheckpoint* ckpt) -> std::unique_ptr<DispatchService> {
        ServiceConfig config = BaseServiceConfig();
        config.decide_chaos = [&injector](util::SimTime now) {
          if (injector.ShouldFailDecide(now)) {
            throw std::runtime_error("injected decide failure");
          }
        };
        dispatch::MobiRescueConfig mr;
        mr.prediction_chaos = [&injector](double now) {
          if (injector.ShouldFailPrediction(now)) {
            throw std::runtime_error("injected predictor failure");
          }
        };
        if (ckpt == nullptr) {
          return std::make_unique<DispatchService>(
              *world_->city, *world_->index, *svm_, agent_, DayOffset(),
              config, mr);
        }
        restored_agents->push_back(RestoreAgent(*ckpt));
        restored_svms->push_back(
            RestorePredictor(*ckpt, *world_->train.factors));
        return std::make_unique<DispatchService>(
            *world_->city, *world_->index, *restored_svms->back(),
            restored_agents->back(), DayOffset(), config, mr);
      },
      episode);

  // The day completes despite two kills: the restored services resume from
  // the checkpoint tick count and keep ticking to 288.
  EXPECT_EQ(outcome.ticks, 288u);
  EXPECT_EQ(outcome.kills, 2u);
  EXPECT_EQ(injector.counts().kills, 2u);
  EXPECT_GT(outcome.checkpoints_written, 0u);
  // Each kill loses the ticks performed since the last checkpoint from the
  // replacement's lifetime counter (those simulator rounds already ran and
  // are not replayed), so the survivor accounts for nearly — not exactly —
  // the full day.
  EXPECT_LE(outcome.service->lifetime_ticks(), 288u);
  EXPECT_GE(outcome.service->lifetime_ticks(),
            288u - plan.kill_at_ticks.size() * episode.checkpoint_every_n_ticks);

  const ServiceMetrics metrics = outcome.service->metrics();
  // The surviving instance performed the second recovery.
  EXPECT_GE(metrics.recoveries, 1u);
  // The chaos plan's corrupt records were quarantined, not applied.
  EXPECT_GT(metrics.state.quarantined(), 0u);
  // Injected decide failures ran the fallback ladder.
  EXPECT_GT(injector.counts().decide_failures, 0u);
  EXPECT_GT(injector.counts().predictor_failures, 0u);

  // The recovery and quarantine events surface in the obs registry (what a
  // /metrics scrape of the real service would show). Only the surviving
  // instance's instruments are live, so the registry shows its 1 recovery,
  // not the full kill count.
  EXPECT_GE(registry_delta.Delta("serve_recoveries_total"), 1.0);
  EXPECT_GT(registry_delta.Delta("serve_quarantined_total"), 0.0);

  // And the requests were actually handled: the episode produced a full
  // day's worth of terminal request states.
  EXPECT_FALSE(simulator.requests().empty());
}

TEST_F(RecoveryTest, KillsWithoutCheckpointingAreSkipped) {
  FaultPlan plan;  // no record faults: keep it cheap
  plan.kill_at_ticks = {10};
  FaultInjector injector{plan};
  sim::RescueSimulator simulator = MakeSimulator();
  FaultedEpisodeOutcome outcome = RunFaultedEpisode(
      simulator, DayTrace(), injector,
      [](const ServiceCheckpoint*) {
        return std::make_unique<DispatchService>(*world_->city, *world_->index,
                                                 *svm_, agent_, DayOffset(),
                                                 BaseServiceConfig());
      });
  // No checkpoint cadence configured -> nothing to restore from -> the
  // kill tick is a no-op and the episode runs through.
  EXPECT_EQ(outcome.ticks, 288u);
  EXPECT_EQ(outcome.kills, 0u);
  EXPECT_EQ(outcome.checkpoints_written, 0u);
}

TEST_F(RecoveryTest, DecideFailureFallsBackForTheCooldown) {
  ServiceConfig config = BaseServiceConfig();
  config.degraded_cooldown_ticks = 4;
  int failures_armed = 1;
  config.decide_chaos = [&failures_armed](util::SimTime) {
    if (failures_armed > 0) {
      --failures_armed;
      throw std::runtime_error("injected decide failure");
    }
  };
  DispatchService service(*world_->city, *world_->index, *svm_, agent_,
                          DayOffset(), config);
  sim::RescueSimulator simulator = MakeSimulator();
  TraceStreamer streamer(DayTrace(), service);
  service.ServeEpisode(simulator, &streamer);

  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.ticks, 288u);
  EXPECT_EQ(metrics.decide_errors, 1u);
  // The failing tick plus the cooldown ticks all served on the fallback.
  EXPECT_EQ(metrics.fallback_ticks, 5u);
  EXPECT_FALSE(metrics.degraded);  // cooldown long since expired
  // Every round still got a decision; the day finished.
  EXPECT_FALSE(simulator.requests().empty());
}

TEST_F(RecoveryTest, BudgetOverrunDegradesToFallback) {
  ServiceConfig config = BaseServiceConfig();
  config.decide_budget_ms = 1e-9;  // everything overruns
  config.degraded_cooldown_ticks = 3;
  DispatchService service(*world_->city, *world_->index, *svm_, agent_,
                          DayOffset(), config);
  sim::RescueSimulator simulator = MakeSimulator();
  TraceStreamer streamer(DayTrace(), service);
  service.ServeEpisode(simulator, &streamer);

  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.ticks, 288u);
  EXPECT_GT(metrics.budget_overruns, 0u);
  EXPECT_GT(metrics.fallback_ticks, 0u);
  // The primary runs each time cooldown expires, overruns again, and hands
  // the next ticks back to the fallback: both dispatchers alternate.
  EXPECT_LT(metrics.fallback_ticks, 288u);
}

TEST_F(RecoveryTest, PredictorFailureKeepsLastKnownDistribution) {
  // Degradation ladder rung 1, tested at the dispatcher level: once the
  // predictor starts throwing, Decide() keeps serving on the last cached
  // {ñ_e} distribution instead of propagating the failure.
  sim::PopulationTracker tracker(DayTrace());
  dispatch::MobiRescueConfig mr;
  bool fail_predictions = false;
  mr.prediction_chaos = [&fail_predictions](double) {
    if (fail_predictions) {
      throw std::runtime_error("injected predictor failure");
    }
  };
  dispatch::MobiRescueDispatcher dispatcher(*world_->city, *svm_, tracker,
                                            *world_->index, agent_,
                                            DayOffset(), mr);
  sim::RescueSimulator simulator = MakeSimulator();
  sim::DispatchContext ctx;
  std::uint64_t rounds = 0;
  predict::Distribution last_good;
  while (simulator.NextRound(dispatcher, &ctx)) {
    simulator.SubmitDecision(dispatcher.Decide(ctx));
    ++rounds;
    // Let refreshes succeed until one produces a non-empty distribution
    // (midnight snapshots can legitimately predict nothing), then fail
    // every subsequent refresh.
    if (!fail_predictions && !dispatcher.predicted_distribution().empty()) {
      last_good = dispatcher.predicted_distribution();
      fail_predictions = true;
    }
  }
  EXPECT_EQ(rounds, 288u);
  ASSERT_TRUE(fail_predictions);  // some refresh predicted demand
  EXPECT_GT(dispatcher.prediction_failures(), 0u);
  // The last successful refresh's prediction is still being served,
  // untouched by the failed refreshes that followed it.
  EXPECT_EQ(dispatcher.predicted_distribution(), last_good);
  EXPECT_FALSE(dispatcher.predicted_distribution().empty());
  EXPECT_FALSE(simulator.requests().empty());
}

}  // namespace
}  // namespace mobirescue::serve
