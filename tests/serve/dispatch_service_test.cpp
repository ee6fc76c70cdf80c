// End-to-end online-serving test (the PR's acceptance criterion): stream an
// evaluation day's GPS records through the sharded ingestion path while
// dispatch ticks fire, and require the per-tick decisions — hence every
// request's fate — to be bit-identical to the batch core::Pipeline replay
// of the same scenario and seed.
#include "serve/dispatch_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/pipeline.hpp"
#include "core/world.hpp"
#include "dispatch/simple_dispatchers.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "serve/checkpoint.hpp"
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

class DispatchServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new core::World(core::BuildWorld(core::WorldConfig::Small()));
    svm_ = core::TrainSvmPredictor(*world_).release();
    // Same training regime as the integration pipeline suite: with fewer
    // episodes/teams the undertrained agent can serve nothing on the small
    // world, which would make the bit-identity assertions vacuous.
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

  /// The batch pipeline's replay: PopulationTracker + Run().
  static DayOutcome RunBatch() {
    sim::PopulationTracker tracker(DayTrace());
    dispatch::MobiRescueDispatcher dispatcher(*world_->city, *svm_, tracker,
                                              *world_->index, agent_,
                                              DayOffset());
    sim::RescueSimulator simulator = MakeSimulator();
    simulator.Run(dispatcher);
    return Outcome(simulator);
  }

  /// The online service: sharded multi-threaded ingestion + tick loop.
  static DayOutcome RunStreamed(const predict::SvmRequestPredictor& svm,
                                std::shared_ptr<rl::DqnAgent> agent,
                                ServiceMetrics* metrics_out = nullptr) {
    ServiceConfig config;
    config.queue.shard_capacity = 1 << 15;  // ample: the test needs 0 drops
    DispatchService service(*world_->city, *world_->index, svm,
                            std::move(agent), DayOffset(), config);
    sim::RescueSimulator simulator = MakeSimulator();
    TraceStreamer streamer(DayTrace(), service);
    service.ServeEpisode(simulator, &streamer);
    if (metrics_out != nullptr) *metrics_out = service.metrics();
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
      // Bit-identical times, not approximate: same decisions, same steps.
      EXPECT_EQ(ra.pickup_time, rb.pickup_time) << "request " << i;
      EXPECT_EQ(ra.delivery_time, rb.delivery_time) << "request " << i;
      EXPECT_EQ(ra.driving_delay_s, rb.driving_delay_s) << "request " << i;
    }
  }

  static core::World* world_;
  static predict::SvmRequestPredictor* svm_;
  static std::shared_ptr<rl::DqnAgent> agent_;
};

core::World* DispatchServiceTest::world_ = nullptr;
predict::SvmRequestPredictor* DispatchServiceTest::svm_ = nullptr;
std::shared_ptr<rl::DqnAgent> DispatchServiceTest::agent_ = nullptr;

TEST_F(DispatchServiceTest, StreamedDecisionsMatchBatchReplay) {
  const DayOutcome batch = RunBatch();
  EXPECT_FALSE(batch.requests.empty());
  EXPECT_GT(batch.served, 0);

  ServiceMetrics metrics;
  const DayOutcome streamed = RunStreamed(*svm_, agent_, &metrics);
  ExpectIdentical(batch, streamed);

  // The stream made it through intact: nothing dropped, everything the
  // day produced was applied.
  EXPECT_EQ(metrics.ingest.dropped, 0u);
  EXPECT_EQ(metrics.ingest.accepted, DayTrace().size());
  EXPECT_EQ(metrics.state.applied, metrics.ingest.accepted);
  EXPECT_GT(metrics.state.matched, 0u);
  EXPECT_GT(metrics.people_tracked, 0u);
  EXPECT_GT(metrics.shard_imbalance, 0.0);
  EXPECT_LE(metrics.shard_imbalance, 2.0);
}

TEST_F(DispatchServiceTest, TickLatencyWellUnderIpBaselineBudget) {
  ServiceMetrics metrics;
  RunStreamed(*svm_, agent_, &metrics);

  // One tick per 5-min dispatch round over the 24 h horizon.
  EXPECT_EQ(metrics.ticks, 288u);
  EXPECT_EQ(metrics.decide_ms.count, 288u);
  EXPECT_GT(metrics.decide_ms.max, 0.0);
  EXPECT_LE(metrics.decide_ms.p50, metrics.decide_ms.p95);
  EXPECT_LE(metrics.decide_ms.p95, metrics.decide_ms.p99);
  // The paper's contrast: the IP baselines need ~300 s per round; the
  // served model must decide in well under a second (smoke bound).
  EXPECT_LT(metrics.decide_ms.p99, 1000.0);
  // The featurizer's tree cache is exercised by the tick loop.
  EXPECT_GT(metrics.router_cache.hits + metrics.router_cache.misses, 0u);
  EXPECT_GT(metrics.ingest_rate_per_s, 0.0);
}

TEST_F(DispatchServiceTest, DefaultHealthRulesReproduceTheHardcodedLadder) {
  // DESIGN.md §16: the declarative health engine's default rules must
  // drive the degradation ladder exactly as the pre-engine hardcoded
  // gates did. Run the same faulted day twice — once on the built-in
  // rules, once with DefaultHealthRules(config) installed explicitly via
  // the replace path — exercising both ladder rules: two injected decide
  // failures plus a budget every primary tick overruns. Decisions and
  // ladder metrics must match decision-for-decision.
  auto run = [](bool replace_rules) {
    ServiceConfig config;
    config.queue.shard_capacity = 1 << 15;
    config.degraded_cooldown_ticks = 4;
    config.decide_budget_ms = 1e-9;  // every primary tick overruns
    int failures_armed = 2;
    config.decide_chaos = [failures_armed](util::SimTime) mutable {
      if (failures_armed > 0) {
        --failures_armed;
        throw std::runtime_error("injected decide failure");
      }
    };
    if (replace_rules) {
      config.replace_default_health_rules = true;
      config.health_rules = DispatchService::DefaultHealthRules(config);
    }
    DispatchService service(*world_->city, *world_->index, *svm_, agent_,
                            DayOffset(), config);
    sim::RescueSimulator simulator = MakeSimulator();
    TraceStreamer streamer(DayTrace(), service);
    service.ServeEpisode(simulator, &streamer);
    return std::make_pair(Outcome(simulator), service.metrics());
  };

  const auto built_in = run(false);
  const auto explicit_rules = run(true);
  ExpectIdentical(built_in.first, explicit_rules.first);

  const ServiceMetrics& a = built_in.second;
  const ServiceMetrics& b = explicit_rules.second;
  EXPECT_EQ(a.decide_errors, 2u);
  EXPECT_EQ(a.decide_errors, b.decide_errors);
  EXPECT_EQ(a.budget_overruns, b.budget_overruns);
  EXPECT_EQ(a.fallback_ticks, b.fallback_ticks);
  EXPECT_EQ(a.health_trips, b.health_trips);
  EXPECT_EQ(a.degraded, b.degraded);
  // The ladder actually engaged: both failure ticks and the cooldowns
  // after every overrun served on the fallback, but never the whole day.
  EXPECT_GT(a.fallback_ticks, 0u);
  EXPECT_LT(a.fallback_ticks, 288u);
  EXPECT_GT(a.health_trips, 0u);
}

TEST_F(DispatchServiceTest, CheckpointRestartServesIdentically) {
  const DayOutcome batch = RunBatch();

  // Save the trained models, reload them into a fresh server process
  // stand-in, and serve the same day: decisions must not change.
  std::stringstream blob;
  SaveCheckpoint(MakeCheckpoint(*agent_, *svm_), blob);
  const ServiceCheckpoint loaded = LoadCheckpoint(blob.str());
  auto restored_agent = RestoreAgent(loaded);
  auto restored_svm = RestorePredictor(loaded, *world_->train.factors);

  const DayOutcome restored = RunStreamed(*restored_svm, restored_agent);
  ExpectIdentical(batch, restored);
}

TEST_F(DispatchServiceTest, BaselineDispatcherServes) {
  // ctor B: the service hosts any dispatcher; compare against the plain
  // simulator run of the same baseline.
  sim::RescueSimulator batch_sim = MakeSimulator();
  dispatch::GreedyNearestDispatcher batch_dispatcher(*world_->city);
  batch_sim.Run(batch_dispatcher);
  const DayOutcome batch = Outcome(batch_sim);

  DispatchService service(
      *world_->city, *world_->index,
      std::make_unique<dispatch::GreedyNearestDispatcher>(*world_->city));
  sim::RescueSimulator sim = MakeSimulator();
  TraceStreamer streamer(DayTrace(), service);
  service.ServeEpisode(sim, &streamer);
  ExpectIdentical(batch, Outcome(sim));

  const ServiceMetrics metrics = service.metrics();
  // No MobiRescue dispatcher: router cache stays untouched.
  EXPECT_EQ(metrics.router_cache.hits + metrics.router_cache.misses, 0u);
  EXPECT_EQ(service.predicted_demand(), nullptr);
}

TEST_F(DispatchServiceTest, PredictedDemandExposed) {
  ServiceConfig config;
  config.queue.shard_capacity = 1 << 15;
  DispatchService service(*world_->city, *world_->index, *svm_, agent_,
                          DayOffset(), config);
  ASSERT_NE(service.predicted_demand(), nullptr);

  sim::RescueSimulator simulator = MakeSimulator();
  TraceStreamer streamer(DayTrace(), service);
  service.ServeEpisode(simulator, &streamer);
  // After a served day the cached {ñ_e} prediction is populated.
  EXPECT_FALSE(service.predicted_demand()->empty());
}

TEST_F(DispatchServiceTest, DeferredRecordsApplyOnLaterTicks) {
  // Records pushed ahead of the tick watermark are parked, not lost, and
  // must not reach the state before their timestamp.
  ServiceConfig config;
  DispatchService service(
      *world_->city, *world_->index,
      std::make_unique<dispatch::GreedyNearestDispatcher>(*world_->city),
      config);

  mobility::GpsRecord early;
  early.person = 1;
  early.t = 100.0;
  early.pos = world_->city->network.landmark(0).pos;
  mobility::GpsRecord late = early;
  late.person = 2;
  late.t = 500.0;
  service.Ingest(early);
  service.Ingest(late);

  service.AdvanceStateTo(300.0);
  EXPECT_EQ(service.state().counters().applied, 1u);
  EXPECT_EQ(service.metrics().deferred, 1u);

  service.AdvanceStateTo(600.0);
  EXPECT_EQ(service.state().counters().applied, 2u);
}

TEST_F(DispatchServiceTest, ServedEpisodeExportsValidChromeTrace) {
  // The acceptance criterion: trace a full 288-tick served episode and the
  // export must be structurally valid Chrome trace_event JSON carrying the
  // tick-phase spans.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  RunStreamed(*svm_, agent_);
  recorder.Disable();

  const std::vector<obs::TraceEvent> events = recorder.Collect();
  auto count_name = [&events](const char* name) {
    return std::count_if(events.begin(), events.end(),
                         [name](const obs::TraceEvent& e) {
                           return std::string(e.name) == name;
                         });
  };
  EXPECT_EQ(count_name("serve.tick"), 288);
  EXPECT_EQ(count_name("serve.decide"), 288);
  EXPECT_GE(count_name("serve.drain"), 288);  // +1 final flush
  EXPECT_EQ(count_name("serve.episode"), 1);

  const std::string path =
      std::string(::testing::TempDir()) + "serve_episode_trace.json";
  obs::WriteChromeTraceFile(path, recorder);
  recorder.Clear();

  std::string error;
  EXPECT_TRUE(obs::ValidateChromeTraceFile(path, &error)) << error;
}

}  // namespace
}  // namespace mobirescue::serve
