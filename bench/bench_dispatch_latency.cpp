// Dispatch decision latency microbenchmark (google-benchmark): the paper's
// Section V-C3 claim is that the trained RL model produces guidance in
// < 0.5 s while the integer-programming baselines take ~300 s on their
// hardware. Here we measure the *actual computation* of each method's
// decision function on the same dispatch context (the baselines' modelled
// 300 s is a separate, charged latency — what this bench shows is that the
// RL inference is comfortably sub-second even on one core).
//
// `--json PATH [--smoke]` switches to the machine-readable end-to-end mode:
// one full dispatch round per method plus the SVM distribution pass, each
// sampled per call so the mobirescue-bench-v1 JSON (BENCH_e2e.json) carries
// the tail too — a mean record plus `<op>_p50/_p95/_p99` percentile records
// (util::Summarize). A final section streams a full evaluation day through
// serve::DispatchService and reports the per-tick decide/drain latency
// distribution the served system actually sees. --smoke shrinks the world
// for CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "dispatch/mobirescue_dispatcher.hpp"
#include "dispatch/rescue_dispatcher.hpp"
#include "dispatch/schedule_dispatcher.hpp"
#include "serve/dispatch_service.hpp"
#include "serve/stream_state.hpp"
#include "serve/trace_streamer.hpp"
#include "sim/population_tracker.hpp"
#include "sim/request.hpp"
#include "util/stats.hpp"

using namespace mobirescue;

namespace {

struct LatencyFixture {
  explicit LatencyFixture(bool smoke_mode = false) {
    smoke = smoke_mode;
    num_teams = smoke ? 20 : 100;
    core::WorldConfig config;
    config.city.grid_width = smoke ? 8 : 14;
    config.city.grid_height = smoke ? 8 : 14;
    config.city.num_hospitals = smoke ? 3 : 6;
    config.trace.population.num_people = smoke ? 250 : 700;
    world = std::make_unique<core::World>(core::BuildWorld(config));
    svm = core::TrainSvmPredictor(*world);
    ts = core::BuildTimeSeriesPredictor(*world);
    core::TrainingConfig training;
    training.episodes = smoke ? 1 : 4;
    training.sim.num_teams = num_teams;
    agent = core::TrainAgent(*world, *svm, training);

    const int day = world->eval.spec.eval_day;
    tracker = std::make_unique<sim::PopulationTracker>(
        sim::DaySlice(world->eval.trace.records, day));
    cond = world->eval.flood->NetworkConditionAt(
        world->city->network, (day * 24 + 12) * 3600.0);
    free_cond = roadnet::NetworkCondition(world->city->network.num_segments());

    ctx.now = 12 * 3600.0;
    ctx.condition = &cond;
    ctx.free_condition = &free_cond;
    for (int k = 0; k < num_teams; ++k) {
      sim::TeamView v;
      v.id = k;
      v.at = world->city->hospitals[static_cast<std::size_t>(k) %
                                    world->city->hospitals.size()];
      v.capacity = 5;
      ctx.teams.push_back(v);
    }
    const auto requests = sim::RequestsFromEvents(world->eval.trace.rescues, day);
    int id = 0;
    for (const auto& r : requests) {
      if (id >= (smoke ? 10 : 40)) break;
      ctx.pending.push_back({id++, r.segment, 0.0});
    }
  }

  bool smoke = false;
  int num_teams = 100;
  std::unique_ptr<core::World> world;
  std::unique_ptr<predict::SvmRequestPredictor> svm;
  std::unique_ptr<predict::TimeSeriesPredictor> ts;
  std::shared_ptr<rl::DqnAgent> agent;
  std::unique_ptr<sim::PopulationTracker> tracker;
  roadnet::NetworkCondition cond, free_cond;
  sim::DispatchContext ctx;
};

LatencyFixture& Fixture() {
  static LatencyFixture fixture;
  return fixture;
}

void BM_MobiRescueDecision(benchmark::State& state) {
  LatencyFixture& f = Fixture();
  const int day = f.world->eval.spec.eval_day;
  dispatch::MobiRescueDispatcher dispatcher(
      *f.world->city, *f.svm, *f.tracker, *f.world->index, f.agent,
      day * util::kSecondsPerDay);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatcher.Decide(f.ctx));
  }
}
BENCHMARK(BM_MobiRescueDecision)->Unit(benchmark::kMillisecond);

void BM_ScheduleDecision(benchmark::State& state) {
  LatencyFixture& f = Fixture();
  dispatch::ScheduleDispatcher dispatcher(*f.world->city, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatcher.Decide(f.ctx));
  }
}
BENCHMARK(BM_ScheduleDecision)->Unit(benchmark::kMillisecond);

void BM_RescueDecision(benchmark::State& state) {
  LatencyFixture& f = Fixture();
  dispatch::RescueDispatcher dispatcher(*f.world->city, *f.ts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatcher.Decide(f.ctx));
  }
}
BENCHMARK(BM_RescueDecision)->Unit(benchmark::kMillisecond);

void BM_SvmPredictDistribution(benchmark::State& state) {
  LatencyFixture& f = Fixture();
  const int day = f.world->eval.spec.eval_day;
  const auto& snapshot = f.tracker->Snapshot(12 * 3600.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.svm->PredictDistribution(
        snapshot, 12 * 3600.0, day * util::kSecondsPerDay, *f.world->index));
  }
}
BENCHMARK(BM_SvmPredictDistribution)->Unit(benchmark::kMillisecond);

/// The refresh the service runs: the streamed state holds the evaluation
/// day up to noon; each iteration re-applies one record, as a tick does
/// before its refresh, then predicts from the state's snapshot and its
/// matched segments.
void BM_ServedRefresh(benchmark::State& state) {
  LatencyFixture& f = Fixture();
  const int day = f.world->eval.spec.eval_day;
  const double noon = 12 * 3600.0;
  mobility::GpsTrace records = sim::DaySlice(f.world->eval.trace.records, day);
  std::stable_sort(records.begin(), records.end(),
                   [](const mobility::GpsRecord& a,
                      const mobility::GpsRecord& b) { return a.t < b.t; });
  serve::StreamState stream(f.world->city->network, *f.world->index);
  std::size_t applied = 0;
  while (applied < records.size() && records[applied].t <= noon) {
    stream.Apply(records[applied++]);
  }
  if (applied == 0) {
    state.SkipWithError("no record before noon");
    return;
  }
  // The last record applied is its person's latest: re-applying it is an
  // equal-time overwrite.
  const mobility::GpsRecord again = records[applied - 1];
  for (auto _ : state) {
    stream.Apply(again);
    const std::vector<mobility::GpsRecord>& snapshot = stream.Snapshot(noon);
    benchmark::DoNotOptimize(f.svm->PredictDistribution(
        snapshot, noon, day * util::kSecondsPerDay, *f.world->index,
        stream.SnapshotSegments()));
  }
  state.counters["people"] = static_cast<double>(stream.num_people_seen());
}
BENCHMARK(BM_ServedRefresh)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// --json mode: end-to-end dispatch-round timings as mobirescue-bench-v1.

/// Emits a mean record plus `<op>_p50/_p95/_p99` percentile records from a
/// summary of per-call samples. `to_ns` converts the summary's unit to ns.
void PushSummary(std::vector<bench::BenchRecord>* records,
                 const std::string& op, const std::string& size,
                 const util::PercentileSummary& s, double to_ns) {
  if (s.count == 0) return;
  const auto n = static_cast<std::int64_t>(s.count);
  records->push_back({op, size, s.mean * to_ns, n, 0.0});
  records->push_back({op + "_p50", size, s.p50 * to_ns, n, 0.0});
  records->push_back({op + "_p95", size, s.p95 * to_ns, n, 0.0});
  records->push_back({op + "_p99", size, s.p99 * to_ns, n, 0.0});
  std::printf("%-28s %12.1f us/op  p50 %10.1f  p95 %10.1f  p99 %10.1f\n",
              op.c_str(), s.mean * to_ns / 1e3, s.p50 * to_ns / 1e3,
              s.p95 * to_ns / 1e3, s.p99 * to_ns / 1e3);
}

int RunJsonMode(const std::string& path, bool smoke) {
  const double min_time_s = smoke ? 0.05 : 0.5;
  LatencyFixture f(smoke);
  const int day = f.world->eval.spec.eval_day;
  const std::string size = "teams=" + std::to_string(f.ctx.teams.size()) +
                           ",pending=" + std::to_string(f.ctx.pending.size());
  std::vector<bench::BenchRecord> records;
  // Per-call sampling (one warm-up call, then every call timed until
  // min_time_s is covered) so percentiles are available, not just the mean.
  auto time_op = [&](const std::string& op, const std::function<void()>& fn) {
    fn();
    std::vector<double> ns;
    using clock = std::chrono::steady_clock;
    const clock::time_point deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(min_time_s));
    do {
      const clock::time_point t0 = clock::now();
      fn();
      ns.push_back(std::chrono::duration<double, std::nano>(clock::now() - t0)
                       .count());
    } while (clock::now() < deadline);
    PushSummary(&records, op, size, util::Summarize(ns), 1.0);
  };

  {
    dispatch::MobiRescueDispatcher dispatcher(
        *f.world->city, *f.svm, *f.tracker, *f.world->index, f.agent,
        day * util::kSecondsPerDay);
    time_op("dispatch_round_mobirescue",
            [&] { benchmark::DoNotOptimize(dispatcher.Decide(f.ctx)); });
  }
  {
    dispatch::ScheduleDispatcher dispatcher(*f.world->city, f.num_teams);
    time_op("dispatch_round_schedule",
            [&] { benchmark::DoNotOptimize(dispatcher.Decide(f.ctx)); });
  }
  {
    dispatch::RescueDispatcher dispatcher(*f.world->city, *f.ts);
    time_op("dispatch_round_rescue",
            [&] { benchmark::DoNotOptimize(dispatcher.Decide(f.ctx)); });
  }
  {
    const auto& snapshot = f.tracker->Snapshot(12 * 3600.0);
    time_op("svm_predict_distribution", [&] {
      benchmark::DoNotOptimize(f.svm->PredictDistribution(
          snapshot, 12 * 3600.0, day * util::kSecondsPerDay,
          *f.world->index));
    });
  }

  // Online serving: stream the evaluation day's GPS through the sharded
  // ingestion path while 5-min ticks fire, then report the per-tick
  // latency distribution from ServiceMetrics (already in ms).
  {
    serve::ServiceConfig service_config;
    service_config.queue.shard_capacity = 1 << 15;
    serve::DispatchService service(*f.world->city, *f.world->index, *f.svm,
                                   f.agent, day * util::kSecondsPerDay,
                                   service_config);
    sim::SimConfig sim_config;
    sim_config.num_teams = f.num_teams;
    sim::RescueSimulator simulator(
        *f.world->city, *f.world->eval.flood,
        sim::RequestsFromEvents(f.world->eval.trace.rescues, day),
        day * util::kSecondsPerDay, sim_config);
    serve::TraceStreamer streamer(
        sim::DaySlice(f.world->eval.trace.records, day), service);
    service.ServeEpisode(simulator, &streamer);
    const serve::ServiceMetrics m = service.metrics();
    const std::string serve_size =
        "ticks=" + std::to_string(m.ticks) +
        ",records=" + std::to_string(m.ingest.accepted) +
        ",teams=" + std::to_string(f.num_teams);
    PushSummary(&records, "serve_tick_decide", serve_size, m.decide_ms, 1e6);
    PushSummary(&records, "serve_tick_drain", serve_size, m.drain_ms, 1e6);
  }

  bench::WriteBenchJsonFile(path, smoke ? "e2e-smoke" : "e2e", records);
  std::string error;
  if (!bench::ValidateBenchJsonFile(path, &error)) {
    std::fprintf(stderr, "%s failed validation: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records, schema valid)\n", path.c_str(),
              records.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (!json_path.empty()) return RunJsonMode(json_path, smoke);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
