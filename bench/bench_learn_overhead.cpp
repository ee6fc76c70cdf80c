// Online-learning overhead gate (DESIGN.md §15): the tick's product is the
// dispatch decision, and the continual-learning subsystem must not slow it
// down. Inside DispatchService::Tick the decision path (drain + decide)
// runs first; Decide builds and keeps the round's RoundCapture in both
// modes, frozen serving included. The learner — collector, candidate
// training, shadow scoring, promotion gate — runs strictly after the
// decision exists, so its cost delays the tick's return but never the
// decision. This bench serves the same streamed day through
//
//   frozen     the plain frozen-policy service (learning disabled)
//   learning   config.learn.enabled with production-default budgets
//
// and FAILS (exit 1) when the learning service's p99 decision latency
// (the service's own per-tick drain+decide series) exceeds the frozen
// service's by more than 5%. The post-decision learner cost and the full
// tick wall time are reported alongside — visible, not gated: a gradient
// step or a TD-gate evaluation is orders of magnitude above 5% of a
// ~1 ms decide, which is exactly why it is kept off the decision path.
// Runs alternate frozen/learning rep by rep and the gate takes the MEDIAN
// of the per-rep overhead ratios — one rep skewed by a scheduler hiccup or
// a sibling ctest process cannot flip the gate, so it holds under a
// parallel `ctest -j` schedule without RUN_SERIAL.
// `--json PATH [--smoke]` writes mobirescue-bench-v1 JSON; the overhead
// percentage rides in the `size` field of every record.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/pipeline.hpp"
#include "core/world.hpp"
#include "serve/dispatch_service.hpp"
#include "serve/trace_streamer.hpp"
#include "sim/request.hpp"

using namespace mobirescue;

namespace {

struct TickStats {
  double decision_p50_ms = 0.0;
  double decision_p99_ms = 0.0;
  double tick_p99_ms = 0.0;   // full Tick() incl. post-decision learner
  double learn_p99_ms = 0.0;  // learner portion alone (0 when frozen)
  std::size_t ticks = 0;
};

double Percentile(std::vector<double> sorted_ms, double q) {
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const std::size_t n = sorted_ms.size();
  if (n == 0) return 0.0;
  const std::size_t idx = std::min(
      n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
  return sorted_ms[idx];
}

/// One full streamed day through the service — exactly ServeEpisode's
/// loop, with an external stopwatch around Tick for the full-tick series;
/// the decision-path series comes from the service's own phase timers.
TickStats ServeTimedDay(const core::World& world,
                        const predict::SvmRequestPredictor& svm,
                        const std::shared_ptr<rl::DqnAgent>& agent,
                        const learn::LearnConfig& learn_cfg) {
  const int day = world.eval.spec.eval_day;
  const double offset = day * util::kSecondsPerDay;
  sim::SimConfig sim_cfg;
  sim_cfg.num_teams = 20;

  serve::ServiceConfig config;
  config.queue.shard_capacity = 1 << 15;
  config.learn = learn_cfg;
  serve::DispatchService service(*world.city, *world.index, svm, agent,
                                 offset, config);
  sim::RescueSimulator simulator(
      *world.city, *world.eval.flood,
      sim::RequestsFromEvents(world.eval.trace.rescues, day), offset, sim_cfg);
  serve::TraceStreamer streamer(sim::DaySlice(world.eval.trace.records, day),
                                service);

  std::vector<double> tick_ms;
  sim::DispatchContext ctx;
  while (simulator.NextRound(service.dispatcher(), &ctx)) {
    streamer.WaitDelivered(ctx.now);
    const auto t0 = std::chrono::steady_clock::now();
    sim::DispatchDecision decision = service.Tick(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    tick_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    simulator.SubmitDecision(std::move(decision));
  }

  const serve::ServiceMetrics m = service.metrics();
  TickStats stats;
  stats.ticks = tick_ms.size();
  stats.decision_p50_ms = m.decision_ms.p50;
  stats.decision_p99_ms = m.decision_ms.p99;
  stats.tick_p99_ms = Percentile(tick_ms, 0.99);
  stats.learn_p99_ms = m.learning ? m.learn_ms.p99 : 0.0;
  return stats;
}

/// Promotions hot-swap weights into the live agent, so every learning rep
/// starts from its own copy of the trained policy.
std::shared_ptr<rl::DqnAgent> CloneAgent(const rl::DqnAgent& trained) {
  auto clone = std::make_shared<rl::DqnAgent>(trained.config());
  clone->LoadWeights(trained.SaveWeights());
  clone->LoadTargetWeights(trained.SaveTargetWeights());
  return clone;
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
  const int reps = smoke ? 2 : 3;

  const core::World world = core::BuildWorld(core::WorldConfig::Small());
  const auto svm = core::TrainSvmPredictor(world);
  core::TrainingConfig training;
  // Policy quality is irrelevant to tick latency; smoke mode trains just
  // enough to have a real network to serve with.
  training.episodes = smoke ? 1 : 6;
  training.sim.num_teams = 20;
  const std::shared_ptr<rl::DqnAgent> trained =
      core::TrainAgent(world, *svm, training);

  learn::LearnConfig frozen_cfg;  // enabled = false
  learn::LearnConfig learning_cfg;
  learning_cfg.enabled = true;  // everything else: production defaults

  // Alternate the variants so both see the same thermal/clock conditions.
  // Each rep yields one paired overhead ratio; the gate uses the median
  // rep (lower middle for even rep counts — still discards the worst).
  struct Rep {
    TickStats frozen, learning;
    double overhead_pct = 0.0;
  };
  std::vector<Rep> paired;
  for (int rep = 0; rep < reps; ++rep) {
    Rep r;
    r.frozen = ServeTimedDay(world, *svm, CloneAgent(*trained), frozen_cfg);
    r.learning =
        ServeTimedDay(world, *svm, CloneAgent(*trained), learning_cfg);
    r.overhead_pct =
        (r.learning.decision_p99_ms - r.frozen.decision_p99_ms) /
        r.frozen.decision_p99_ms * 100.0;
    paired.push_back(r);
  }
  std::sort(paired.begin(), paired.end(), [](const Rep& a, const Rep& b) {
    return a.overhead_pct < b.overhead_pct;
  });
  const Rep& median = paired[(paired.size() - 1) / 2];
  const TickStats frozen = median.frozen;
  const TickStats learning = median.learning;
  const double overhead_pct = median.overhead_pct;

  char dims[96];
  std::snprintf(dims, sizeof(dims),
                "ticks=%zu,teams=20,p99_overhead_pct=%.2f", frozen.ticks,
                overhead_pct);
  std::vector<bench::BenchRecord> records;
  records.push_back({"decision_frozen", dims, frozen.decision_p99_ms * 1e6,
                     static_cast<std::int64_t>(frozen.ticks), 0.0});
  records.push_back({"decision_learning", dims,
                     learning.decision_p99_ms * 1e6,
                     static_cast<std::int64_t>(learning.ticks), 0.0});
  records.push_back({"tick_learning", dims, learning.tick_p99_ms * 1e6,
                     static_cast<std::int64_t>(learning.ticks), 0.0});
  records.push_back({"learn_only", dims, learning.learn_p99_ms * 1e6,
                     static_cast<std::int64_t>(learning.ticks), 0.0});

  std::printf("%-18s %16s %16s %12s\n", "op", "decision_p50_ms",
              "decision_p99_ms", "ticks");
  std::printf("%-18s %16.3f %16.3f %12zu\n", "frozen", frozen.decision_p50_ms,
              frozen.decision_p99_ms, frozen.ticks);
  std::printf("%-18s %16.3f %16.3f %12zu\n", "learning",
              learning.decision_p50_ms, learning.decision_p99_ms,
              learning.ticks);
  std::printf("post-decision learner p99: %.3f ms; full tick p99: %.3f ms\n",
              learning.learn_p99_ms, learning.tick_p99_ms);
  std::printf("learning p99 decision-latency overhead: %.2f%% (budget 5%%)\n",
              overhead_pct);

  if (!json_path.empty()) {
    bench::WriteBenchJsonFile(
        json_path, smoke ? "learn-overhead-smoke" : "learn-overhead", records);
    std::string error;
    if (!bench::ValidateBenchJsonFile(json_path, &error)) {
      std::fprintf(stderr, "bench JSON failed validation: %s\n",
                   error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: online learning makes the p99 decision latency "
                 "%.2f%% slower than frozen-policy serving (budget 5%%)\n",
                 overhead_pct);
    return 1;
  }
  return 0;
}
