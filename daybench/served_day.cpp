// served_day: one run of the served-day benchmark.
//
//   served_day --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Builds the workload's world, trains the SVM and the DQN, and
// saves a checkpoint; then boots fresh DispatchServices from it and serves
// the evaluation day through each, tick by tick, for S seconds (at least
// kMinDays days). With --trace 1 the run serves half its time untraced and
// half traced (see traced_day.cpp). Human-readable lines go to stdout; the
// last line is `DAYBENCH-RESULT {json}` with every metric, check and count,
// which run.py turns into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "core/pipeline.hpp"
#include "day.hpp"
#include "serve/checkpoint.hpp"
#include "serve/trace_streamer.hpp"
#include "sim/population_tracker.hpp"
#include "util/stats.hpp"

namespace daybench {

namespace {

/// Medians over at least five days, and >= 1,400 pooled ticks so the p99
/// has more than ten samples beyond it.
constexpr int kMinDays = 5;
/// A traced run splits its time between untraced and traced days.
constexpr int kMinDaysPerHalf = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--out") {
      args.out = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

double Median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : mr::util::Percentile(std::move(xs), 50.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Ticks between two calibration-kernel runs inside a served day.
constexpr int kSegmentTicks = 24;
/// The calibration kernel's time on the reference host (4-core Xeon VM,
/// RelWithDebInfo, in its fast state). End-to-end times are reported at
/// that host speed.
constexpr double kReferenceKernelMs = 4.0;

/// The calibration kernel's time at one segment boundary: the faster of
/// two runs, so a single preemption does not mis-scale a whole segment.
double KernelMs() { return std::min(CalibrationMs(), CalibrationMs()); }

/// One untraced served day: the loop DispatchService::ServeEpisode runs,
/// driven from here so each Tick can be timed. Every kSegmentTicks rounds
/// (and before the boot) the calibration kernel runs once, outside every
/// stopwatch; a segment's times are scaled to the reference host speed by
/// the mean of the kernel times at its two ends.
DayRecord ServeDay(const DayInputs& in) {
  DayRecord record;
  mr::sim::RescueSimulator simulator(*in.world->city, *in.world->eval.flood,
                                     in.requests, in.day_offset_s,
                                     in.workload->sim);
  double kernel_before = KernelMs();
  Boot boot = BootService(in);
  record.load_ms = boot.load_ms;
  record.restore_ms = boot.restore_ms;
  mr::serve::DispatchService& service = *boot.service;
  mr::serve::TraceStreamer streamer(
      in.trace, service, {kProducers, in.workload->delivery_lead_s});

  std::vector<double> factors;  // one per segment
  std::size_t segment_first_tick = 0;
  double wall_ms = 0.0;
  double scaled_wall_ms = 0.0;
  auto segment0 = Clock::now();
  auto close_segment = [&] {
    const double segment_ms = Ms(segment0, Clock::now());
    const double kernel_after = KernelMs();
    record.kernel_ms.push_back(kernel_after);
    const double f = 2.0 * kReferenceKernelMs / (kernel_before + kernel_after);
    factors.push_back(f);
    for (std::size_t i = segment_first_tick; i < record.tick_ms.size(); ++i) {
      record.scaled_tick_ms.push_back(record.tick_ms[i] * f);
    }
    segment_first_tick = record.tick_ms.size();
    wall_ms += segment_ms;
    scaled_wall_ms += segment_ms * f;
    kernel_before = kernel_after;
    segment0 = Clock::now();
  };

  mr::sim::DispatchContext ctx;
  while (simulator.NextRound(service.dispatcher(), &ctx)) {
    streamer.WaitDelivered(ctx.now);
    const auto t0 = Clock::now();
    mr::sim::DispatchDecision decision = service.Tick(ctx);
    record.tick_ms.push_back(Ms(t0, Clock::now()));
    simulator.SubmitDecision(std::move(decision));
    if (record.tick_ms.size() % kSegmentTicks == 0) close_segment();
  }
  streamer.WaitDelivered(simulator.now());
  service.AdvanceStateTo(simulator.now());
  close_segment();
  record.wall_s = wall_ms / 1000.0;
  record.scaled_wall_s = scaled_wall_ms / 1000.0;
  record.setup_s = (boot.load_ms + boot.restore_ms + boot.construct_ms +
                    (record.tick_ms.empty() ? 0.0 : record.tick_ms.front())) /
                   1000.0;
  record.scaled_setup_s = record.setup_s * factors.front();
  FinishDay(in, simulator.metrics(), service, &record);
  record.scaled_decision_p50_ms = record.decision_p50_ms * Median(factors);
  return record;
}

std::vector<DayRecord> ServeDays(const DayInputs& in, double seconds,
                                 int min_days) {
  std::vector<DayRecord> days;
  const auto start = Clock::now();
  while (static_cast<int>(days.size()) < min_days ||
         Ms(start, Clock::now()) < seconds * 1000.0) {
    days.push_back(ServeDay(in));
  }
  return days;
}

/// The run's serving times: boot and day wall as medians over days, tick
/// percentiles pooled over every tick after each boot's first, the
/// decision p50 as the median of the per-day p50s; unscaled, or at the
/// reference host speed.
LayerMetrics ServingTimes(const std::vector<DayRecord>& days, bool scaled) {
  std::vector<double> setup, wall, decision, ticks;
  for (const DayRecord& d : days) {
    setup.push_back(scaled ? d.scaled_setup_s : d.setup_s);
    wall.push_back(scaled ? d.scaled_wall_s : d.wall_s);
    decision.push_back(scaled ? d.scaled_decision_p50_ms : d.decision_p50_ms);
    // The first tick is the boot's (setup_s), on a cold service.
    const std::vector<double>& t = scaled ? d.scaled_tick_ms : d.tick_ms;
    ticks.insert(ticks.end(), t.begin() + 1, t.end());
  }
  const mr::util::PercentileSummary tick = mr::util::Summarize(ticks);
  return {{"setup_s", Median(setup)},
          {"day_wall_s", Median(wall)},
          {"tick_p50_ms", tick.p50},
          {"tick_p99_ms", tick.p99},
          {"decision_p50_ms", Median(decision)}};
}

/// Raw per-day numbers of the run, for offline analysis of its spread.
void WriteDays(const std::vector<DayRecord>& days, double train_s,
               const std::string& path) {
  std::ofstream out(path);
  out << "{\"train_s\":" << train_s << ",\"days\":[";
  for (std::size_t i = 0; i < days.size(); ++i) {
    const DayRecord& d = days[i];
    out << (i ? ",\n" : "\n") << "{\"kernel_ms\":[";
    for (std::size_t k = 0; k < d.kernel_ms.size(); ++k) {
      out << (k ? "," : "") << d.kernel_ms[k];
    }
    out << "],\"wall_s\":" << d.wall_s << ",\"setup_s\":" << d.setup_s
        << ",\"decision_p50_ms\":" << d.decision_p50_ms << ",\"tick_ms\":[";
    for (std::size_t t = 0; t < d.tick_ms.size(); ++t) {
      out << (t ? "," : "") << d.tick_ms[t];
    }
    out << "]}";
  }
  out << "\n]}\n";
}

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMap(const LayerMetrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += Json(k) + ":" + Num(v);
  }
  return out + "}";
}

int Run(const Args& args) {
  Workload workload = MakeWorkload(args.workload, args.seed);
  std::printf("workload %s seed %llu: %d teams, %d training episodes%s, "
              "GPS records delivered up to %.0f s early\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              workload.sim.num_teams, workload.training.episodes,
              workload.learning() ? ", online learning on" : "",
              workload.delivery_lead_s);
  std::fflush(stdout);

  LayerMetrics layers;
  auto t0 = Clock::now();
  const mr::core::World world = mr::core::BuildWorld(workload.world);
  layers["world.build_s"] = Ms(t0, Clock::now()) / 1000.0;

  t0 = Clock::now();
  const auto svm = mr::core::TrainSvmPredictor(world);
  const auto t1 = Clock::now();
  const auto agent = mr::core::TrainAgent(world, *svm, workload.training);
  const auto t2 = Clock::now();
  DayInputs in;
  in.checkpoint_path = args.out + "/" + workload.name + "-ckpt.txt";
  mr::serve::SaveCheckpointToFile(mr::serve::MakeCheckpoint(*agent, *svm),
                                  in.checkpoint_path);
  const auto t3 = Clock::now();
  layers["train.svm_s"] = Ms(t0, t1) / 1000.0;
  layers["train.dqn_s"] = Ms(t1, t2) / 1000.0;
  const double train_s = Ms(t0, t3) / 1000.0;
  layers["train_s"] = train_s;

  const int day = world.eval.spec.eval_day;
  in.workload = &workload;
  in.world = &world;
  in.day_offset_s = day * mr::util::kSecondsPerDay;
  in.requests = mr::sim::RequestsFromEvents(world.eval.trace.rescues, day);
  in.trace = mr::sim::DaySlice(world.eval.trace.records, day);
  if (workload.learning()) {
    workload.service.checkpoint_path = in.checkpoint_path + ".periodic";
  }
  std::printf("world %.2f s, train %.2f s; day %d: %zu requests, %zu GPS "
              "records\n",
              layers["world.build_s"], train_s, day, in.requests.size(),
              in.trace.size());
  std::fflush(stdout);

  std::vector<Check> checks;
  // The frozen policy's streamed day must equal the batch replay of the
  // models it serves. Those are the restored ones: the trained predictor
  // samples the training storm's factors, the restored one the evaluation
  // storm's (RestorePredictor), so only the restored pair is comparable.
  mr::core::EvaluationOutcome batch;
  if (!workload.learning()) {
    const Boot models = BootService(in);
    batch = mr::core::RunMethod(world, mr::core::Method::kMobiRescue,
                                models.svm.get(), nullptr, models.agent,
                                workload.sim);
  }

  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<DayRecord> days =
      ServeDays(in, untraced_s, args.trace ? kMinDaysPerHalf : kMinDays);
  WriteDays(days, train_s,
            args.out + "/" + workload.name + "-s" + std::to_string(args.seed) +
                "-days.json");
  std::vector<DayRecord> traced;
  if (args.trace) {
    ServeTracedDays(in, args.seconds / 2.0,
                    args.out + "/" + workload.name + "-s" +
                        std::to_string(args.seed),
                    &traced, &layers);
  }

  // --- Correctness --------------------------------------------------------
  const DayOutcome& first = days.front().outcome;
  std::size_t differing = 0;
  for (const std::vector<DayRecord>* set : {&days, &traced}) {
    for (const DayRecord& d : *set) differing += d.outcome == first ? 0 : 1;
  }
  checks.push_back({"days_identical", differing == 0,
                    std::to_string(differing) + " days differ from day 1"});
  if (!workload.learning()) {
    const bool same = first.served == batch.metrics.total_served() &&
                      first.timely == batch.metrics.total_timely();
    checks.push_back(
        {"batch_replay", same,
         "streamed " + std::to_string(first.served) + "/" +
             std::to_string(first.timely) + " vs batch " +
             std::to_string(batch.metrics.total_served()) + "/" +
             std::to_string(batch.metrics.total_timely())});
  } else {
    checks.push_back({"learner_trained", first.train_steps > 0,
                      std::to_string(first.train_steps) + " train steps, " +
                          std::to_string(first.promotions) + " promotions"});
  }
  checks.push_back({"served_nonzero", first.served > 0,
                    std::to_string(first.served) + " served"});

  std::uint64_t ticks = 0, failed_ticks = 0, records = 0, failed_records = 0;
  for (const std::vector<DayRecord>* set : {&days, &traced}) {
    for (const DayRecord& d : *set) {
      ticks += d.ticks;
      failed_ticks += d.failed_ticks;
      records += d.records_offered;
      failed_records += d.failed_records;
    }
  }
  checks.push_back({"zero_fallback_ticks", failed_ticks == 0,
                    std::to_string(failed_ticks) + " of " +
                        std::to_string(ticks) + " ticks"});
  checks.push_back({"zero_dropped_records", failed_records == 0,
                    std::to_string(failed_records) + " of " +
                        std::to_string(records) + " records"});
  if (args.trace) {
    checks.push_back({"trace_replay_matches",
                      layers["trace.replay_mismatch_ticks"] == 0.0,
                      Num(layers["trace.replay_mismatch_ticks"]) +
                          " mismatched ticks"});
    checks.push_back({"trace_predict_matches",
                      layers["trace.predict_mismatch"] == 0.0,
                      Num(layers["trace.predict_mismatch"]) +
                          " mismatched refreshes"});
    checks.push_back({"trace_no_dropped_spans",
                      layers["trace.dropped_spans"] == 0.0,
                      Num(layers["trace.dropped_spans"]) + " dropped"});
  }

  // --- Metrics ------------------------------------------------------------
  // This shared host alternates between speed states 1.3-1.8x apart that
  // last from seconds to minutes, longer than a run. The end-to-end times
  // are therefore read at the reference host speed, segment by segment of
  // each day (ServeDay). The unscaled numbers are printed and kept in the
  // run record.
  std::vector<double> load, restore, kernel;
  for (const DayRecord& d : days) {
    load.push_back(d.load_ms);
    restore.push_back(d.restore_ms);
    kernel.insert(kernel.end(), d.kernel_ms.begin(), d.kernel_ms.end());
  }
  const LayerMetrics raw = ServingTimes(days, false);
  LayerMetrics e2e = ServingTimes(days, true);
  layers["host.kernel_ms_med"] = Median(kernel);
  layers["host.speed_factor"] = kReferenceKernelMs / Median(kernel);
  e2e["train_s"] = train_s;
  e2e["served_requests"] = first.served;
  e2e["timely_requests"] = first.timely;
  e2e["driving_delay_mean_s"] = first.driving_delay_mean_s;
  e2e["serving_teams_mean"] = first.serving_teams_mean;
  e2e["rss_peak_mb"] = PeakRssMb();

  layers["ckpt.load_ms"] = Median(load);
  layers["ckpt.restore_ms"] = Median(restore);
  if (args.trace) {
    const double traced_p50 =
        ServingTimes(traced, false).at("tick_p50_ms");
    const double untraced_p50 = raw.at("tick_p50_ms");
    layers["trace.overhead_pct"] =
        100.0 * (traced_p50 - untraced_p50) / untraced_p50;
  }

  std::printf("served %zu untraced day(s)%s: %llu ticks, %llu records "
              "offered\n",
              days.size(),
              args.trace
                  ? (" + " + std::to_string(traced.size()) + " traced").c_str()
                  : "",
              static_cast<unsigned long long>(ticks),
              static_cast<unsigned long long>(records));
  std::printf("failed operations: ticks %llu/%llu (%.4f%%), records "
              "%llu/%llu (%.4f%%)\n",
              static_cast<unsigned long long>(failed_ticks),
              static_cast<unsigned long long>(ticks),
              ticks ? 100.0 * failed_ticks / ticks : 0.0,
              static_cast<unsigned long long>(failed_records),
              static_cast<unsigned long long>(records),
              records ? 100.0 * failed_records / records : 0.0);
  std::printf("host: calibration kernel median %.3f ms (reference %.1f ms); "
              "end-to-end times are at reference speed, unscaled:",
              layers["host.kernel_ms_med"], kReferenceKernelMs);
  for (const auto& [name, value] : raw) {
    std::printf(" %s=%.6g", name.c_str(), value);
  }
  std::printf("\n");
  std::printf("paper anchor: tick p99 %.3f ms (unscaled) against the paper's "
              "500 ms RL decision bound (its IP baselines take ~300 s)\n",
              raw.at("tick_p99_ms"));
  bool ok = true;
  for (const Check& c : checks) {
    std::printf("check %-24s %s  (%s)\n", c.name.c_str(),
                c.ok ? "ok  " : "FAIL", c.detail.c_str());
    ok = ok && c.ok;
  }

  std::string checks_json = "[";
  for (const Check& c : checks) {
    if (checks_json.size() > 1) checks_json += ",";
    checks_json += "{\"name\":" + Json(c.name) +
                   ",\"ok\":" + (c.ok ? "true" : "false") +
                   ",\"detail\":" + Json(c.detail) + "}";
  }
  checks_json += "]";
  std::printf(
      "DAYBENCH-RESULT {\"ticks\":%llu,\"failed_ticks\":%llu,"
      "\"records\":%llu,\"failed_records\":%llu,\"checks\":%s,"
      "\"end_to_end\":%s,\"per_layer\":%s}\n",
      static_cast<unsigned long long>(ticks),
      static_cast<unsigned long long>(failed_ticks),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(failed_records), checks_json.c_str(),
      JsonMap(e2e).c_str(), JsonMap(layers).c_str());
  return ok ? 0 : 1;
}

}  // namespace

Boot BootService(const DayInputs& in) {
  Boot boot;
  const auto t0 = Clock::now();
  const mr::serve::ServiceCheckpoint ckpt =
      mr::serve::LoadCheckpointFromFile(in.checkpoint_path);
  const auto t1 = Clock::now();
  boot.agent = mr::serve::RestoreAgent(ckpt);
  boot.svm = mr::serve::RestorePredictor(ckpt, *in.world->eval.factors);
  const auto t2 = Clock::now();
  boot.service = std::make_unique<mr::serve::DispatchService>(
      *in.world->city, *in.world->index, *boot.svm, boot.agent,
      in.day_offset_s, in.workload->service);
  const auto t3 = Clock::now();
  boot.load_ms = Ms(t0, t1);
  boot.restore_ms = Ms(t1, t2);
  boot.construct_ms = Ms(t2, t3);
  return boot;
}

DayOutcome OutcomeOf(const mr::sim::MetricsCollector& metrics,
                     const mr::serve::ServiceMetrics& service) {
  DayOutcome o;
  o.served = metrics.total_served();
  o.timely = metrics.total_timely();
  const std::vector<double>& delays = metrics.delay_samples();
  double sum = 0.0;
  for (const double d : delays) sum += d;
  o.driving_delay_mean_s = delays.empty() ? 0.0 : sum / delays.size();
  const std::vector<double> serving = metrics.ServingTeamsPerHour();
  sum = 0.0;
  for (const double s : serving) sum += s;
  o.serving_teams_mean = serving.empty() ? 0.0 : sum / serving.size();
  if (service.learning) {
    o.train_steps = service.learn.train_steps;
    o.promotions = service.learn.promotions;
    o.transitions = service.learn.transitions;
    o.shadow_rounds = service.learn.shadow_rounds;
  }
  return o;
}

void FinishDay(const DayInputs& in, const mr::sim::MetricsCollector& metrics,
               const mr::serve::DispatchService& service, DayRecord* record) {
  const mr::serve::ServiceMetrics m = service.metrics();
  record->outcome = OutcomeOf(metrics, m);
  record->decision_p50_ms = m.decision_ms.p50;
  record->ticks = m.ticks;
  // A decide error is always served by the fallback, so fallback ticks
  // count every failed tick once.
  record->failed_ticks = m.fallback_ticks;
  record->records_offered = in.trace.size();
  record->failed_records = m.ingest.dropped + m.state.quarantined();
}

}  // namespace daybench

int main(int argc, char** argv) {
  try {
    return daybench::Run(daybench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "served_day: " << e.what() << "\n";
    return 2;
  }
}
