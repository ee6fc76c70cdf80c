// The traced half of a --trace 1 run: serves whole days with every layer
// boundary timed from outside the program.
//
// Per tick, after the producers delivered the records up to the tick's
// time, the benchmark drains the queues itself (AdvanceStateTo, so Tick's
// own drain is empty), then rebuilds the MobiRescue decide pipeline from
// public calls — predict refresh (PredictDistribution on the exported
// state), round prep (PrepareRound on a benchmark-owned featurizer, whose
// router cache sees the same input sequence as the dispatcher's),
// featurisation, the batched Q pass and the margin assignment — and only
// then calls Tick. The rebuild runs before Tick because on learn-day the
// learner may hot-swap the live weights inside Tick, after the decision.
// The rebuilt actions must equal Tick's, and a refreshed distribution
// must equal the service's.
//
// Spans (name, start, end, parent, tick) are kept in memory and written
// to `<out_prefix>-spans.json` at the end; the program's own OBS_SPANs
// (serve.tick, svm.decision_values, router.tree_build, sim.*) are captured
// by obs::TraceRecorder and written to `<out_prefix>-obs-trace.json`.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "day.hpp"
#include "dispatch/featurizer.hpp"
#include "dispatch/mobirescue_dispatcher.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "opt/hungarian.hpp"
#include "serve/checkpoint.hpp"
#include "serve/trace_streamer.hpp"
#include "util/stats.hpp"

namespace daybench {

namespace {

/// The service checkpoints learn-day at this cadence; the traced run times
/// a Checkpoint() + in-memory save at the same cadence on every workload.
constexpr std::uint64_t kCheckpointEvery = 16;

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::uint64_t tick;
  };

  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int Open(const char* name, int parent, std::uint64_t tick) {
    spans_.push_back({name, Now(), -1, parent, tick});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = Now(); }

  const std::vector<Span>& spans() const { return spans_; }

  static double DurMs(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name, int parent, std::uint64_t tick)
      : log_(log), id_(log.Open(name, parent, tick)) {}
  ~Scope() { log_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Work counts of the rebuilt decide pipeline, summed over traced ticks.
struct StageCounts {
  std::uint64_t refreshes = 0;
  std::uint64_t people_scored = 0;
  std::uint64_t segments_predicted = 0;
  std::uint64_t preps = 0;
  std::uint64_t candidates = 0;
  std::uint64_t passes = 0;
  std::uint64_t rows_scored = 0;
  std::uint64_t assigns = 0;
  double assign_rows = 0.0;
  double assign_cols = 0.0;
  double work_padded = 0.0;
  double work_rect = 0.0;
};

/// The benchmark's own copy of the dispatcher's cross-tick state.
struct ReplayState {
  const mr::dispatch::MobiRescueConfig config;
  mr::dispatch::DispatchFeaturizer featurizer;
  mr::predict::Distribution cached;
  double cached_at = -1.0e18;
};

/// MobiRescueDispatcher::Decide in evaluation mode, rebuilt from public
/// calls with each stage in its own span. Returns the actions; sets
/// `refreshed` when the prediction was refreshed this tick.
std::vector<mr::sim::TeamAction> ReplayDecide(
    const mr::sim::DispatchContext& ctx, const DayInputs& in,
    const Boot& boot, ReplayState& st, SpanLog& log, int parent,
    std::uint64_t tick, StageCounts& counts, bool* refreshed) {
  namespace dsp = mr::dispatch;
  using mr::roadnet::SegmentId;
  *refreshed = false;
  if (ctx.now - st.cached_at >= st.config.prediction_refresh_s) {
    const std::vector<mr::mobility::GpsRecord> snapshot =
        boot.service->state().ExportLatest();
    {
      Scope s(log, "predict.refresh", parent, tick);
      st.cached = boot.svm->PredictDistribution(
          snapshot, ctx.now, in.day_offset_s, *in.world->index);
    }
    st.cached_at = ctx.now;
    *refreshed = true;
    ++counts.refreshes;
    counts.people_scored += snapshot.size();
    counts.segments_predicted += st.cached.size();
  }
  mr::predict::Distribution demand = st.cached;
  std::vector<SegmentId> pending_segments;
  std::unordered_set<SegmentId> pending_now;
  for (const mr::sim::RequestView& r : ctx.pending) {
    demand[r.segment] += 4;
    pending_segments.push_back(r.segment);
    pending_now.insert(r.segment);
  }
  dsp::RoundData round;
  {
    Scope s(log, "dispatch.prep", parent, tick);
    round = st.featurizer.PrepareRound(demand, *ctx.condition,
                                       pending_segments);
  }
  ++counts.preps;
  counts.candidates += round.candidates.size();
  for (const mr::sim::TeamView& t : ctx.teams) {
    if (t.mode == mr::sim::TeamMode::kToTarget) {
      pending_now.erase(t.target_segment);
    }
  }

  std::vector<mr::sim::TeamAction> actions(ctx.teams.size());
  std::vector<std::size_t> rows;
  for (std::size_t k = 0; k < ctx.teams.size(); ++k) {
    const mr::sim::TeamView& team = ctx.teams[k];
    if (team.mode == mr::sim::TeamMode::kIdle ||
        team.mode == mr::sim::TeamMode::kToDepot) {
      rows.push_back(k);
      continue;
    }
    actions[k].kind = mr::sim::ActionKind::kKeep;
    if (team.mode != mr::sim::TeamMode::kToTarget) continue;
    std::size_t best_idx = round.candidates.size();
    double best_time = team.leg_remaining_s - st.config.retarget_margin_s;
    for (std::size_t i = 0; i < round.candidates.size(); ++i) {
      const SegmentId seg = round.candidates[i];
      if (seg == team.target_segment || pending_now.count(seg) == 0) continue;
      const auto& tree = *round.trees[i];
      if (tree.Reachable(team.at) && tree.time_s[team.at] < best_time) {
        best_time = tree.time_s[team.at];
        best_idx = i;
      }
    }
    if (best_idx < round.candidates.size()) {
      actions[k].kind = mr::sim::ActionKind::kGoto;
      actions[k].target = round.candidates[best_idx];
      pending_now.erase(actions[k].target);
    }
  }
  if (rows.empty()) return actions;
  if (round.candidates.empty()) {
    for (std::size_t k : rows) actions[k].kind = mr::sim::ActionKind::kDepot;
    return actions;
  }

  std::vector<std::size_t> columns;
  for (std::size_t i = 0; i < round.candidates.size(); ++i) {
    int copies = 1;
    const auto it = round.demand.find(round.candidates[i]);
    if (it != round.demand.end() && it->second > 5) {
      copies = std::min(3, (it->second + 4) / 5);
    }
    for (int c = 0; c < copies; ++c) columns.push_back(i);
  }

  std::vector<std::vector<double>> feature_rows;
  std::vector<std::size_t> team_begin(rows.size());
  std::vector<std::vector<std::size_t>> cand_row(
      rows.size(), std::vector<std::size_t>(round.candidates.size(), SIZE_MAX));
  {
    Scope s(log, "dispatch.featurise", parent, tick);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const mr::sim::TeamView& team = ctx.teams[rows[r]];
      team_begin[r] = feature_rows.size();
      feature_rows.push_back(st.featurizer.Features(
          round, team, round.candidates.size(), &ctx.teams));
      for (std::size_t i = 0; i < round.candidates.size(); ++i) {
        if (!round.trees[i]->Reachable(team.at)) continue;
        cand_row[r][i] = feature_rows.size();
        feature_rows.push_back(
            st.featurizer.Features(round, team, i, &ctx.teams));
      }
    }
  }
  std::vector<double> qs;
  {
    Scope s(log, "rl.qpass", parent, tick);
    qs = boot.agent->QValues(feature_rows);
  }
  ++counts.passes;
  counts.rows_scored += feature_rows.size();

  const double w = st.config.prior_weight;
  mr::opt::AssignmentProblem problem;
  problem.rows = rows.size();
  problem.cols = columns.size();
  problem.cost.assign(problem.rows * problem.cols, mr::opt::kForbiddenCost);
  std::vector<std::vector<double>> margin(rows.size(),
                                          std::vector<double>(columns.size()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const double depot_score =
        w * dsp::MobiRescueDispatcher::HeuristicPrior(
                feature_rows[team_begin[r]]) +
        qs[team_begin[r]];
    std::vector<double> by_candidate(round.candidates.size(),
                                     -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < round.candidates.size(); ++i) {
      const std::size_t row = cand_row[r][i];
      if (row == SIZE_MAX) continue;
      by_candidate[i] =
          w * dsp::MobiRescueDispatcher::HeuristicPrior(feature_rows[row]) +
          qs[row] - depot_score;
    }
    for (std::size_t c = 0; c < columns.size(); ++c) {
      margin[r][c] = by_candidate[columns[c]];
      if (std::isfinite(margin[r][c])) problem.at(r, c) = -margin[r][c];
    }
  }
  mr::opt::AssignmentResult result;
  {
    Scope s(log, "opt.assign", parent, tick);
    result = mr::opt::SolveAssignment(problem);
  }
  const double r = static_cast<double>(problem.rows);
  const double c = static_cast<double>(problem.cols);
  ++counts.assigns;
  counts.assign_rows += r;
  counts.assign_cols += c;
  counts.work_padded += std::pow(std::max(r, c), 3.0);
  counts.work_rect += std::min(r, c) * std::max(r, c) * std::max(r, c);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    mr::sim::TeamAction& action = actions[rows[i]];
    const int col = result.row_to_col[i];
    if (col >= 0 && margin[i][static_cast<std::size_t>(col)] > 0.0) {
      action.kind = mr::sim::ActionKind::kGoto;
      action.target = round.candidates[columns[static_cast<std::size_t>(col)]];
    } else {
      action.kind = mr::sim::ActionKind::kKeep;
    }
  }
  return actions;
}

bool SameActions(const std::vector<mr::sim::TeamAction>& a,
                 const std::vector<mr::sim::TeamAction>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].target != b[i].target) return false;
  }
  return true;
}

/// Counters of the traced days that are not span durations.
struct TraceTotals {
  StageCounts stages;
  std::uint64_t days = 0;
  std::uint64_t ticks = 0;
  std::uint64_t replay_mismatch_ticks = 0;
  std::uint64_t predict_mismatch = 0;
  double decide_ms_total = 0.0;  // the service's own decide time
  double records_applied = 0.0;
  double records_deferred = 0.0;
  double queue_depth_max = 0.0;
  double shard_imbalance = 0.0;
  double tree_hits = 0.0;
  double tree_builds = 0.0;
  double boundaries_visited = 0.0;
  double ckpt_bytes = 0.0;
  std::vector<double> learn_p50_ms;  // per traced day
  std::vector<double> learn_p99_ms;
  mr::learn::LearnMetrics learn;
  std::uint64_t dropped_spans = 0;
  std::map<std::string, std::uint64_t> program_spans;
};

DayRecord ServeTracedDay(const DayInputs& in, SpanLog& log,
                         std::uint64_t* tick_id, TraceTotals& totals) {
  DayRecord record;
  mr::sim::RescueSimulator simulator(*in.world->city, *in.world->eval.flood,
                                     in.requests, in.day_offset_s,
                                     in.workload->sim);
  mr::obs::TraceRecorder& recorder = mr::obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();

  const int boot_span = log.Open("bench.boot", -1, *tick_id);
  Boot boot = BootService(in);
  log.Close(boot_span);
  record.load_ms = boot.load_ms;
  record.restore_ms = boot.restore_ms;
  mr::serve::DispatchService& service = *boot.service;
  const auto* dispatcher =
      dynamic_cast<const mr::dispatch::MobiRescueDispatcher*>(
          &service.dispatcher());
  if (dispatcher == nullptr) {
    throw std::logic_error("traced day needs the MobiRescue dispatcher");
  }
  // The service's dispatcher runs on the default MobiRescueConfig.
  const mr::dispatch::MobiRescueConfig config;
  ReplayState st{config,
                 mr::dispatch::DispatchFeaturizer(*in.world->city,
                                                  config.featurizer),
                 {},
                 -1.0e18};
  mr::serve::TraceStreamer streamer(
      in.trace, service, {kProducers, in.workload->delivery_lead_s});

  mr::sim::DispatchContext ctx;
  std::uint64_t drained_before = 0;
  std::uint64_t day_ticks = 0;
  const auto day0 = Clock::now();
  while (true) {
    const std::uint64_t tick = ++*tick_id;
    const int round_span = log.Open("bench.round", -1, tick);
    bool more = false;
    {
      Scope s(log, "sim.next_round", round_span, tick);
      more = simulator.NextRound(service.dispatcher(), &ctx);
    }
    if (!more) {
      log.Close(round_span);
      break;
    }
    {
      Scope s(log, "stream.wait", round_span, tick);
      streamer.WaitDelivered(ctx.now);
    }
    {
      Scope s(log, "serve.drain", round_span, tick);
      service.AdvanceStateTo(ctx.now);
    }
    const double drain_ms = SpanLog::DurMs(log.spans().back());
    {
      Scope s(log, "bench.probe", round_span, tick);
      const std::uint64_t drained = service.metrics().ingest.drained;
      totals.queue_depth_max = std::max(
          totals.queue_depth_max,
          static_cast<double>(drained - drained_before));
      drained_before = drained;
    }
    bool refreshed = false;
    std::vector<mr::sim::TeamAction> rebuilt;
    {
      Scope s(log, "decide.replay", round_span, tick);
      rebuilt = ReplayDecide(ctx, in, boot, st, log, s.id(), tick,
                             totals.stages, &refreshed);
    }
    mr::sim::DispatchDecision decision;
    {
      Scope s(log, "serve.tick", round_span, tick);
      decision = service.Tick(ctx);
    }
    const double tick_ms = SpanLog::DurMs(log.spans().back());
    record.tick_ms.push_back(drain_ms + tick_ms);
    ++day_ticks;

    const bool service_refreshed =
        dispatcher->prediction_refreshed_at() == ctx.now;
    if (refreshed != service_refreshed ||
        (refreshed && *service.predicted_demand() != st.cached)) {
      ++totals.predict_mismatch;
    }
    if (!SameActions(rebuilt, decision.actions)) {
      ++totals.replay_mismatch_ticks;
    }
    if (day_ticks % kCheckpointEvery == 0) {
      Scope s(log, "ckpt.save", round_span, tick);
      std::ostringstream os;
      mr::serve::SaveCheckpoint(service.Checkpoint(), os);
      totals.ckpt_bytes = static_cast<double>(os.tellp());
    }
    {
      Scope s(log, "sim.submit", round_span, tick);
      simulator.SubmitDecision(std::move(decision));
    }
    log.Close(round_span);
  }
  streamer.WaitDelivered(simulator.now());
  service.AdvanceStateTo(simulator.now());
  record.wall_s = Ms(day0, Clock::now()) / 1000.0;
  recorder.Disable();

  FinishDay(in, simulator.metrics(), service, &record);
  const mr::serve::ServiceMetrics m = service.metrics();
  ++totals.days;
  totals.ticks += day_ticks;
  totals.decide_ms_total +=
      m.decide_ms.mean * static_cast<double>(m.decide_ms.count);
  totals.records_applied += static_cast<double>(m.state.applied);
  totals.records_deferred += static_cast<double>(m.deferred);
  totals.shard_imbalance = m.shard_imbalance;
  const mr::roadnet::RouterCacheStats cache =
      st.featurizer.router().cache_stats();
  totals.tree_hits += static_cast<double>(cache.hits);
  totals.tree_builds += static_cast<double>(cache.misses);
  totals.boundaries_visited +=
      static_cast<double>(simulator.boundaries_visited());
  if (m.learning) {
    totals.learn_p50_ms.push_back(m.learn_ms.p50);
    totals.learn_p99_ms.push_back(m.learn_ms.p99);
    totals.learn = m.learn;
  }
  totals.dropped_spans += recorder.dropped();
  for (const mr::obs::TraceEvent& e : recorder.Collect()) {
    ++totals.program_spans[e.name];
  }
  return record;
}

void WriteSpans(const SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  out << "{\"format\":\"daybench-spans-v1\",\"time_unit\":\"ns\",\"spans\":[";
  bool first = true;
  for (const SpanLog::Span& s : log.spans()) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"start\":" << s.start_ns << ",\"end\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"tick\":" << s.tick << "}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

double P(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : mr::util::Percentile(std::move(xs), p);
}

}  // namespace

void ServeTracedDays(const DayInputs& in, double seconds,
                     const std::string& out_prefix,
                     std::vector<DayRecord>* records, LayerMetrics* layers) {
  mr::obs::TraceRecorder& recorder = mr::obs::TraceRecorder::Global();
  // One ring holds a whole paper day's in-program spans; the recorder is
  // cleared before every traced day and its drops checked after.
  recorder.set_ring_capacity(std::size_t{1} << 19);
  SpanLog log(Clock::now());
  TraceTotals totals;
  std::uint64_t tick_id = 0;
  const auto start = Clock::now();
  do {
    records->push_back(ServeTracedDay(in, log, &tick_id, totals));
  } while (records->size() < 2 || Ms(start, Clock::now()) < seconds * 1000.0);
  WriteSpans(log, out_prefix + "-spans.json");
  mr::obs::WriteChromeTraceFile(out_prefix + "-obs-trace.json", recorder);

  // Durations per span name, and each name's self time (duration minus
  // the durations of its direct children).
  std::map<std::string, std::vector<double>> dur;
  std::map<std::string, double> total_ms, self_ms;
  std::vector<double> child_ms(log.spans().size(), 0.0);
  for (const SpanLog::Span& s : log.spans()) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += SpanLog::DurMs(s);
    }
  }
  std::vector<double> round_ms;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const SpanLog::Span& s = log.spans()[i];
    const double d = SpanLog::DurMs(s);
    dur[s.name].push_back(d);
    total_ms[s.name] += d;
    self_ms[s.name] += d - child_ms[i];
  }
  // sim.round_ms: NextRound + SubmitDecision of one round.
  std::map<std::uint64_t, double> sim_ms;
  for (const SpanLog::Span& s : log.spans()) {
    const std::string name = s.name;
    if (name == "sim.next_round" || name == "sim.submit") {
      sim_ms[s.tick] += SpanLog::DurMs(s);
    }
  }
  std::vector<double> sim_round;
  for (const auto& [tick, ms] : sim_ms) sim_round.push_back(ms);

  const double days = static_cast<double>(totals.days);
  const StageCounts& c = totals.stages;
  auto per = [](double sum, std::uint64_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  LayerMetrics& l = *layers;
  l["serve.drain_ms_p50"] = P(dur["serve.drain"], 50);
  l["serve.drain_ms_p99"] = P(dur["serve.drain"], 99);
  l["serve.records_applied"] = totals.records_applied / days;
  l["serve.records_deferred"] = totals.records_deferred / days;
  l["serve.queue_depth_max"] = totals.queue_depth_max;
  l["serve.shard_imbalance"] = totals.shard_imbalance;
  l["predict.refresh_ms_p50"] = P(dur["predict.refresh"], 50);
  l["predict.refresh_ms_max"] = P(dur["predict.refresh"], 100);
  l["predict.refreshes"] = static_cast<double>(c.refreshes) / days;
  l["predict.people_scored"] =
      per(static_cast<double>(c.people_scored), c.refreshes);
  l["predict.segments_predicted"] =
      per(static_cast<double>(c.segments_predicted), c.refreshes);
  l["dispatch.prep_ms"] = P(dur["dispatch.prep"], 50);
  l["dispatch.candidates_mean"] =
      per(static_cast<double>(c.candidates), c.preps);
  l["roadnet.tree_cache_hit_ratio"] =
      totals.tree_hits / std::max(1.0, totals.tree_hits + totals.tree_builds);
  l["roadnet.tree_builds"] = totals.tree_builds / days;
  l["dispatch.featurise_ms"] = P(dur["dispatch.featurise"], 50);
  l["dispatch.rows_scored"] = static_cast<double>(c.rows_scored) / days;
  l["rl.qpass_ms"] = P(dur["rl.qpass"], 50);
  l["rl.qpass_rows"] = per(static_cast<double>(c.rows_scored), c.passes);
  l["opt.assign_ms_p50"] = P(dur["opt.assign"], 50);
  l["opt.assign_ms_max"] = P(dur["opt.assign"], 100);
  l["opt.assign_rows_mean"] = per(c.assign_rows, c.assigns);
  l["opt.assign_cols_mean"] = per(c.assign_cols, c.assigns);
  l["opt.work_padded"] = per(c.work_padded, c.assigns);
  l["opt.work_rect"] = per(c.work_rect, c.assigns);
  l["sim.round_ms"] = P(sim_round, 50);
  l["sim.boundaries_visited"] = totals.boundaries_visited / days;
  l["learn.tick_ms_p50"] = P(totals.learn_p50_ms, 50);
  l["learn.tick_ms_p99"] = P(totals.learn_p99_ms, 50);
  l["learn.train_steps"] = static_cast<double>(totals.learn.train_steps);
  l["learn.transitions"] = static_cast<double>(totals.learn.transitions);
  l["learn.shadow_rounds"] = static_cast<double>(totals.learn.shadow_rounds);
  l["learn.promotions"] = static_cast<double>(totals.learn.promotions);
  l["ckpt.save_ms"] = P(dur["ckpt.save"], 50);
  l["ckpt.bytes"] = totals.ckpt_bytes;
  l["trace.replay_mismatch_ticks"] =
      static_cast<double>(totals.replay_mismatch_ticks);
  l["trace.predict_mismatch"] = static_cast<double>(totals.predict_mismatch);
  const double stages =
      total_ms["predict.refresh"] + total_ms["dispatch.prep"] +
      total_ms["dispatch.featurise"] + total_ms["rl.qpass"] +
      total_ms["opt.assign"];
  l["trace.decide_coverage"] =
      totals.decide_ms_total > 0.0 ? stages / totals.decide_ms_total : 0.0;
  l["trace.dropped_spans"] = static_cast<double>(totals.dropped_spans);

  // Waterfall of the traced ticks, by self time.
  const double rounds_total = total_ms["bench.round"];
  std::printf("traced %llu day(s), %llu ticks; span self time (share of "
              "bench.round total %.1f ms):\n",
              static_cast<unsigned long long>(totals.days),
              static_cast<unsigned long long>(totals.ticks), rounds_total);
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, self] : self_ms) order.push_back({-self, name});
  std::sort(order.begin(), order.end());
  for (const auto& [neg_self, name] : order) {
    std::printf("  %-20s n %6zu  total %9.2f ms  self %9.2f ms  %5.1f%%\n",
                name.c_str(), dur[name].size(), total_ms[name], -neg_self,
                rounds_total > 0.0 ? -100.0 * neg_self / rounds_total : 0.0);
  }
  std::printf("  decide stages %.2f ms vs service decide %.2f ms "
              "(coverage %.3f)\n",
              stages, totals.decide_ms_total, l["trace.decide_coverage"]);
  std::printf("in-program spans (all traced days):");
  for (const auto& [name, n] : totals.program_spans) {
    std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

}  // namespace daybench
