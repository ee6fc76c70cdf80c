// The online dispatch service (DESIGN.md §11): the serving-system face of
// the MobiRescue pipeline.
//
//   producers ──Ingest()──▶ ShardedIngestQueue ──drain──▶ StreamState
//                                                            │ snapshot
//   5-min tick ──AdvanceStateTo + Decide──────────────────────┘
//
// Producers (cellphone uplinks; in tests/demos a TraceStreamer) call
// Ingest() from any thread. The tick loop — driven here by the simulator's
// incremental NextRound/SubmitDecision API, in a real deployment by a wall
// clock — drains the queues, folds the records into the incremental state
// (latest positions, map matching, flow counts), runs the dispatcher on
// the snapshot, and records the decision latency the paper contrasts with
// the ~300 s IP baselines (p50/p95/p99 via util::Summarize).
//
// Fault tolerance (DESIGN.md §13): corrupt records are quarantined by the
// StreamState validation stage; a throwing or budget-overrunning Decide()
// degrades the service to a greedy nearest-team fallback for a cooldown;
// and with checkpoint_every_n_ticks set, the full serving state (models +
// watermark + latest positions + flow counts) is periodically persisted so
// a killed process can RestoreServingState() and keep ticking.
//
// Decisions are bit-identical to the batch core::Pipeline replay of the
// same day (dispatch_service_test): the dispatcher only sees snapshot
// content, and the streamed latest-position map equals the batch
// PopulationTracker's at every tick.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/mobirescue_dispatcher.hpp"
#include "dispatch/simple_dispatchers.hpp"
#include "learn/learner.hpp"
#include "obs/health.hpp"
#include "obs/incident.hpp"
#include "obs/metrics.hpp"
#include "roadnet/city_builder.hpp"
#include "roadnet/router.hpp"
#include "serve/checkpoint.hpp"
#include "serve/ingest_queue.hpp"
#include "serve/stream_state.hpp"
#include "sim/dispatcher.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::serve {

class TraceStreamer;

struct ServiceConfig {
  IngestQueueConfig queue;
  StreamStateConfig state;
  /// Per-tick Decide() wall-time budget (ms); a tick exceeding it degrades
  /// the service for `degraded_cooldown_ticks`. 0 disables the budget.
  double decide_budget_ms = 0.0;
  /// How many subsequent ticks run the greedy fallback after a Decide()
  /// failure or budget overrun, before the primary dispatcher is retried.
  int degraded_cooldown_ticks = 3;
  /// Fault-injection hook (DESIGN.md §13): called right before the primary
  /// dispatcher's Decide(); a throw is handled exactly like a dispatcher
  /// failure (fallback + cooldown).
  std::function<void(util::SimTime now)> decide_chaos;
  /// Periodic checkpointing: every N ticks the full serving state is
  /// written to `checkpoint_path` (MobiRescue services only — the models
  /// are part of the artifact). 0 disables. A save that fails keeps the
  /// previous file, counts in serve_checkpoint_failures_total and does not
  /// stop the tick.
  std::uint64_t checkpoint_every_n_ticks = 0;
  std::string checkpoint_path;
  /// Online continual learning (DESIGN.md §15; MobiRescue services only).
  /// Disabled by default: the frozen-policy serving path is untouched —
  /// bit-identical decisions, no learner allocation.
  learn::LearnConfig learn;
  /// Extra SLO health rules (DESIGN.md §16), appended to the built-in
  /// ladder rules (DispatchService::DefaultHealthRules): kObserve rules
  /// only affect the health gauge and incident evidence; kDegrade rules
  /// join the degradation ladder (a trip (re)arms the fallback cooldown).
  std::vector<obs::HealthRule> health_rules;
  /// Replace the built-in ladder rules entirely with `health_rules`. The
  /// defaults reproduce the pre-engine hardcoded ladder bit-identically
  /// (dispatch_service_test proves it); replacing them changes what
  /// degrades the service — operator's choice.
  bool replace_default_health_rules = false;
  /// Incident bundles (DESIGN.md §16): with `incident.dir` set, the
  /// service dumps a mobirescue-incident-v1 bundle on degradation entry,
  /// crash-restore, and learner rollback — plus explicit DumpIncident().
  obs::IncidentConfig incident;
};

/// One consistent view of the service's health, for benches and /metrics.
///
/// Every count is read from this service instance's own registry
/// instruments (exact per instance, never reset), except `ticks`, which is
/// the lifetime tick count a checkpoint restores. The latency summaries
/// cover every tick this instance served.
struct ServiceMetrics {
  IngestCounters ingest;
  StreamStateCounters state;
  std::vector<std::size_t> queue_depths;
  std::uint64_t ticks = 0;
  /// Records drained but held back because their timestamp was ahead of
  /// the tick watermark (applied on a later tick).
  std::uint64_t deferred = 0;
  std::size_t people_tracked = 0;
  /// Per-tick dispatcher Decide() wall time (ms).
  util::PercentileSummary decide_ms;
  /// Per-tick drain-and-apply wall time (ms).
  util::PercentileSummary drain_ms;
  /// Per-tick decision-path wall time (drain + decide, ms): the latency
  /// from tick start until the decision exists. Post-decision work inside
  /// the tick (the learner, checkpointing) is excluded — it delays the
  /// tick's return, never the decision.
  util::PercentileSummary decision_ms;
  /// Mean ingested records per simulated second (accepted / watermark).
  double ingest_rate_per_s = 0.0;
  /// Ingest-queue balance: max/mean of per-shard cumulative accepted
  /// counts (1.0 = perfect, 0 before any record). Audits the splitmix64
  /// person sharding under real id distributions (sequential ids at 1M
  /// must stay near 1.0 — ingest_queue_test pins the bound).
  double shard_imbalance = 0.0;
  /// The dispatcher featurizer's shortest-path-tree cache (MobiRescue
  /// dispatcher only; zeros otherwise).
  roadnet::RouterCacheStats router_cache;
  // Degradation ladder (DESIGN.md §13):
  std::uint64_t fallback_ticks = 0;    // ticks served by the greedy fallback
  std::uint64_t decide_errors = 0;     // primary Decide() throws
  std::uint64_t budget_overruns = 0;   // ticks over decide_budget_ms
  std::uint64_t checkpoints_written = 0;
  /// Crash recoveries this service instance performed.
  std::uint64_t recoveries = 0;
  /// Incident bundles this service dumped (lifetime; 0 when the incident
  /// writer is disabled).
  std::uint64_t incidents = 0;
  /// Health-engine rule trips (lifetime; the default rules trip once per
  /// decide error / budget overrun).
  std::uint64_t health_trips = 0;
  /// True while the cooldown has the fallback dispatcher in charge.
  bool degraded = false;
  /// Online learning (DESIGN.md §15): present when the service was built
  /// with config.learn.enabled.
  bool learning = false;
  learn::LearnMetrics learn;
  /// Per-tick learner wall time (collector + shadow + trainer + gate), ms.
  util::PercentileSummary learn_ms;
};

class DispatchService {
 public:
  /// MobiRescue service: builds the DQN dispatcher over the service's own
  /// streamed state. `agent` is typically restored from a checkpoint
  /// (serve/checkpoint.hpp) — no retraining on boot. When the stream
  /// config's accept_box is unset it defaults to the city's bounding box.
  DispatchService(const roadnet::City& city,
                  const roadnet::SpatialIndex& index,
                  const predict::SvmRequestPredictor& svm,
                  std::shared_ptr<rl::DqnAgent> agent, double day_offset_s,
                  ServiceConfig config = {},
                  dispatch::MobiRescueConfig mr_config = {});

  /// Baseline service: any dispatcher; the streamed state is still
  /// maintained (metrics, flows) but the dispatcher may ignore it.
  DispatchService(const roadnet::City& city,
                  const roadnet::SpatialIndex& index,
                  std::unique_ptr<sim::Dispatcher> dispatcher,
                  ServiceConfig config = {});

  DispatchService(const DispatchService&) = delete;
  DispatchService& operator=(const DispatchService&) = delete;

  /// Thread-safe producer entry point. Returns false iff the record was
  /// dropped (full shard under kDropNewest).
  bool Ingest(const mobility::GpsRecord& record);
  void IngestBatch(const std::vector<mobility::GpsRecord>& records);

  /// Drains the queues and applies every record with t <= now to the
  /// incremental state, in drain order; records ahead of `now` are
  /// deferred (applied by a later call, still in per-person order).
  /// Tick() calls this; exposed for tests. Not thread-safe against other
  /// consumers — one tick loop.
  void AdvanceStateTo(util::SimTime now);

  /// One dispatch tick at context.now: drain + apply, then run the
  /// dispatcher on the snapshot. Records drain and decide latency. If the
  /// primary dispatcher throws (or the chaos hook does), or the previous
  /// ticks put the service into cooldown, the greedy fallback decides
  /// instead — the tick always produces a decision.
  sim::DispatchDecision Tick(const sim::DispatchContext& context);

  /// Drives a whole simulated day through the tick loop: for every due
  /// dispatch round, waits for `streamer` (when given) to deliver all GPS
  /// records up to the round's time, then ticks and submits the decision.
  /// Equivalent to simulator.Run(dispatcher) with streaming in the loop.
  sim::MetricsCollector ServeEpisode(sim::RescueSimulator& simulator,
                                     TraceStreamer* streamer = nullptr);

  /// True when the service owns checkpointable models (the MobiRescue
  /// constructor); baseline services cannot checkpoint.
  bool CanCheckpoint() const {
    return mobirescue_ != nullptr && svm_ != nullptr;
  }

  /// Models + live serving state in one artifact (requires
  /// CanCheckpoint(); throws std::logic_error otherwise).
  ServiceCheckpoint Checkpoint() const;

  /// Saves Checkpoint() to `path`: the bytes and the guarantees of
  /// SaveCheckpointToFile(Checkpoint(), path), and the one save the tick's
  /// periodic checkpoint runs. It formats into a writer it keeps across
  /// calls and reuses the text that did not change since the previous
  /// call: the model sections while the live weights stay bitwise the
  /// same, and the learner's replay-buffer text (OnlineLearner::
  /// AppendState). Requires CanCheckpoint() (throws std::logic_error
  /// otherwise); a failed write throws std::runtime_error.
  void WriteCheckpoint(const std::string& path);

  /// Restores the serving-state section of a checkpoint — watermark, tick
  /// count, latest positions, deferred records, stream/quarantine counters
  /// and flow state — into this (freshly built) service, and counts a
  /// recovery event. The models themselves are restored by constructing
  /// the service from RestoreAgent/RestorePredictor first.
  void RestoreServingState(const ServiceCheckpoint& ckpt);

  ServiceMetrics metrics() const;

  /// The built-in ladder rules the health engine evaluates every tick:
  /// "decide-error" (the primary Decide() threw this tick) and, when
  /// config.decide_budget_ms > 0, "decide-budget" (a primary tick's decide
  /// time exceeded the budget). Both carry HealthAction::kDegrade, so
  /// their trips arm the fallback cooldown — bit-identical to the old
  /// hardcoded ladder. Public so tests/operators can reproduce or extend
  /// the exact default set.
  static std::vector<obs::HealthRule> DefaultHealthRules(
      const ServiceConfig& config);

  /// Writes an incident bundle now (config.incident.dir must be set;
  /// returns "" when the writer is disabled). Also called internally on
  /// degradation entry, crash-restore, and learner rollback.
  std::string DumpIncident(const std::string& trigger);

  /// The service's SLO health engine (verdict history, rule list).
  const obs::HealthEngine& health() const { return health_; }

  sim::Dispatcher& dispatcher() { return *dispatcher_; }
  /// The online learner; nullptr unless config.learn.enabled on a
  /// MobiRescue service.
  learn::OnlineLearner* learner() { return learner_.get(); }
  const learn::OnlineLearner* learner() const { return learner_.get(); }
  const StreamState& state() const { return state_; }
  /// The MobiRescue dispatcher's cached {ñ_e} prediction; nullptr for
  /// baseline dispatchers.
  const predict::Distribution* predicted_demand() const;
  const ServiceConfig& config() const { return config_; }
  util::SimTime watermark() const { return watermark_; }
  /// Total ticks across recoveries (restored from checkpoints).
  std::uint64_t lifetime_ticks() const { return lifetime_ticks_; }

 private:
  /// DefaultHealthRules (unless replaced) plus config.health_rules.
  static std::vector<obs::HealthRule> EffectiveHealthRules(
      const ServiceConfig& config);
  /// Builds the incident writer when config.incident.dir is set.
  static std::unique_ptr<obs::IncidentWriter> MakeIncidentWriter(
      const ServiceConfig& config);
  /// Throws std::logic_error unless CanCheckpoint().
  void RequireCheckpointable(const char* caller) const;
  /// The serving-state section of Checkpoint(), into `s`'s buffers.
  void ExportServingState(ServingState& s) const;

  ServiceConfig config_;
  ShardedIngestQueue queue_;
  StreamState state_;
  std::unique_ptr<sim::Dispatcher> owned_dispatcher_;
  sim::Dispatcher* dispatcher_ = nullptr;
  /// Set when the dispatcher is the internally-built MobiRescue one
  /// (introspection: router cache stats, prediction; checkpointing).
  dispatch::MobiRescueDispatcher* mobirescue_ = nullptr;
  /// The SVM the MobiRescue constructor received (checkpointing needs it).
  const predict::SvmRequestPredictor* svm_ = nullptr;
  /// Shared handle on the serving agent — the learner hot-swaps weights
  /// through it on promotion.
  std::shared_ptr<rl::DqnAgent> live_agent_;
  std::unique_ptr<learn::OnlineLearner> learner_;
  /// Degradation ladder rung 2: flood-aware, zero-latency, model-free.
  dispatch::GreedyNearestDispatcher fallback_;
  /// SLO health engine driving the ladder (DESIGN.md §16): evaluated once
  /// per tick, after the decide timing, off the decision path.
  obs::HealthEngine health_;
  /// Incident-bundle writer; null unless config.incident.dir is set.
  std::unique_ptr<obs::IncidentWriter> incidents_;

  /// WriteCheckpoint's state, kept across saves: its writer (cleared, never
  /// shrunk), the serving-state export's buffers, and the model sections'
  /// text (the magic through the threshold) with the live online and
  /// target weights it was formatted from. The SVM, its scaler and
  /// threshold are fixed for the service's life (`svm_` is const).
  struct SaveBuffers {
    util::TextWriter text;
    ServingState serving;
    std::string models;
    std::vector<double> models_online;
    std::vector<double> models_target;
  };
  SaveBuffers save_;

  // Tick-loop state (single consumer). The per-tick latency samples keep
  // exact order statistics for metrics(); every count lives in the obs
  // instruments below.
  std::vector<mobility::GpsRecord> incoming_;
  std::vector<mobility::GpsRecord> deferred_;
  util::SimTime watermark_ = 0.0;
  std::uint64_t lifetime_ticks_ = 0;
  std::vector<double> decide_ms_;
  std::vector<double> drain_ms_;
  std::vector<double> decision_ms_;
  std::vector<double> learn_ms_;
  // Degradation state: ticks remaining on the fallback dispatcher.
  int degraded_remaining_ = 0;
  /// Whether the previous tick was served by the fallback — drives the
  /// flight recorder's fallback_enter/fallback_exit edge events.
  bool fallback_active_ = false;
  /// Learner rollbacks already incident-dumped (edge detection).
  std::uint64_t learner_rollbacks_seen_ = 0;

  obs::Counter ticks_total_{"serve_ticks_total",
                            "Dispatch ticks executed."};
  obs::Counter deferred_counter_{
      "serve_deferred_total",
      "Drained records parked because they were ahead of the watermark."};
  obs::Histogram decide_hist_{"serve_tick_decide_ms",
                              "Per-tick dispatcher Decide() wall time (ms).",
                              obs::Histogram::LatencyBucketsMs()};
  obs::Histogram drain_hist_{"serve_tick_drain_ms",
                             "Per-tick drain-and-apply wall time (ms).",
                             obs::Histogram::LatencyBucketsMs()};
  obs::Histogram learn_hist_{"serve_tick_learn_ms",
                             "Per-tick online-learning wall time (ms).",
                             obs::Histogram::LatencyBucketsMs()};
  obs::Histogram checkpoint_hist_{
      "serve_tick_checkpoint_ms",
      "Periodic checkpoint save wall time on the ticks that save (ms).",
      obs::Histogram::LatencyBucketsMs()};
  obs::Gauge depth_gauge_{"serve_queue_depth",
                          "Records drained by the most recent tick."};
  obs::Gauge imbalance_gauge_{
      "serve_ingest_shard_imbalance",
      "Max/mean of per-shard cumulative accepted records (1.0 = even)."};
  obs::Gauge people_gauge_{"serve_people_tracked",
                           "Distinct people in the latest-position state."};
  obs::Counter fallback_counter_{
      "serve_fallback_ticks_total",
      "Ticks decided by the greedy fallback dispatcher."};
  obs::Counter decide_errors_counter_{
      "serve_decide_errors_total",
      "Primary dispatcher Decide() calls that threw."};
  obs::Counter overrun_counter_{
      "serve_budget_overruns_total",
      "Ticks whose Decide() exceeded the configured budget."};
  obs::Counter checkpoint_counter_{
      "serve_checkpoints_written_total",
      "Periodic serving-state checkpoints persisted."};
  obs::Counter checkpoint_failures_counter_{
      "serve_checkpoint_failures_total",
      "Periodic checkpoint saves that failed (the previous file is kept)."};
  obs::Counter recovery_counter_{
      "serve_recoveries_total",
      "Crash recoveries (serving state restored from a checkpoint)."};
  obs::Gauge degraded_gauge_{
      "serve_degraded",
      "1 while the fallback dispatcher is in charge, else 0."};
};

}  // namespace mobirescue::serve
