// Deterministic, seeded fault injection for the online dispatch service
// (DESIGN.md §13). A FaultPlan describes *what* can go wrong — GPS records
// dropped, duplicated, delayed, reordered, or corrupted at the streamer/
// ingest boundary; the dispatcher or predictor throwing; the serving
// process being killed at chosen ticks — and the FaultInjector turns a
// clean recorded trace into a faulted delivery schedule plus per-tick
// failure decisions.
//
// Every decision is a pure splitmix64 hash of (plan.seed, person,
// timestamp bits, fault kind) — never a stateful RNG draw — so the same
// plan over the same trace produces byte-identical faults regardless of
// thread interleaving, call order, or how many times the service restarts
// mid-episode. An all-zero plan is exactly the identity: the schedule
// equals the trace and no failure ever fires (the PR-3 streamed==batch
// bit-identity invariant holds through this path).
//
// RunFaultedEpisode drives a full simulated day under a plan: it streams
// the faulted schedule, checkpoints the serving state periodically, kills
// and rebuilds the service at the plan's kill ticks (restoring from the
// last checkpoint and replaying the delivery schedule from the checkpoint
// watermark), and returns the episode metrics plus the surviving service.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mobility/gps_record.hpp"
#include "obs/metrics.hpp"
#include "serve/trace_streamer.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace mobirescue::serve {

class DispatchService;
struct ServiceCheckpoint;

/// What can go wrong, and how often. All probabilities are per record (or
/// per tick / per refresh for the failure hooks), in [0, 1]; 0 everywhere
/// is the identity plan.
struct FaultPlan {
  std::uint64_t seed = 20260806;
  /// Record never delivered.
  double drop_prob = 0.0;
  /// Record delivered twice (the copy 1 s later).
  double duplicate_prob = 0.0;
  /// Record delivered late by `delay_s` (it arrives stale).
  double delay_prob = 0.0;
  double delay_s = 900.0;
  /// Record's fields corrupted (NaN coordinate, inf, or an out-of-box
  /// position — the quarantine stage's three food groups).
  double corrupt_prob = 0.0;
  /// Record's delivery time swapped with the person's next record
  /// (non-monotonic per-person arrival).
  double reorder_prob = 0.0;
  /// Per-tick probability that the primary dispatcher's Decide() throws
  /// (wire ShouldFailDecide into ServiceConfig::decide_chaos).
  double decide_failure_prob = 0.0;
  /// Per-refresh probability that the SVM predictor throws (wire
  /// ShouldFailPrediction into MobiRescueConfig::prediction_chaos).
  double predictor_failure_prob = 0.0;
  /// The serving process is killed just before each of these ticks
  /// (0-based tick index within the episode) and restored from the last
  /// checkpoint. Kills without a checkpoint on disk are skipped.
  std::vector<std::uint64_t> kill_at_ticks;

  /// True when any per-record fault can fire.
  bool AnyRecordFaults() const;
  /// True when nothing at all can fire (the identity plan).
  bool Empty() const;
  /// A canned everything-at-once plan for demos: a few percent of every
  /// record fault, occasional decide/predictor failures, two mid-episode
  /// kills.
  static FaultPlan Chaos(std::uint64_t seed = 20260806);
};

/// Faults actually injected while planning/deciding (per injector).
struct FaultCounts {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t reordered = 0;
  std::uint64_t decide_failures = 0;
  std::uint64_t predictor_failures = 0;
  std::uint64_t kills = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  const FaultCounts& counts() const { return counts_; }

  /// Turns a clean trace into the faulted delivery schedule. Deterministic
  /// in (plan, trace); accumulates counts_.
  std::vector<TimedDelivery> PlanDeliveries(const mobility::GpsTrace& trace);

  /// True when the plan kills the process just before tick `tick`.
  bool KillsBeforeTick(std::uint64_t tick) const;

  /// Per-tick / per-refresh failure decisions, hashed on the simulation
  /// time so they reproduce across restarts. These mutate counts_ — call
  /// them once per event (the service's chaos hooks do).
  bool ShouldFailDecide(util::SimTime now);
  bool ShouldFailPrediction(util::SimTime now);

  /// Tallies an executed kill (RunFaultedEpisode calls this when it
  /// actually kills the process, i.e. a checkpoint existed).
  void RecordKill();

 private:
  double UnitHash(std::uint64_t a, std::uint64_t b, std::uint64_t salt) const;
  double RecordHash(const mobility::GpsRecord& r, std::uint64_t salt) const;
  double TimeHash(util::SimTime t, std::uint64_t salt) const;

  FaultPlan plan_;
  FaultCounts counts_;

  obs::Counter dropped_total_{"serve_fault_dropped_total",
                              "GPS records dropped by the fault injector."};
  obs::Counter duplicated_total_{
      "serve_fault_duplicated_total",
      "GPS records duplicated by the fault injector."};
  obs::Counter delayed_total_{"serve_fault_delayed_total",
                              "GPS records delayed by the fault injector."};
  obs::Counter corrupted_total_{
      "serve_fault_corrupted_total",
      "GPS records corrupted by the fault injector."};
  obs::Counter reordered_total_{
      "serve_fault_reordered_total",
      "GPS record pairs reordered by the fault injector."};
  obs::Counter decide_failures_total_{
      "serve_fault_decide_failures_total",
      "Injected dispatcher Decide() failures."};
  obs::Counter predictor_failures_total_{
      "serve_fault_predictor_failures_total",
      "Injected SVM predictor failures."};
  obs::Counter kills_total_{"serve_fault_kills_total",
                            "Injected process kills (kill-and-restore)."};
};

/// Builds a serving stack: fresh from scratch when `ckpt` is null, or from
/// a loaded checkpoint after a kill (RestoreAgent/RestorePredictor — the
/// runner applies RestoreServingState afterwards). The factory owns
/// keeping the predictor and anything else the service references alive.
using ServiceFactory =
    std::function<std::unique_ptr<DispatchService>(const ServiceCheckpoint*)>;

struct FaultedEpisodeConfig {
  /// Serving-state checkpoint cadence and location; 0 / empty disables
  /// checkpointing (and therefore kills).
  std::uint64_t checkpoint_every_n_ticks = 0;
  std::string checkpoint_path;
  TraceStreamerConfig streamer;
};

struct FaultedEpisodeOutcome {
  sim::MetricsCollector metrics;
  std::uint64_t ticks = 0;
  std::uint64_t kills = 0;
  std::uint64_t checkpoints_written = 0;
  /// The service that finished the episode (after the last restore).
  std::unique_ptr<DispatchService> service;
};

/// Drives a full episode under a fault plan: streams the faulted schedule
/// into the service while the simulator ticks, checkpoints every N ticks
/// (DispatchService::WriteCheckpoint, the save the tick's own periodic
/// checkpoint runs), and at each plan kill tick destroys the streamer +
/// service, reloads the checkpoint, rebuilds via `factory`, restores the
/// serving state, and resumes streaming from the checkpoint watermark.
/// Kill ticks before the first checkpoint are skipped (nothing to restore
/// from).
FaultedEpisodeOutcome RunFaultedEpisode(sim::RescueSimulator& simulator,
                                        const mobility::GpsTrace& trace,
                                        FaultInjector& injector,
                                        const ServiceFactory& factory,
                                        FaultedEpisodeConfig config = {});

}  // namespace mobirescue::serve
