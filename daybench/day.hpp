// Shared pieces of the served-day benchmark: the day's inputs, booting a
// serving process from the checkpoint, and what one served day records.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "mobility/gps_record.hpp"
#include "predict/svm_predictor.hpp"
#include "rl/dqn_agent.hpp"
#include "serve/dispatch_service.hpp"
#include "sim/request.hpp"
#include "workload.hpp"

namespace daybench {

namespace mr = mobirescue;

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// TraceStreamer producer threads; with the tick thread this fills the
/// 4 cores the benchmark is sized for.
inline constexpr std::size_t kProducers = 3;

/// Everything a served day reads: the generated world, the evaluation
/// day's requests and GPS records, and the trained checkpoint on disk.
struct DayInputs {
  const Workload* workload = nullptr;
  const mr::core::World* world = nullptr;
  double day_offset_s = 0.0;
  std::vector<mr::sim::Request> requests;
  mr::mobility::GpsTrace trace;
  std::string checkpoint_path;
};

/// A serving process booted from the checkpoint file: models restored, the
/// service constructed, no tick run yet.
struct Boot {
  std::shared_ptr<mr::rl::DqnAgent> agent;
  std::unique_ptr<mr::predict::SvmRequestPredictor> svm;
  std::unique_ptr<mr::serve::DispatchService> service;
  double load_ms = 0.0;       // LoadCheckpointFromFile
  double restore_ms = 0.0;    // RestoreAgent + RestorePredictor
  double construct_ms = 0.0;  // DispatchService constructor
};

Boot BootService(const DayInputs& in);

/// The outcome of one served day; every day of a run must give the same.
struct DayOutcome {
  int served = 0;
  int timely = 0;
  double driving_delay_mean_s = 0.0;
  double serving_teams_mean = 0.0;
  // Learner counts (learn-day; zero on frozen days).
  std::uint64_t train_steps = 0;
  std::uint64_t promotions = 0;
  std::uint64_t transitions = 0;
  std::uint64_t shadow_rounds = 0;

  bool operator==(const DayOutcome&) const = default;
};

DayOutcome OutcomeOf(const mr::sim::MetricsCollector& metrics,
                     const mr::serve::ServiceMetrics& service);

/// What one served day measured.
struct DayRecord {
  DayOutcome outcome;
  /// Boot: checkpoint load + restore + service construction + first Tick.
  double setup_s = 0.0;
  double load_ms = 0.0;
  double restore_ms = 0.0;
  /// First NextRound to the final flush.
  double wall_s = 0.0;
  /// Stopwatch around each Tick (traced days: AdvanceStateTo + Tick).
  std::vector<double> tick_ms;
  double decision_p50_ms = 0.0;
  /// Untraced days: the calibration-kernel times between the day's
  /// segments, and the times above at the reference host speed.
  std::vector<double> kernel_ms;
  double scaled_setup_s = 0.0;
  double scaled_wall_s = 0.0;
  std::vector<double> scaled_tick_ms;
  double scaled_decision_p50_ms = 0.0;
  std::uint64_t ticks = 0;
  /// Ticks decided by the fallback or with a decide error.
  std::uint64_t failed_ticks = 0;
  std::uint64_t records_offered = 0;
  /// Records dropped by the ingest queue or quarantined by the state.
  std::uint64_t failed_records = 0;
};

/// Fills the failure counts and outcome of a finished day.
void FinishDay(const DayInputs& in, const mr::sim::MetricsCollector& metrics,
               const mr::serve::DispatchService& service, DayRecord* record);

/// Per-layer numbers of the traced days, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Serves traced days for `seconds` (at least two): each tick's drain,
/// predict refresh, round prep, featurisation, Q pass and assignment are
/// re-run from the benchmark through public calls and timed as spans; the
/// rebuilt decision is checked against Tick's. Spans are written under
/// `out_prefix`. Adds the traced days' records to `records` and the
/// per-layer metrics to `layers`.
void ServeTracedDays(const DayInputs& in, double seconds,
                     const std::string& out_prefix,
                     std::vector<DayRecord>* records, LayerMetrics* layers);

}  // namespace daybench
