// Flight recorder: a process-wide black box of structured events
// (DESIGN.md §16).
//
// Counters say *how often* something happened; the flight recorder keeps
// *the sequence* — quarantine bursts, fallback entries, kills, restores,
// promotions — so an incident bundle can show what led to what. Events are
// `Event{seq, ts, severity, component, kind, attrs}`; `seq` is a global
// relaxed atomic, so a collected timeline is totally ordered by emission
// even across threads whose clocks read equal timestamps.
//
// Storage is the trace recorder's (obs/thread_rings.hpp): per-thread
// fixed-capacity rings that overwrite their oldest events (drops counted),
// a one-slot thread-local ring cache, per-ring mutexes that are
// uncontended in steady state. Unlike tracing, the recorder is ON by
// default — the emission sites are bookkeeping points (per tick, per rare
// branch), never per-record hot loops, and bench_obs_overhead gates the
// enabled emission path at the same 5% budget as the other instruments.
//
// `component` and `kind` must be string literals (or otherwise outlive the
// recorder's events): the ring stores the pointers. `attrs` is an owned
// free-form "key=value key=value" string; keep it short — it is built on
// the emitting thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/thread_rings.hpp"

namespace mobirescue::obs {

enum class Severity : std::uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

/// "info" / "warn" / "error".
const char* SeverityName(Severity severity);

struct Event {
  std::uint64_t seq = 0;    // process-wide emission order
  std::uint64_t ts_ns = 0;  // since the recorder's epoch (monotonic clock)
  Severity severity = Severity::kInfo;
  const char* component = "";  // static-lifetime: "serve", "sim", "learn"
  const char* kind = "";       // static-lifetime: "quarantine", "kill", ...
  std::string attrs;           // free-form "key=value" pairs, may be empty
};

class FlightRecorder {
 public:
  FlightRecorder() = default;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-global recorder the serve/sim/learn emission sites use.
  /// Leaked, like Registry::Global(), so events emitted during static
  /// destruction stay safe.
  static FlightRecorder& Global();

  /// Enabled by default (unlike tracing): the black box must already be
  /// recording when the incident happens.
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one event to the calling thread's ring. On a disabled
  /// recorder this is one relaxed load and a branch.
  void Emit(Severity severity, const char* component, const char* kind,
            std::string attrs = {});

  /// Every retained event from every thread, sorted by `seq` (emission
  /// order). Safe against concurrent emission.
  std::vector<Event> Collect() const;

  /// The most recent `max_events` of Collect() (the incident window).
  std::vector<Event> CollectRecent(std::size_t max_events) const;

  /// Events overwritten because a ring wrapped.
  std::uint64_t dropped() const { return rings_.dropped(); }

  /// Total events ever emitted (the current seq counter).
  std::uint64_t emitted() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Drops every retained event, resets the epoch and drop counter, and
  /// applies the current ring capacity to every ring (emitted() keeps
  /// counting: seq stays process-unique). Call while emitters are
  /// quiescent.
  void Clear() { rings_.Clear(); }

  /// Per-thread ring capacity in events; applies to rings created after
  /// the call and, at the next Clear(), to existing ones. Default 8192 per
  /// thread (a full serve day's bookkeeping events plus quarantine bursts
  /// fit without wrapping).
  void set_ring_capacity(std::size_t events) { rings_.set_capacity(events); }
  std::size_t ring_capacity() const { return rings_.capacity(); }

  /// Nanoseconds since the recorder's epoch (monotonic clock).
  std::uint64_t NowNs() const { return rings_.NowNs(); }

  /// Steady-clock time at the recorder's epoch, for aligning event
  /// timestamps with another recorder's (the trace rings in an incident
  /// bundle share one timeline).
  std::int64_t epoch_steady_ns() const { return rings_.epoch_steady_ns(); }

 private:
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> seq_{0};
  ThreadRings<Event> rings_{8192};
};

}  // namespace mobirescue::obs
