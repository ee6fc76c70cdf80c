// Scoped tracing spans (DESIGN.md §12).
//
// `OBS_SPAN("router.tree_build");` opens an RAII span: on scope exit the
// (name, start, duration, thread) tuple is appended to the calling thread's
// ring (obs/thread_rings.hpp). Rings are fixed-capacity and overwrite their
// oldest events (drops are counted), so tracing a long run keeps the most
// recent window.
// The recorder exports everything as Chrome `trace_event` JSON
// (obs/exposition.hpp) loadable in Perfetto / chrome://tracing.
//
// Cost model: tracing is off by default; a span on a disabled recorder is
// one relaxed atomic load and two branches — cheap enough to leave in the
// router/DQN/simulator hot paths permanently. Enabled, a span adds two
// steady_clock reads plus one ring append under the ring's (uncontended,
// per-thread) mutex.
//
// Span names must be string literals (or otherwise outlive the recorder's
// events): the ring stores the pointer, never a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/thread_rings.hpp"

namespace mobirescue::obs {

struct TraceEvent {
  const char* name = nullptr;  // static-lifetime string
  std::uint64_t start_ns = 0;  // since the recorder's epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // recorder-assigned small id, stable per thread
};

class TraceRecorder {
 public:
  TraceRecorder() = default;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-global recorder OBS_SPAN records into. Leaked, like
  /// Registry::Global(), so spans in static-destruction code stay safe.
  static TraceRecorder& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded event, resets the epoch and drop counter, and
  /// applies the current ring capacity to every ring. Call while span
  /// traffic is quiescent (a span in flight across Clear records with a
  /// clamped duration, never corrupts the ring).
  void Clear() { rings_.Clear(); }

  /// Every retained event from every thread, sorted by start time. Safe
  /// against concurrent recording (each ring is locked briefly).
  std::vector<TraceEvent> Collect() const;

  /// Events overwritten because a ring wrapped.
  std::uint64_t dropped() const { return rings_.dropped(); }

  /// Per-thread ring capacity in events; applies to rings created after
  /// the call and, at the next Clear(), to existing ones. Default 65536
  /// (~2 MB per thread, reserved when the ring is created or cleared).
  void set_ring_capacity(std::size_t events) { rings_.set_capacity(events); }
  std::size_t ring_capacity() const { return rings_.capacity(); }

  /// Nanoseconds since the recorder's epoch (monotonic clock).
  std::uint64_t NowNs() const { return rings_.NowNs(); }

  /// Steady-clock time at the recorder's epoch, for aligning span
  /// timestamps with another recorder's (incident bundles merge flight
  /// events and spans onto one timeline).
  std::int64_t epoch_steady_ns() const { return rings_.epoch_steady_ns(); }

  /// Appends one completed span to this thread's ring. Normally called by
  /// ScopedSpan's destructor.
  void Record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns);

 private:
  std::atomic<bool> enabled_{false};
  ThreadRings<TraceEvent> rings_{65536};
};

/// RAII span: captures the start time on construction (when the recorder
/// is enabled) and records the completed event on destruction. Inactive —
/// and nearly free — when the recorder is disabled at entry.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : ScopedSpan(name, TraceRecorder::Global()) {}
  ScopedSpan(const char* name, TraceRecorder& recorder) {
    if (!recorder.enabled()) return;
    recorder_ = &recorder;
    name_ = name;
    start_ns_ = recorder.NowNs();
  }
  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    const std::uint64_t now = recorder_->NowNs();
    recorder_->Record(name_, start_ns_, now > start_ns_ ? now - start_ns_ : 0);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace mobirescue::obs

#define MOBIRESCUE_OBS_CONCAT_INNER(a, b) a##b
#define MOBIRESCUE_OBS_CONCAT(a, b) MOBIRESCUE_OBS_CONCAT_INNER(a, b)

/// Opens a scoped span named `name` (a string literal) on the global
/// recorder, lasting until the end of the enclosing scope.
#define OBS_SPAN(name)                                             \
  ::mobirescue::obs::ScopedSpan MOBIRESCUE_OBS_CONCAT(obs_span_ic, \
                                                      __LINE__)(name)
