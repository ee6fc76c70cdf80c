// Process-wide metrics registry (DESIGN.md §12).
//
// The serving claim of the paper — sub-second dispatch decisions every five
// minutes against ~300 s IP baselines — is an operational claim, so the
// running system carries named instruments end to end:
//
//   Counter    monotone event count (cache hits, records ingested, ticks)
//   Gauge      last-set level (queue depth, people tracked)
//   Histogram  fixed-bucket latency/size distribution (tick decide ms)
//
// Hot-path cost is the design constraint. Counters and histograms shard
// their cells: each thread is assigned one of kStripes cache-line-padded
// slots (round-robin on first use), so an increment is a single relaxed
// fetch_add on an effectively core-private line — no locks, no contention,
// no thread registration or exit hooks. Reads aggregate the stripes; a
// snapshot taken while writers are running is tear-free per instrument but
// only quiescently exact, which is all metrics need.
//
// Instruments own their storage and *register themselves* with a Registry
// (the leaky process-global one by default) under a Prometheus-compatible
// name; registration is RAII, so a component's counters live exactly as
// long as the component. Several instances of the same component register
// the same name — exposition merges same-named instruments by summing,
// while each instance's accessors (Router::cache_stats(),
// ShardedIngestQueue::counters(), ...) stay exact per-instance thin views
// over their own instrument. The registry is only ever touched at
// construction, destruction and snapshot time, never on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mobirescue::obs {

class Registry;

namespace internal {

/// Number of cell stripes per sharded instrument. Threads are assigned
/// stripes round-robin on first touch; more threads than stripes only
/// costs contention, never correctness.
inline constexpr std::size_t kStripes = 16;

/// This thread's stripe index (assigned on first call, stable for the
/// thread's lifetime, shared by every instrument).
std::size_t ThisThreadStripe();

/// A cache-line-padded array of uint64 cells, one per stripe.
struct StripedU64 {
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells[kStripes];

  void Add(std::uint64_t n) {
    cells[ThisThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Sum() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
};

}  // namespace internal

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// "counter" / "gauge" / "histogram", as the exposition formats spell it.
const char* KindName(InstrumentKind kind);

/// Monotone event counter. Increment is one relaxed fetch_add on a striped
/// cell; Value() sums the stripes (exact once writers are quiescent).
class Counter {
 public:
  /// Registers under `name` in `registry`; the name must match
  /// [a-zA-Z_:][a-zA-Z0-9_:]* (Prometheus) and not collide with a
  /// different-kind instrument (throws std::invalid_argument).
  Counter(Registry& registry, std::string name, std::string help);
  /// Same, in the process-global registry.
  Counter(std::string name, std::string help);
  ~Counter();

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(std::uint64_t n = 1) { cells_.Add(n); }
  std::uint64_t Value() const { return cells_.Sum(); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  internal::StripedU64 cells_;
  Registry* registry_;
  std::string name_;
  std::string help_;
};

/// Last-set level. A single atomic double: gauges are set at bookkeeping
/// points (once per tick), never on a per-event hot path, so no striping.
class Gauge {
 public:
  Gauge(Registry& registry, std::string name, std::string help);
  Gauge(std::string name, std::string help);
  ~Gauge();

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::atomic<double> value_{0.0};
  Registry* registry_;
  std::string name_;
  std::string help_;
};

/// One consistent read of a histogram (or a same-name merge of several).
struct HistogramSnapshot {
  /// Ascending inclusive upper bounds; the implicit +Inf bucket is last in
  /// `counts` and has no entry here.
  std::vector<double> bounds;
  /// Per-bucket (NOT cumulative) counts, bounds.size() + 1 entries.
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Linear-interpolated quantile estimate from the bucket counts (the
  /// Prometheus histogram_quantile estimator). `q` is clamped to [0, 1].
  /// Returns 0 when the histogram is empty; the highest finite bound when
  /// the quantile lands in the +Inf bucket.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram: Observe(v) lands in the first bucket whose
/// upper bound is >= v (Prometheus `le` semantics), the +Inf bucket
/// otherwise. Buckets and the running sum are striped like Counter cells.
class Histogram {
 public:
  /// `bounds` are the ascending inclusive upper bounds (must be non-empty
  /// and strictly increasing; throws std::invalid_argument otherwise). Two
  /// same-name histograms must use identical bounds.
  Histogram(Registry& registry, std::string name, std::string help,
            std::vector<double> bounds);
  Histogram(std::string name, std::string help, std::vector<double> bounds);
  ~Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  HistogramSnapshot Snapshot() const;
  std::uint64_t count() const;
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

  /// The latency bucket ladder the serve/rl/router instruments share:
  /// 1 µs .. 10 s in a 1-2.5-5 progression, in milliseconds.
  static std::vector<double> LatencyBucketsMs();

 private:
  std::size_t BucketIndex(double v) const;

  std::vector<double> bounds_;
  /// Flat striped cells: stripe s owns [s * stride_, s * stride_ + buckets)
  /// of `cells_` (stride_ rounded to a cache line) and sums_[s * 8].
  std::size_t stride_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  std::unique_ptr<std::atomic<double>[]> sums_;
  Registry* registry_;
  std::string name_;
  std::string help_;
};

/// One exported metric: a same-named group of instruments aggregated
/// (counters and gauges sum; histograms merge bucket-wise).
struct MetricSnapshot {
  std::string name;
  std::string help;
  InstrumentKind kind = InstrumentKind::kCounter;
  /// Counter/gauge aggregate value (counters as exact integers up to 2^53).
  double value = 0.0;
  /// Histograms only.
  HistogramSnapshot histogram;
};

/// Name-keyed directory of live instruments. Thread-safe; touched only at
/// instrument construction/destruction and Snapshot() — never per event.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-global registry every default-constructed instrument
  /// joins and the exposition writers read. Intentionally leaked so that
  /// instruments with static storage duration can deregister safely at
  /// exit in any order.
  static Registry& Global();

  /// All live metrics, name-sorted, same-named instruments merged.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Number of registered instruments (not merged groups).
  std::size_t num_instruments() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Group {
    InstrumentKind kind = InstrumentKind::kCounter;
    std::string help;
    std::vector<const void*> members;
    std::vector<double> bounds;  // histograms: required-identical bounds
  };

  /// Validates the name, enforces kind/bounds consistency with any live
  /// same-name group, and adds the instrument. Throws std::invalid_argument
  /// on violation.
  void Register(InstrumentKind kind, const std::string& name,
                const std::string& help, const void* instrument,
                const std::vector<double>* bounds);
  void Deregister(InstrumentKind kind, const std::string& name,
                  const void* instrument);

  mutable std::mutex mutex_;
  std::map<std::string, Group> groups_;
};

/// Looks up one merged metric in a snapshot: returns true and stores the
/// aggregate in `*value` when an instrument with that name is present.
/// Counters/gauges read their merged value; histograms their sample count.
bool ReadSnapshotValue(const std::vector<MetricSnapshot>& snapshot,
                       const std::string& name, double* value);

/// Baseline-relative registry reads: captures a snapshot at construction
/// and answers "what is this metric now" (Read) and "how much did it move
/// since the baseline" (Delta). This is the one idiom behind the
/// self-validating demos, the incident bundles' metric sections, and the
/// tests that used to hand-diff counter pairs. Not a hot-path API — every
/// Read/Delta snapshots the whole registry.
///
/// Instruments are RAII: a name absent from a snapshot (its owner died, or
/// was not yet born) reads as 0, so a delta across an instrument's whole
/// lifetime is its final value.
class SnapshotDelta {
 public:
  /// Captures the baseline from the process-global registry.
  SnapshotDelta();
  explicit SnapshotDelta(const Registry& registry);

  /// Current merged value of `name` (histograms: sample count); 0 when no
  /// such instrument is live.
  double Read(const std::string& name) const;
  /// True when an instrument named `name` is live right now.
  bool Has(const std::string& name) const;
  /// Read(name) minus the baseline value (0 when absent from baseline).
  double Delta(const std::string& name) const;
  /// Baseline value captured at construction / last Rebase (0 if absent).
  double Baseline(const std::string& name) const;
  /// Re-captures the baseline, so subsequent deltas are relative to now.
  void Rebase();

 private:
  const Registry* registry_;
  std::map<std::string, double> baseline_;
};

}  // namespace mobirescue::obs
