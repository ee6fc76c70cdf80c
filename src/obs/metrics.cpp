#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobirescue::obs {

const char* KindName(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "unknown";
}

namespace internal {

std::size_t ThisThreadStripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

}  // namespace internal

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  for (const char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

}  // namespace

// --- HistogramSnapshot -----------------------------------------------------

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t next = cumulative + counts[b];
    if (static_cast<double>(next) >= target && counts[b] > 0) {
      if (b >= bounds.size()) {
        // +Inf bucket: no finite upper edge to interpolate toward.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      const double upper = bounds[b];
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[b]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, within));
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// --- Counter ---------------------------------------------------------------

Counter::Counter(Registry& registry, std::string name, std::string help)
    : registry_(&registry), name_(std::move(name)), help_(std::move(help)) {
  registry_->Register(InstrumentKind::kCounter, name_, help_, this, nullptr);
}

Counter::Counter(std::string name, std::string help)
    : Counter(Registry::Global(), std::move(name), std::move(help)) {}

Counter::~Counter() {
  registry_->Deregister(InstrumentKind::kCounter, name_, this);
}

// --- Gauge -----------------------------------------------------------------

Gauge::Gauge(Registry& registry, std::string name, std::string help)
    : registry_(&registry), name_(std::move(name)), help_(std::move(help)) {
  registry_->Register(InstrumentKind::kGauge, name_, help_, this, nullptr);
}

Gauge::Gauge(std::string name, std::string help)
    : Gauge(Registry::Global(), std::move(name), std::move(help)) {}

Gauge::~Gauge() {
  registry_->Deregister(InstrumentKind::kGauge, name_, this);
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(Registry& registry, std::string name, std::string help,
                     std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      registry_(&registry),
      name_(std::move(name)),
      help_(std::move(help)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram " + name_ + ": empty bounds");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram " + name_ +
                                ": bounds must be strictly increasing");
  }
  const std::size_t buckets = bounds_.size() + 1;  // +Inf last
  stride_ = (buckets + 7) / 8 * 8;                 // cache-line multiple
  cells_ = std::make_unique<std::atomic<std::uint64_t>[]>(stride_ *
                                                          internal::kStripes);
  sums_ = std::make_unique<std::atomic<double>[]>(8 * internal::kStripes);
  for (std::size_t i = 0; i < stride_ * internal::kStripes; ++i) {
    cells_[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < 8 * internal::kStripes; ++i) {
    sums_[i].store(0.0, std::memory_order_relaxed);
  }
  registry_->Register(InstrumentKind::kHistogram, name_, help_, this,
                      &bounds_);
}

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds)
    : Histogram(Registry::Global(), std::move(name), std::move(help),
                std::move(bounds)) {}

Histogram::~Histogram() {
  registry_->Deregister(InstrumentKind::kHistogram, name_, this);
}

std::size_t Histogram::BucketIndex(double v) const {
  // First bound >= v: Prometheus `le` (inclusive upper) semantics. NaN
  // compares false against everything and lands in the +Inf bucket.
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

void Histogram::Observe(double v) {
  const std::size_t stripe = internal::ThisThreadStripe();
  cells_[stripe * stride_ + BucketIndex(v)].fetch_add(
      1, std::memory_order_relaxed);
  sums_[stripe * 8].fetch_add(v, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (std::size_t s = 0; s < internal::kStripes; ++s) {
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] +=
          cells_[s * stride_ + b].load(std::memory_order_relaxed);
    }
    snap.sum += sums_[s * 8].load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.counts) snap.count += c;
  return snap;
}

std::uint64_t Histogram::count() const { return Snapshot().count; }

double Histogram::sum() const { return Snapshot().sum; }

std::vector<double> Histogram::LatencyBucketsMs() {
  return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,  0.25,
          0.5,   1.0,    2.5,   5.0,  10.0,  25.0, 50.0, 100.0,
          250.0, 500.0,  1000.0, 2500.0, 5000.0, 10000.0};
}

// --- Registry --------------------------------------------------------------

Registry& Registry::Global() {
  // Leaked on purpose: static-duration instruments (e.g. the SVM's
  // function-local counters) deregister during exit teardown, which must
  // not race a destroyed registry.
  static Registry* global = new Registry();
  return *global;
}

void Registry::Register(InstrumentKind kind, const std::string& name,
                        const std::string& help, const void* instrument,
                        const std::vector<double>* bounds) {
  if (!ValidMetricName(name)) {
    throw std::invalid_argument("obs: invalid metric name '" + name + "'");
  }
  std::lock_guard lock(mutex_);
  auto [it, inserted] = groups_.try_emplace(name);
  Group& group = it->second;
  if (inserted) {
    group.kind = kind;
    group.help = help;
    if (bounds != nullptr) group.bounds = *bounds;
  } else {
    if (group.kind != kind) {
      throw std::invalid_argument("obs: metric '" + name +
                                  "' re-registered with a different kind");
    }
    if (bounds != nullptr && group.bounds != *bounds) {
      throw std::invalid_argument("obs: histogram '" + name +
                                  "' re-registered with different bounds");
    }
  }
  group.members.push_back(instrument);
}

void Registry::Deregister(InstrumentKind kind, const std::string& name,
                          const void* instrument) {
  std::lock_guard lock(mutex_);
  const auto it = groups_.find(name);
  if (it == groups_.end() || it->second.kind != kind) return;
  auto& members = it->second.members;
  members.erase(std::remove(members.begin(), members.end(), instrument),
                members.end());
  if (members.empty()) groups_.erase(it);
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(groups_.size());
  for (const auto& [name, group] : groups_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.help = group.help;
    snap.kind = group.kind;
    switch (group.kind) {
      case InstrumentKind::kCounter:
        for (const void* m : group.members) {
          snap.value += static_cast<double>(
              static_cast<const Counter*>(m)->Value());
        }
        break;
      case InstrumentKind::kGauge:
        // Same-named gauges sum as well: instances measure disjoint parts
        // of one process-level quantity (e.g. per-service queue depth).
        for (const void* m : group.members) {
          snap.value += static_cast<const Gauge*>(m)->Value();
        }
        break;
      case InstrumentKind::kHistogram: {
        snap.histogram.bounds = group.bounds;
        snap.histogram.counts.assign(group.bounds.size() + 1, 0);
        for (const void* m : group.members) {
          const HistogramSnapshot h =
              static_cast<const Histogram*>(m)->Snapshot();
          for (std::size_t b = 0; b < h.counts.size(); ++b) {
            snap.histogram.counts[b] += h.counts[b];
          }
          snap.histogram.count += h.count;
          snap.histogram.sum += h.sum;
        }
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;  // std::map iteration: already name-sorted
}

std::size_t Registry::num_instruments() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, group] : groups_) n += group.members.size();
  return n;
}

// --- SnapshotDelta ---------------------------------------------------------

bool ReadSnapshotValue(const std::vector<MetricSnapshot>& snapshot,
                       const std::string& name, double* value) {
  for (const MetricSnapshot& m : snapshot) {
    if (m.name != name) continue;
    if (value != nullptr) {
      *value = m.kind == InstrumentKind::kHistogram
                   ? static_cast<double>(m.histogram.count)
                   : m.value;
    }
    return true;
  }
  return false;
}

SnapshotDelta::SnapshotDelta() : SnapshotDelta(Registry::Global()) {}

SnapshotDelta::SnapshotDelta(const Registry& registry)
    : registry_(&registry) {
  Rebase();
}

void SnapshotDelta::Rebase() {
  baseline_.clear();
  for (const MetricSnapshot& m : registry_->Snapshot()) {
    baseline_[m.name] = m.kind == InstrumentKind::kHistogram
                            ? static_cast<double>(m.histogram.count)
                            : m.value;
  }
}

double SnapshotDelta::Read(const std::string& name) const {
  double value = 0.0;
  ReadSnapshotValue(registry_->Snapshot(), name, &value);
  return value;
}

bool SnapshotDelta::Has(const std::string& name) const {
  return ReadSnapshotValue(registry_->Snapshot(), name, nullptr);
}

double SnapshotDelta::Baseline(const std::string& name) const {
  const auto it = baseline_.find(name);
  return it == baseline_.end() ? 0.0 : it->second;
}

double SnapshotDelta::Delta(const std::string& name) const {
  return Read(name) - Baseline(name);
}

}  // namespace mobirescue::obs
