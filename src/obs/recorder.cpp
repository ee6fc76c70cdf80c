#include "obs/recorder.hpp"

#include <algorithm>
#include <utility>

namespace mobirescue::obs {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* global = new FlightRecorder();
  return *global;
}

void FlightRecorder::Emit(Severity severity, const char* component,
                          const char* kind, std::string attrs) {
  if (!enabled()) return;
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t ts_ns = NowNs();
  rings_.Push([&](std::uint32_t) {
    return Event{seq, ts_ns, severity, component, kind, std::move(attrs)};
  });
}

std::vector<Event> FlightRecorder::Collect() const {
  std::vector<Event> out = rings_.Collect();
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

std::vector<Event> FlightRecorder::CollectRecent(
    std::size_t max_events) const {
  std::vector<Event> all = Collect();
  if (all.size() > max_events) {
    all.erase(all.begin(),
              all.begin() + static_cast<std::ptrdiff_t>(all.size() - max_events));
  }
  return all;
}

}  // namespace mobirescue::obs
