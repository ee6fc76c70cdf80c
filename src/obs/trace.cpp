#include "obs/trace.hpp"

#include <algorithm>

namespace mobirescue::obs {

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* global = new TraceRecorder();
  return *global;
}

void TraceRecorder::Record(const char* name, std::uint64_t start_ns,
                           std::uint64_t dur_ns) {
  rings_.Push([&](std::uint32_t tid) {
    return TraceEvent{name, start_ns, dur_ns, tid};
  });
}

std::vector<TraceEvent> TraceRecorder::Collect() const {
  std::vector<TraceEvent> out = rings_.Collect();
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

}  // namespace mobirescue::obs
