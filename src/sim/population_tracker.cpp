#include "sim/population_tracker.hpp"

#include <algorithm>

namespace mobirescue::sim {

PopulationTracker::PopulationTracker(mobility::GpsTrace records)
    : records_(std::move(records)) {
  // Stable: traces can hold several records for one person at the same
  // timestamp, and "latest position" must mean last-in-trace-order — the
  // same winner an online consumer applying records in arrival order picks.
  std::stable_sort(records_.begin(), records_.end(),
                   [](const mobility::GpsRecord& a,
                      const mobility::GpsRecord& b) { return a.t < b.t; });
}

const std::vector<mobility::GpsRecord>& PopulationTracker::Snapshot(
    util::SimTime t) {
  for (; cursor_ < records_.size() && records_[cursor_].t <= t; ++cursor_) {
    const mobility::GpsRecord& r = records_[cursor_];
    const auto [it, inserted] = slot_of_.try_emplace(r.person, latest_.size());
    if (inserted) {
      latest_.push_back(r);
    } else {
      latest_[it->second] = r;
    }
  }
  return latest_;
}

mobility::GpsTrace DaySlice(const mobility::GpsTrace& trace, int day) {
  mobility::GpsTrace out;
  const double begin = day * util::kSecondsPerDay;
  const double end = begin + util::kSecondsPerDay;
  for (const mobility::GpsRecord& r : trace) {
    if (r.t >= begin && r.t < end) {
      mobility::GpsRecord copy = r;
      copy.t -= begin;
      out.push_back(copy);
    }
  }
  return out;
}

}  // namespace mobirescue::sim
