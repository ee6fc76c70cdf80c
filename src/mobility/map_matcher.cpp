#include "mobility/map_matcher.hpp"

namespace mobirescue::mobility {

bool MapMatcher::MatchRecord(const GpsRecord& record,
                             MatchedRecord* out) const {
  const roadnet::SegmentId sid =
      index_.NearestSegment(record.pos, config_.max_match_distance_m);
  if (sid == roadnet::kInvalidSegment) return false;
  *out = {record.person, record.t, sid, record.speed_mps, record.pos};
  return true;
}

std::vector<MatchedRecord> MapMatcher::MatchTrace(const GpsTrace& trace) const {
  std::vector<MatchedRecord> out;
  out.reserve(trace.size());
  MatchedRecord m;
  for (const GpsRecord& r : trace) {
    if (MatchRecord(r, &m)) out.push_back(m);
  }
  return out;
}

std::vector<Trajectory> MapMatcher::BuildTrajectories(
    const std::vector<MatchedRecord>& matched) const {
  std::vector<Trajectory> out;
  for (const MatchedRecord& m : matched) {
    if (out.empty() || out.back().person != m.person) {
      out.push_back({m.person, {}, {}});
    }
    Trajectory& traj = out.back();
    const roadnet::LandmarkId lm = net_.segment(m.segment).from;
    // Collapse consecutive identical landmarks (stationary pings).
    if (!traj.landmarks.empty() && traj.landmarks.back() == lm) continue;
    traj.times.push_back(m.t);
    traj.landmarks.push_back(lm);
  }
  return out;
}

}  // namespace mobirescue::mobility
