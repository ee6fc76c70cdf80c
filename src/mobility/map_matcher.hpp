// GPS-to-road map matching: converts cleaned GPS records into
// landmark/segment trajectories (Definition 1 of the paper).
#pragma once

#include <vector>

#include "mobility/gps_record.hpp"
#include "roadnet/road_network.hpp"
#include "roadnet/spatial_index.hpp"

namespace mobirescue::mobility {

/// A GPS record snapped to the road network.
struct MatchedRecord {
  PersonId person = kInvalidPerson;
  util::SimTime t = 0.0;
  roadnet::SegmentId segment = roadnet::kInvalidSegment;
  double speed_mps = 0.0;
  util::GeoPoint raw_pos;
};

/// A person's trajectory: the time-ordered sequence of matched landmarks
/// (we store the entry landmark of each matched segment).
struct Trajectory {
  PersonId person = kInvalidPerson;
  std::vector<util::SimTime> times;
  std::vector<roadnet::LandmarkId> landmarks;
};

struct MatchConfig {
  /// Records farther than this from any segment are unmatched and dropped.
  double max_match_distance_m = 400.0;
};

class MapMatcher {
 public:
  MapMatcher(const roadnet::RoadNetwork& net, const roadnet::SpatialIndex& index,
             MatchConfig config = {})
      : net_(net), index_(index), config_(config) {}

  /// Matches one record to its nearest segment. Returns false (and leaves
  /// `out` untouched) when no segment lies within max_match_distance_m —
  /// the streaming-ingestion entry point (src/serve) for per-record
  /// incremental matching.
  bool MatchRecord(const GpsRecord& record, MatchedRecord* out) const;

  /// Matches every record to its nearest segment.
  std::vector<MatchedRecord> MatchTrace(const GpsTrace& trace) const;

  /// Builds per-person landmark trajectories from matched records (which
  /// must be sorted by (person, time), as CleanTrace guarantees).
  std::vector<Trajectory> BuildTrajectories(
      const std::vector<MatchedRecord>& matched) const;

 private:
  const roadnet::RoadNetwork& net_;
  const roadnet::SpatialIndex& index_;
  MatchConfig config_;
};

}  // namespace mobirescue::mobility
