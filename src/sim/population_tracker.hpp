// Tracks each person's latest known GPS position as simulation time
// advances — the "real-time distribution of people collected from people's
// cellphones" that MobiRescue's SVM predictor consumes (problem statement,
// Section III).
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "mobility/gps_record.hpp"
#include "roadnet/road_network.hpp"

namespace mobirescue::sim {

/// Where the dispatcher's population snapshots come from. The batch
/// pipeline replays a recorded day through a PopulationTracker; the online
/// service (src/serve) implements this over its streamed ingestion state.
/// Consumers (e.g. MobiRescueDispatcher) only depend on the snapshot
/// *content* — the latest record per person at or before t — never on the
/// row order, so any implementation with equal content yields bit-identical
/// dispatch decisions.
class PopulationSource {
 public:
  virtual ~PopulationSource() = default;

  /// Advances to time t and returns every person's latest position at or
  /// before t. The returned reference is valid until the next Snapshot()
  /// or, for a streamed source, its next Apply() or Restore().
  virtual const std::vector<mobility::GpsRecord>& Snapshot(util::SimTime t) = 0;

  /// Parallel to the last Snapshot(): the segment the source map-matched
  /// each row's record to, kInvalidSegment where it has none. Empty when
  /// the source does not map-match. Valid as long as that snapshot.
  virtual std::span<const roadnet::SegmentId> SnapshotSegments() const = 0;
};

class PopulationTracker : public PopulationSource {
 public:
  /// `records` may be in any order; they are re-sorted by time. Timestamps
  /// must already be re-timed to simulation time (0 = day start).
  explicit PopulationTracker(mobility::GpsTrace records);

  /// Advances to time t and returns every person's latest position at or
  /// before t, one row per person in first-seen order. The returned
  /// reference is valid until the next call.
  const std::vector<mobility::GpsRecord>& Snapshot(util::SimTime t) override;

  /// Empty: the batch tracker does not map-match.
  std::span<const roadnet::SegmentId> SnapshotSegments() const override {
    return {};
  }

  std::size_t num_people_seen() const { return latest_.size(); }

 private:
  mobility::GpsTrace records_;  // sorted by time
  std::size_t cursor_ = 0;
  // One slot per person in first-seen order, overwritten in place: the
  // latest records are the snapshot.
  std::unordered_map<mobility::PersonId, std::size_t> slot_of_;
  std::vector<mobility::GpsRecord> latest_;
};

/// Extracts one day's records from a full-window trace and re-times them to
/// [0, 24 h).
mobility::GpsTrace DaySlice(const mobility::GpsTrace& trace, int day);

}  // namespace mobirescue::sim
