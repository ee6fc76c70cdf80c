// Incrementally maintained derived state for the online dispatch service:
// the streamed replacement for PopulationTracker + batch map-matching +
// batch FlowRateAnalyzer::Ingest.
//
// Apply() consumes one raw GPS record at a time (already drained from the
// ingestion queues — single-threaded by the service's tick loop) and keeps
//   - each person's latest known position (the dispatcher's population
//     snapshot: sim::PopulationSource),
//   - the record's map-matched segment (mobility::MapMatcher::MatchRecord),
//     kept next to the person's latest position for the predictor
//     (SnapshotSegments),
//   - per-(segment, hour) vehicle flow counts
//     (mobility::FlowRateAnalyzer::Ingest single-record path, whose
//     (person, segment, hour) dedup is order- and batching-independent).
//
// Apply() also guards the derived state against corrupt input (DESIGN.md
// §13): records with non-finite fields, positions outside the accept box,
// or a timestamp strictly older than the person's latest applied record are
// *quarantined* — counted per reason, never applied, never fed to the flow
// analyzer. Quarantine keeps the bit-identity contract intact: on clean
// input nothing is ever quarantined (equal timestamps still overwrite,
// matching the batch tracker's stable-sort "latest wins" semantics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mobility/flow_rate.hpp"
#include "mobility/gps_record.hpp"
#include "mobility/map_matcher.hpp"
#include "obs/metrics.hpp"
#include "roadnet/road_network.hpp"
#include "roadnet/spatial_index.hpp"
#include "sim/population_tracker.hpp"
#include "util/geo.hpp"

namespace mobirescue::serve {

struct StreamStateConfig {
  mobility::MatchConfig match;
  /// Flow analyzer parameters: records are in simulation day time, so 24
  /// hourly cells cover the horizon.
  int flow_total_hours = 24;
  double moving_speed_threshold_mps = 2.0;
  /// Input validation (DESIGN.md §13). When false, Apply() trusts its input
  /// completely (the pre-quarantine behaviour).
  bool validate = true;
  /// When set, positions outside this box are quarantined. Unset by
  /// default so a bare StreamState accepts any finite position; the
  /// DispatchService fills it in with the city's bounding box.
  std::optional<util::BoundingBox> accept_box;
};

/// Counters over everything Apply() has seen.
struct StreamStateCounters {
  std::uint64_t applied = 0;    // records consumed
  std::uint64_t matched = 0;    // snapped to a segment (fed to flows)
  std::uint64_t unmatched = 0;  // too far from any segment
  // Quarantined records, by rejection reason (never applied):
  std::uint64_t quarantined_non_finite = 0;  // NaN/inf in any field
  std::uint64_t quarantined_out_of_box = 0;  // outside config.accept_box
  std::uint64_t quarantined_stale = 0;  // older than the person's latest

  std::uint64_t quarantined() const {
    return quarantined_non_finite + quarantined_out_of_box +
           quarantined_stale;
  }
};

class StreamState : public sim::PopulationSource {
 public:
  StreamState(const roadnet::RoadNetwork& net,
              const roadnet::SpatialIndex& index,
              StreamStateConfig config = {});

  /// Consumes one record: updates the person's latest position and, when
  /// the record matches a segment, the incremental flow counts. Records of
  /// one person must arrive in time order (the sharded queue and the
  /// per-person streamer workers guarantee this); interleaving across
  /// persons is free. Corrupt records are quarantined, not applied.
  void Apply(const mobility::GpsRecord& record);

  /// Apply over a drained batch, in order.
  void ApplyAll(std::span<const mobility::GpsRecord> records);

  /// Every person's latest applied position, one row per person in
  /// first-seen order: the state's own record array, not a copy. `t` is
  /// accepted for interface compatibility (PopulationSource); the service
  /// only snapshots after draining all records with time <= t, so the
  /// content equals the batch tracker's Snapshot(t). The reference is valid
  /// until the next Snapshot(), Apply() or Restore().
  const std::vector<mobility::GpsRecord>& Snapshot(util::SimTime t) override;

  /// Parallel to Snapshot(): the segment each person's latest record
  /// matched to within config.match.max_match_distance_m, or
  /// kInvalidSegment when it matched none or was restored (Restore keeps
  /// no segments).
  std::span<const roadnet::SegmentId> SnapshotSegments() const override {
    return segments_;
  }

  /// Crash recovery (DESIGN.md §13): the latest records sorted by person
  /// id, and the flow analyzer's dedup/count state.
  std::vector<mobility::GpsRecord> ExportLatest() const;
  void ExportFlowState(
      std::vector<std::pair<std::uint64_t, std::uint32_t>>* cells,
      std::vector<std::uint64_t>* seen) const;

  /// Restores state captured by the Export* methods into a freshly built
  /// StreamState over the same network. Replaces (not merges) the current
  /// state. Rows are rebuilt in `latest` order; a person listed twice keeps
  /// the later record.
  void Restore(const std::vector<mobility::GpsRecord>& latest,
               const StreamStateCounters& counters,
               const std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                   flow_cells,
               const std::vector<std::uint64_t>& flow_seen);

  const mobility::FlowRateAnalyzer& flows() const { return flows_; }
  const StreamStateCounters& counters() const { return counters_; }
  std::size_t num_people_seen() const { return records_.size(); }
  const StreamStateConfig& config() const { return config_; }

 private:
  mobility::MapMatcher matcher_;
  mobility::FlowRateAnalyzer flows_;
  StreamStateConfig config_;
  StreamStateCounters counters_;

  // One slot per person, in first-seen order: the person's latest applied
  // record and the segment it matched to (kInvalidSegment when unmatched
  // and after Restore). Apply writes the slot in place; the two arrays are
  // the snapshot.
  std::unordered_map<mobility::PersonId, std::size_t> slot_of_;
  std::vector<mobility::GpsRecord> records_;
  std::vector<roadnet::SegmentId> segments_;

  // Registry-backed quarantine tallies (one aggregate + one per reason).
  obs::Counter quarantined_total_{
      "serve_quarantined_total",
      "GPS records rejected by input validation (all reasons)."};
  obs::Counter quarantine_non_finite_{
      "serve_quarantine_non_finite_total",
      "GPS records quarantined for NaN/inf fields."};
  obs::Counter quarantine_out_of_box_{
      "serve_quarantine_out_of_box_total",
      "GPS records quarantined for positions outside the accept box."};
  obs::Counter quarantine_stale_{
      "serve_quarantine_stale_total",
      "GPS records quarantined for non-monotonic per-person timestamps."};
};

}  // namespace mobirescue::serve
