// Vehicle flow rate measurement (Definition 2 of the paper): the average
// number of vehicles driving through a road segment per hour; a region's
// flow rate is the average over its segments.
//
// We estimate "a vehicle drove through segment e during hour h" from matched
// GPS records: a moving record (speed above a threshold) of person p matched
// to e in hour h counts p as one vehicle on e for h (deduplicated), which is
// how sparse cellphone data supports flow estimation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mobility/map_matcher.hpp"
#include "roadnet/road_network.hpp"
#include "util/flat_set.hpp"

namespace mobirescue::mobility {

class FlowRateAnalyzer {
 public:
  /// `total_hours` is the experiment-window length in hours.
  FlowRateAnalyzer(const roadnet::RoadNetwork& net, int total_hours,
                   double moving_speed_threshold_mps = 2.0);

  /// Ingests a single matched record. Safe to call in any order and any
  /// interleaving: (person, segment, hour) dedup holds across all calls,
  /// so a streamed, time-ordered feed produces the same flows as one batch
  /// Ingest of the full trace.
  void Ingest(const MatchedRecord& m);

  /// Ingests a batch of matched records (any order; dedup holds across
  /// repeated calls).
  void Ingest(const std::vector<MatchedRecord>& matched);

  /// Vehicles observed on a segment during an absolute hour.
  double SegmentFlow(roadnet::SegmentId seg, int hour) const;

  /// Average flow over a segment for a [begin_hour, end_hour) window.
  double SegmentFlowAvg(roadnet::SegmentId seg, int begin_hour,
                        int end_hour) const;

  /// Region flow at an absolute hour: mean over the region's segments.
  double RegionFlow(roadnet::RegionId region, int hour) const;

  /// Region flow averaged over a window of hours.
  double RegionFlowAvg(roadnet::RegionId region, int begin_hour,
                       int end_hour) const;

  /// 24 hourly region flows for a given day.
  std::vector<double> RegionDayProfile(roadnet::RegionId region,
                                       int day) const;

  /// Per-segment |flow(day_a) - flow(day_b)| averaged over 24 h, for every
  /// segment (Fig. 3's distribution).
  std::vector<double> SegmentDailyFlowDifference(int day_a, int day_b) const;

  int total_hours() const { return total_hours_; }

  /// Crash-recovery state export (DESIGN.md §13): the nonzero (cell, count)
  /// pairs and the sorted dedup keys. Deterministic — two analyzers that
  /// ingested the same records export identical state.
  void ExportState(std::vector<std::pair<std::uint64_t, std::uint32_t>>* cells,
                   std::vector<std::uint64_t>* seen) const;

  /// Restores state exported by ExportState into a freshly constructed
  /// analyzer of the same geometry. Throws std::runtime_error on
  /// out-of-range cell indices or duplicate entries.
  void RestoreState(
      const std::vector<std::pair<std::uint64_t, std::uint32_t>>& cells,
      const std::vector<std::uint64_t>& seen);

 private:
  std::size_t CellIndex(roadnet::SegmentId seg, int hour) const;

  const roadnet::RoadNetwork& net_;
  int total_hours_;
  double moving_threshold_;
  /// Dense (segment x hour) vehicle counts.
  std::vector<std::uint32_t> counts_;
  /// Dedup bookkeeping: (person, segment, hour) triples already counted,
  /// keyed person * num_cells + cell so the property survives arbitrary
  /// record order and repeated Ingest calls (streaming). A flat
  /// open-addressing set: at metro scale every probe is a cache miss, and
  /// one linear run beats the node chase of std::unordered_set roughly 2x.
  util::FlatSet64 seen_;
};

}  // namespace mobirescue::mobility
