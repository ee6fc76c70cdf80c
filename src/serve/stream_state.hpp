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
//
// Region sharding (DESIGN.md §17): with config.shards > 1, ApplyBatch runs
// the heavy per-record work sharded by geography. The spatial grid is tiled
// into `shards` contiguous rectangular bands; each batch is (a) validated
// and applied to the latest-position map sequentially in drain order —
// byte-identical to the single path — then (b) bucketed by the *record
// position's* tile, cell-sorted and matched per tile (the nearest-segment
// query the single path runs per record, now over cell-grouped input), then
// (c) every matched record is handed to the tile that *owns its matched
// segment* (by midpoint), whose private FlowRateAnalyzer ingests it.
// Segment ownership makes the per-shard flow cells disjoint, so phases (b)
// and (c) parallelise without locks (config.shard_workers) and a merged
// counts mirror stays exact. Matching
// is per-record independent and flow dedup is order-independent, so the
// sharded path's snapshot, counters, and exported flow state are
// bit-identical to the single-state path (region_shard_test proves it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
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
  /// Geographic shards for ApplyBatch (1 = the classic single-state path).
  /// Results are bit-identical for every value; > 1 groups each batch's
  /// matching by grid cell and splits flow ingest by segment owner. Both
  /// paths run the same nearest-segment query.
  int shards = 1;
  /// Threads for the sharded match/ingest phases. 0 runs them inline on
  /// the caller (the right default on small machines); results are
  /// identical either way.
  int shard_workers = 0;
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

  /// Consumes one drained batch. With config.shards == 1 this is exactly
  /// Apply in a loop; with shards > 1 it runs the region-sharded phases
  /// (see the header comment) — same final state either way.
  void ApplyBatch(const mobility::GpsRecord* records, std::size_t n);

  void ApplyAll(const std::vector<mobility::GpsRecord>& records);

  /// Every person's latest applied position. `t` is accepted for interface
  /// compatibility (PopulationSource); the service only snapshots after
  /// draining all records with time <= t, so the content equals the batch
  /// tracker's Snapshot(t).
  const std::vector<mobility::GpsRecord>& Snapshot(util::SimTime t) override;

  /// Parallel to the last Snapshot(): the segment each person's latest
  /// record matched to within config.match.max_match_distance_m, or
  /// kInvalidSegment when it matched none or was restored (Restore keeps
  /// no segments).
  std::span<const roadnet::SegmentId> SnapshotSegments() const override {
    return snapshot_segments_;
  }

  /// Crash recovery (DESIGN.md §13): the latest-position map sorted by
  /// person id, and the flow analyzer's dedup/count state. The sharded
  /// path exports the merge of its per-shard analyzers — identical bytes
  /// to the single path's export.
  std::vector<mobility::GpsRecord> ExportLatest() const;
  void ExportFlowState(
      std::vector<std::pair<std::uint64_t, std::uint32_t>>* cells,
      std::vector<std::uint64_t>* seen) const;

  /// Restores state captured by the Export* methods into a freshly built
  /// StreamState over the same network. Replaces (not merges) the current
  /// state. Shard counts may differ between exporter and restorer.
  void Restore(const std::vector<mobility::GpsRecord>& latest,
               const StreamStateCounters& counters,
               const std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                   flow_cells,
               const std::vector<std::uint64_t>& flow_seen);

  /// Flow reads. In sharded mode this is the merged counts mirror — every
  /// per-shard increment lands here too, so SegmentFlow/RegionFlow reads
  /// cost the same as the single path (its dedup set stays empty; dedup
  /// lives in the per-shard analyzers).
  const mobility::FlowRateAnalyzer& flows() const { return flows_; }
  const StreamStateCounters& counters() const { return counters_; }
  std::size_t num_people_seen() const { return latest_.size(); }
  const StreamStateConfig& config() const { return config_; }
  int num_shards() const { return shards_; }

 private:
  /// A person's latest applied record and the segment it matched to
  /// (kInvalidSegment until matched, when unmatched, and after Restore).
  struct Latest {
    mobility::GpsRecord record;
    roadnet::SegmentId segment = roadnet::kInvalidSegment;
  };

  /// Validation + latest-position update for one record, sequential in
  /// drain order (shared verbatim by both paths). Returns the person's
  /// entry when the record was applied and still needs matching/flow
  /// ingest, nullptr when it was quarantined.
  Latest* ApplyCore(const mobility::GpsRecord& record);
  void ApplyBatchSharded(const mobility::GpsRecord* records, std::size_t n);
  /// Runs `fn(shard)` for every shard, inline or on shard_workers threads.
  void ForEachShard(const std::function<void(int)>& fn) const;

  const roadnet::SpatialIndex& index_;
  mobility::MapMatcher matcher_;
  mobility::FlowRateAnalyzer flows_;
  StreamStateConfig config_;
  StreamStateCounters counters_;
  int shards_ = 1;

  /// Grid cell -> owning shard (contiguous rectangular tiles), and segment
  /// -> owning shard (by midpoint cell). Empty when shards_ == 1.
  std::vector<int> cell_shard_;
  std::vector<int> segment_shard_;
  /// Per-shard flow analyzers (dedup + counts over the shard's own
  /// segments; cell ranges disjoint across shards).
  std::vector<mobility::FlowRateAnalyzer> flow_shards_;

  /// Reusable per-batch scratch, indexed by shard so a threaded phase B
  /// never shares a buffer. Capacity persists across ApplyBatch calls, so
  /// the steady-state hot loop allocates nothing.
  struct ShardScratch {
    std::vector<mobility::GpsRecord> bucket;  ///< phase A survivors
    std::vector<std::uint32_t> bucket_cell;   ///< grid cell per survivor
    std::vector<Latest*> bucket_latest;       ///< person entry per survivor
    std::vector<std::uint32_t> cell_start;    ///< counting-sort offsets
    std::vector<mobility::GpsRecord> grouped;
    std::vector<Latest*> grouped_latest;
    std::vector<roadnet::SegmentId> segment;  ///< match per grouped record
    std::vector<mobility::MatchedRecord> matched;
  };
  std::vector<ShardScratch> scratch_;
  std::vector<std::vector<std::vector<mobility::MatchedRecord>>> handoff_;

  std::unordered_map<mobility::PersonId, Latest> latest_;
  std::vector<mobility::GpsRecord> snapshot_;
  std::vector<roadnet::SegmentId> snapshot_segments_;
  bool dirty_ = true;

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
