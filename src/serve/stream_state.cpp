#include "serve/stream_state.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "obs/recorder.hpp"

namespace mobirescue::serve {

namespace {

bool AllFinite(const mobility::GpsRecord& r) {
  return std::isfinite(r.t) && std::isfinite(r.pos.lat) &&
         std::isfinite(r.pos.lon) && std::isfinite(r.altitude_m) &&
         std::isfinite(r.speed_mps);
}

void EmitQuarantine(mobility::PersonId person, const char* reason) {
  char attrs[64];
  std::snprintf(attrs, sizeof(attrs), "person=%d reason=%s",
                static_cast<int>(person), reason);
  obs::FlightRecorder::Global().Emit(obs::Severity::kWarn, "serve",
                                     "quarantine", attrs);
}

}  // namespace

StreamState::StreamState(const roadnet::RoadNetwork& net,
                         const roadnet::SpatialIndex& index,
                         StreamStateConfig config)
    : index_(index),
      matcher_(net, index, config.match),
      flows_(net, config.flow_total_hours, config.moving_speed_threshold_mps),
      config_(config),
      shards_(std::max(1, config.shards)) {
  if (shards_ == 1) return;

  // Tile the spatial grid into `shards_` contiguous rectangular bands:
  // rows x cols with rows the largest divisor <= sqrt(shards_), so tiles
  // stay close to square (balanced perimeter -> balanced handoff traffic).
  int rows = 1;
  for (int d = 1; d * d <= shards_; ++d) {
    if (shards_ % d == 0) rows = d;
  }
  const int cols = shards_ / rows;
  const int n = index_.cells_per_side();
  cell_shard_.resize(index_.num_cells());
  for (int cy = 0; cy < n; ++cy) {
    const int band_row = static_cast<int>(
        static_cast<std::int64_t>(cy) * rows / n);
    for (int cx = 0; cx < n; ++cx) {
      const int band_col = static_cast<int>(
          static_cast<std::int64_t>(cx) * cols / n);
      cell_shard_[static_cast<std::size_t>(cy) * n + cx] =
          band_row * cols + band_col;
    }
  }
  segment_shard_.resize(net.num_segments());
  for (std::size_t sid = 0; sid < segment_shard_.size(); ++sid) {
    segment_shard_[sid] =
        cell_shard_[index_.CellOfSegment(static_cast<roadnet::SegmentId>(sid))];
  }
  flow_shards_.reserve(shards_);
  for (int s = 0; s < shards_; ++s) {
    flow_shards_.emplace_back(net, config.flow_total_hours,
                              config.moving_speed_threshold_mps);
  }
  scratch_.resize(shards_);
  handoff_.assign(shards_,
                  std::vector<std::vector<mobility::MatchedRecord>>(shards_));
}

StreamState::Latest* StreamState::ApplyCore(
    const mobility::GpsRecord& record) {
  if (config_.validate) {
    if (!AllFinite(record)) {
      ++counters_.quarantined_non_finite;
      quarantined_total_.Increment();
      quarantine_non_finite_.Increment();
      EmitQuarantine(record.person, "non_finite");
      return nullptr;
    }
    if (config_.accept_box && !config_.accept_box->Contains(record.pos)) {
      ++counters_.quarantined_out_of_box;
      quarantined_total_.Increment();
      quarantine_out_of_box_.Increment();
      EmitQuarantine(record.person, "out_of_box");
      return nullptr;
    }
  }
  const auto [it, inserted] = latest_.try_emplace(record.person);
  // Strictly-older records are stale; equal timestamps overwrite, which is
  // what the batch tracker's stable sort resolves to ("latest wins" among
  // equal-time records) — required for bit-identity.
  if (!inserted && config_.validate && record.t < it->second.record.t) {
    ++counters_.quarantined_stale;
    quarantined_total_.Increment();
    quarantine_stale_.Increment();
    EmitQuarantine(record.person, "stale");
    return nullptr;
  }
  it->second = {record, roadnet::kInvalidSegment};
  ++counters_.applied;
  dirty_ = true;
  return &it->second;
}

void StreamState::Apply(const mobility::GpsRecord& record) {
  if (shards_ > 1) {
    ApplyBatchSharded(&record, 1);
    return;
  }
  Latest* latest = ApplyCore(record);
  if (latest == nullptr) return;
  mobility::MatchedRecord m;
  if (matcher_.MatchRecord(record, &m)) {
    latest->segment = m.segment;
    ++counters_.matched;
    flows_.Ingest(m);
  } else {
    ++counters_.unmatched;
  }
}

void StreamState::ForEachShard(const std::function<void(int)>& fn) const {
  const int workers = std::min(config_.shard_workers, shards_);
  if (workers <= 1) {
    for (int s = 0; s < shards_; ++s) fn(s);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([this, &fn, w, workers] {
      for (int s = w; s < shards_; s += workers) fn(s);
    });
  }
  for (std::thread& t : threads) t.join();
}

void StreamState::ApplyBatchSharded(const mobility::GpsRecord* records,
                                    std::size_t n) {
  // Phase A — sequential in drain order, byte-identical to the single
  // path: validation, quarantine tallies, and the latest-position map
  // (whose stale check depends on per-person arrival order). Survivors are
  // bucketed by the shard of the grid cell their position falls in; the
  // cell is remembered alongside the record so phase B never recomputes
  // it. Scratch buffers keep their capacity across batches, so the
  // steady-state loop allocates nothing here.
  for (int s = 0; s < shards_; ++s) {
    scratch_[s].bucket.clear();
    scratch_[s].bucket_cell.clear();
    scratch_[s].bucket_latest.clear();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const mobility::GpsRecord& r = records[i];
    Latest* latest = ApplyCore(r);
    if (latest == nullptr) continue;
    const auto cell = static_cast<std::uint32_t>(index_.CellOf(r.pos));
    ShardScratch& sc = scratch_[cell_shard_[cell]];
    sc.bucket.push_back(r);
    sc.bucket_cell.push_back(cell);
    sc.bucket_latest.push_back(latest);
  }

  // Phase B — per processing shard: group the bucket by grid cell so
  // consecutive queries scan the same SoA candidate block, batch-match,
  // and route each matched record to the shard owning its matched segment.
  // Matching is per-record independent, so order changes nothing. The
  // grouping is a stable counting sort keyed by cell — one histogram, one
  // scatter — which leaves records in exactly the order a stable
  // (cell, position) sort would. A record stores its match in its
  // person's entry only while it sits at that entry's position: an
  // earlier record of the same person elsewhere in this batch must not,
  // and one at the same position matched the same segment. Equal
  // positions share a cell, hence a shard, so no two threads write one
  // entry.
  std::vector<std::uint64_t> matched_tally(shards_, 0);
  std::vector<std::uint64_t> unmatched_tally(shards_, 0);
  ForEachShard([&](int p) {
    ShardScratch& sc = scratch_[p];
    for (int o = 0; o < shards_; ++o) handoff_[p][o].clear();
    const std::size_t bn = sc.bucket.size();
    if (bn == 0) return;
    sc.cell_start.assign(index_.num_cells() + 1, 0);
    for (std::size_t i = 0; i < bn; ++i) ++sc.cell_start[sc.bucket_cell[i] + 1];
    for (std::size_t c = 1; c <= index_.num_cells(); ++c) {
      sc.cell_start[c] += sc.cell_start[c - 1];
    }
    sc.grouped.resize(bn);
    sc.grouped_latest.resize(bn);
    for (std::size_t i = 0; i < bn; ++i) {
      const std::uint32_t slot = sc.cell_start[sc.bucket_cell[i]]++;
      sc.grouped[slot] = sc.bucket[i];
      sc.grouped_latest[slot] = sc.bucket_latest[i];
    }

    sc.matched.clear();
    sc.matched.reserve(bn);
    sc.segment.resize(bn);
    matcher_.MatchBatch(sc.grouped.data(), bn, sc.segment.data(),
                        &sc.matched);
    for (std::size_t i = 0; i < bn; ++i) {
      Latest* latest = sc.grouped_latest[i];
      if (latest->record.pos == sc.grouped[i].pos) {
        latest->segment = sc.segment[i];
      }
    }
    matched_tally[p] = sc.matched.size();
    unmatched_tally[p] = bn - sc.matched.size();
    for (mobility::MatchedRecord& m : sc.matched) {
      handoff_[p][segment_shard_[m.segment]].push_back(m);
    }
  });

  // Phase C — per owner shard: flow ingest with the shard's private dedup
  // set. Owners hold disjoint segments, hence disjoint dense cells, so the
  // merged counts mirror (flows_) is written race-free and stays exact.
  ForEachShard([&](int o) {
    for (int p = 0; p < shards_; ++p) {
      for (const mobility::MatchedRecord& m : handoff_[p][o]) {
        const std::size_t idx = flow_shards_[o].IngestReturningCell(m);
        if (idx != mobility::FlowRateAnalyzer::kNoCell) {
          flows_.IncrementCell(idx);
        }
      }
    }
  });

  for (int s = 0; s < shards_; ++s) {
    counters_.matched += matched_tally[s];
    counters_.unmatched += unmatched_tally[s];
  }
}

void StreamState::ApplyBatch(const mobility::GpsRecord* records,
                             std::size_t n) {
  if (shards_ == 1) {
    for (std::size_t i = 0; i < n; ++i) Apply(records[i]);
    return;
  }
  ApplyBatchSharded(records, n);
}

void StreamState::ApplyAll(const std::vector<mobility::GpsRecord>& records) {
  ApplyBatch(records.data(), records.size());
}

const std::vector<mobility::GpsRecord>& StreamState::Snapshot(
    util::SimTime /*t*/) {
  if (dirty_) {
    snapshot_.clear();
    snapshot_segments_.clear();
    snapshot_.reserve(latest_.size());
    snapshot_segments_.reserve(latest_.size());
    for (const auto& [id, latest] : latest_) {
      snapshot_.push_back(latest.record);
      snapshot_segments_.push_back(latest.segment);
    }
    dirty_ = false;
  }
  return snapshot_;
}

std::vector<mobility::GpsRecord> StreamState::ExportLatest() const {
  std::vector<mobility::GpsRecord> out;
  out.reserve(latest_.size());
  for (const auto& [id, latest] : latest_) out.push_back(latest.record);
  std::sort(out.begin(), out.end(),
            [](const mobility::GpsRecord& a, const mobility::GpsRecord& b) {
              return a.person < b.person;
            });
  return out;
}

void StreamState::ExportFlowState(
    std::vector<std::pair<std::uint64_t, std::uint32_t>>* cells,
    std::vector<std::uint64_t>* seen) const {
  if (shards_ == 1) {
    flows_.ExportState(cells, seen);
    return;
  }
  // Merge of the per-shard exports. Cell ranges are disjoint across shards
  // and each shard exports ascending, so a sort by cell index reproduces
  // the single path's ascending dense scan byte-for-byte; dedup keys merge
  // into one sorted list the same way.
  cells->clear();
  seen->clear();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> shard_cells;
  std::vector<std::uint64_t> shard_seen;
  for (const mobility::FlowRateAnalyzer& fs : flow_shards_) {
    fs.ExportState(&shard_cells, &shard_seen);
    cells->insert(cells->end(), shard_cells.begin(), shard_cells.end());
    seen->insert(seen->end(), shard_seen.begin(), shard_seen.end());
  }
  std::sort(cells->begin(), cells->end());
  std::sort(seen->begin(), seen->end());
}

void StreamState::Restore(
    const std::vector<mobility::GpsRecord>& latest,
    const StreamStateCounters& counters,
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& flow_cells,
    const std::vector<std::uint64_t>& flow_seen) {
  latest_.clear();
  latest_.reserve(latest.size());
  // The checkpoint keeps no segments: the predictor matches these people
  // itself until their next record arrives.
  for (const mobility::GpsRecord& r : latest) {
    latest_[r.person] = {r, roadnet::kInvalidSegment};
  }
  counters_ = counters;
  if (shards_ == 1) {
    flows_.RestoreState(flow_cells, flow_seen);
  } else {
    // Partition the flat export by segment owner: cell index -> segment ->
    // shard; dedup key -> cell index (mod num_cells) -> segment -> shard.
    const std::size_t num_cells = flows_.num_cells();
    const int total_hours = flows_.total_hours();
    std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>>
        cells_by(shards_);
    std::vector<std::vector<std::uint64_t>> seen_by(shards_);
    for (const auto& cell : flow_cells) {
      if (cell.first >= num_cells) {
        throw std::runtime_error("StreamState: flow cell index out of range");
      }
      cells_by[segment_shard_[cell.first / total_hours]].push_back(cell);
    }
    for (const std::uint64_t key : flow_seen) {
      const std::uint64_t idx = key % num_cells;
      seen_by[segment_shard_[idx / total_hours]].push_back(key);
    }
    for (int s = 0; s < shards_; ++s) {
      flow_shards_[s].RestoreState(cells_by[s], seen_by[s]);
    }
    // Merged counts mirror: counts only, dedup stays in the shards.
    flows_.RestoreState(flow_cells, {});
  }
  dirty_ = true;
}

}  // namespace mobirescue::serve
