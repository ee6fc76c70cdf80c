#include "serve/stream_state.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

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
    : matcher_(net, index, config.match),
      flows_(net, config.flow_total_hours, config.moving_speed_threshold_mps),
      config_(config) {}

void StreamState::Apply(const mobility::GpsRecord& record) {
  if (config_.validate) {
    if (!AllFinite(record)) {
      ++counters_.quarantined_non_finite;
      quarantined_total_.Increment();
      quarantine_non_finite_.Increment();
      EmitQuarantine(record.person, "non_finite");
      return;
    }
    if (config_.accept_box && !config_.accept_box->Contains(record.pos)) {
      ++counters_.quarantined_out_of_box;
      quarantined_total_.Increment();
      quarantine_out_of_box_.Increment();
      EmitQuarantine(record.person, "out_of_box");
      return;
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
    return;
  }
  it->second = {record, roadnet::kInvalidSegment};
  ++counters_.applied;
  dirty_ = true;
  mobility::MatchedRecord m;
  if (matcher_.MatchRecord(record, &m)) {
    it->second.segment = m.segment;
    ++counters_.matched;
    flows_.Ingest(m);
  } else {
    ++counters_.unmatched;
  }
}

void StreamState::ApplyAll(std::span<const mobility::GpsRecord> records) {
  for (const mobility::GpsRecord& r : records) Apply(r);
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
  flows_.ExportState(cells, seen);
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
  flows_.RestoreState(flow_cells, flow_seen);
  dirty_ = true;
}

}  // namespace mobirescue::serve
