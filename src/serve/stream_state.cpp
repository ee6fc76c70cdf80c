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
  const auto [it, inserted] =
      slot_of_.try_emplace(record.person, records_.size());
  const std::size_t slot = it->second;
  if (inserted) {
    records_.emplace_back();
    segments_.emplace_back();
  } else if (config_.validate && record.t < records_[slot].t) {
    // Strictly-older records are stale; equal timestamps overwrite, which
    // is what the batch tracker's stable sort resolves to ("latest wins"
    // among equal-time records) — required for bit-identity.
    ++counters_.quarantined_stale;
    quarantined_total_.Increment();
    quarantine_stale_.Increment();
    EmitQuarantine(record.person, "stale");
    return;
  }
  records_[slot] = record;
  ++counters_.applied;
  mobility::MatchedRecord m;
  if (matcher_.MatchRecord(record, &m)) {
    segments_[slot] = m.segment;
    ++counters_.matched;
    flows_.Ingest(m);
  } else {
    segments_[slot] = roadnet::kInvalidSegment;
    ++counters_.unmatched;
  }
}

void StreamState::ApplyAll(std::span<const mobility::GpsRecord> records) {
  for (const mobility::GpsRecord& r : records) Apply(r);
}

const std::vector<mobility::GpsRecord>& StreamState::Snapshot(
    util::SimTime /*t*/) {
  return records_;
}

std::vector<mobility::GpsRecord> StreamState::ExportLatest() const {
  std::vector<mobility::GpsRecord> out = records_;
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
  slot_of_.clear();
  slot_of_.reserve(latest.size());
  records_.clear();
  for (const mobility::GpsRecord& r : latest) {
    const auto [it, inserted] = slot_of_.try_emplace(r.person, records_.size());
    if (inserted) {
      records_.push_back(r);
    } else {
      records_[it->second] = r;
    }
  }
  // The checkpoint keeps no segments: the predictor matches these people
  // itself until their next record arrives.
  segments_.assign(records_.size(), roadnet::kInvalidSegment);
  counters_ = counters;
  flows_.RestoreState(flow_cells, flow_seen);
}

}  // namespace mobirescue::serve
