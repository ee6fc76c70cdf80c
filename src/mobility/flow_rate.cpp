#include "mobility/flow_rate.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/sim_time.hpp"

namespace mobirescue::mobility {

FlowRateAnalyzer::FlowRateAnalyzer(const roadnet::RoadNetwork& net,
                                   int total_hours,
                                   double moving_speed_threshold_mps)
    : net_(net),
      total_hours_(total_hours),
      moving_threshold_(moving_speed_threshold_mps) {
  if (total_hours <= 0) {
    throw std::invalid_argument("FlowRateAnalyzer: total_hours <= 0");
  }
  const std::size_t cells = net.num_segments() * static_cast<std::size_t>(total_hours);
  counts_.assign(cells, 0);
}

std::size_t FlowRateAnalyzer::CellIndex(roadnet::SegmentId seg,
                                        int hour) const {
  return static_cast<std::size_t>(seg) * total_hours_ + hour;
}

void FlowRateAnalyzer::Ingest(const MatchedRecord& m) {
  if (m.speed_mps < moving_threshold_) return;
  const int hour = util::HourIndex(m.t);
  if (hour < 0 || hour >= total_hours_) return;
  const std::size_t idx = CellIndex(m.segment, hour);
  // One count per (person, segment, hour), regardless of record order or
  // how the trace is split across Ingest calls. person < 2^32 and
  // cells < 2^31, so the combined key fits in 64 bits.
  const std::uint64_t key =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.person)) *
          counts_.size() +
      idx;
  if (!seen_.Insert(key)) return;
  ++counts_[idx];
}

void FlowRateAnalyzer::ExportState(
    std::vector<std::pair<std::uint64_t, std::uint32_t>>* cells,
    std::vector<std::uint64_t>* seen) const {
  cells->clear();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) cells->emplace_back(i, counts_[i]);
  }
  seen->clear();
  seen->reserve(seen_.size());
  seen_.ForEach([&](std::uint64_t key) { seen->push_back(key); });
  std::sort(seen->begin(), seen->end());
}

void FlowRateAnalyzer::RestoreState(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& cells,
    const std::vector<std::uint64_t>& seen) {
  counts_.assign(counts_.size(), 0);
  for (const auto& [idx, count] : cells) {
    if (idx >= counts_.size()) {
      throw std::runtime_error("FlowRateAnalyzer: cell index out of range");
    }
    if (counts_[idx] != 0) {
      throw std::runtime_error("FlowRateAnalyzer: duplicate cell index");
    }
    counts_[idx] = count;
  }
  seen_.clear();
  seen_.Reserve(seen.size());
  for (const std::uint64_t key : seen) {
    if (!seen_.Insert(key)) {
      throw std::runtime_error("FlowRateAnalyzer: duplicate dedup key");
    }
  }
}

void FlowRateAnalyzer::Ingest(const std::vector<MatchedRecord>& matched) {
  for (const MatchedRecord& m : matched) Ingest(m);
}

double FlowRateAnalyzer::SegmentFlow(roadnet::SegmentId seg, int hour) const {
  if (hour < 0 || hour >= total_hours_) return 0.0;
  return counts_[CellIndex(seg, hour)];
}

double FlowRateAnalyzer::SegmentFlowAvg(roadnet::SegmentId seg, int begin_hour,
                                        int end_hour) const {
  if (end_hour <= begin_hour) return 0.0;
  double sum = 0.0;
  for (int h = begin_hour; h < end_hour; ++h) sum += SegmentFlow(seg, h);
  return sum / (end_hour - begin_hour);
}

double FlowRateAnalyzer::RegionFlow(roadnet::RegionId region, int hour) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const roadnet::RoadSegment& seg : net_.segments()) {
    if (seg.region != region) continue;
    sum += SegmentFlow(seg.id, hour);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double FlowRateAnalyzer::RegionFlowAvg(roadnet::RegionId region,
                                       int begin_hour, int end_hour) const {
  if (end_hour <= begin_hour) return 0.0;
  double sum = 0.0;
  for (int h = begin_hour; h < end_hour; ++h) sum += RegionFlow(region, h);
  return sum / (end_hour - begin_hour);
}

std::vector<double> FlowRateAnalyzer::RegionDayProfile(
    roadnet::RegionId region, int day) const {
  std::vector<double> out(24, 0.0);
  for (int h = 0; h < 24; ++h) out[h] = RegionFlow(region, day * 24 + h);
  return out;
}

std::vector<double> FlowRateAnalyzer::SegmentDailyFlowDifference(
    int day_a, int day_b) const {
  std::vector<double> out;
  out.reserve(net_.num_segments());
  for (const roadnet::RoadSegment& seg : net_.segments()) {
    const double fa = SegmentFlowAvg(seg.id, day_a * 24, day_a * 24 + 24);
    const double fb = SegmentFlowAvg(seg.id, day_b * 24, day_b * 24 + 24);
    out.push_back(fa > fb ? fa - fb : fb - fa);
  }
  return out;
}

}  // namespace mobirescue::mobility
