#include "dispatch/featurizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

namespace mobirescue::dispatch {

DispatchFeaturizer::DispatchFeaturizer(const roadnet::City& city,
                                       FeaturizerConfig config)
    : city_(city), router_(city.network), config_(config) {}

RoundData DispatchFeaturizer::PrepareRound(
    predict::Distribution demand, const roadnet::NetworkCondition& condition,
    const std::vector<roadnet::SegmentId>& must_include) const {
  RoundData round;
  round.demand = std::move(demand);

  std::unordered_set<roadnet::SegmentId> included;
  for (roadnet::SegmentId seg : must_include) {
    round.pending.insert(seg);
    if (included.insert(seg).second) round.candidates.push_back(seg);
  }

  std::vector<std::pair<int, roadnet::SegmentId>> ranked;
  ranked.reserve(round.demand.size());
  for (const auto& [seg, count] : round.demand) {
    if (count <= 0) continue;
    round.total_demand += count;
    if (included.count(seg) != 0) continue;
    // Closed (flooded) segments stay eligible: trapped people are exactly
    // there, and teams drive to the water's edge (the segment's entry
    // landmark) to pick them up.
    ranked.emplace_back(count, seg);
  }
  // Only the top k are kept. The order is total (segments are distinct),
  // so the kept candidates and their order do not depend on how the map
  // iterates or on which sort ranks them.
  const std::size_t k =
      std::min<std::size_t>(ranked.size(), static_cast<std::size_t>(config_.top_k));
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  for (std::size_t i = 0; i < k; ++i) round.candidates.push_back(ranked[i].second);

  round.candidate_demand.reserve(round.candidates.size());
  round.candidate_pending.reserve(round.candidates.size());
  for (roadnet::SegmentId seg : round.candidates) {
    const auto it = round.demand.find(seg);
    round.candidate_demand.push_back(it != round.demand.end() ? it->second
                                                              : 0);
    round.candidate_pending.push_back(round.pending.count(seg) != 0);
  }

  round.trees.reserve(round.candidates.size() + 1);
  for (roadnet::SegmentId seg : round.candidates) {
    round.trees.push_back(
        router_.CachedReverseTree(city_.network.segment(seg).from, condition));
  }
  round.trees.push_back(router_.CachedReverseTree(city_.depot, condition));
  return round;
}

void DispatchFeaturizer::Row(const RoundData& round, const sim::TeamView& team,
                             std::size_t idx, std::size_t closer,
                             std::size_t fleet, double* f) const {
  const bool depot = round.IsDepotAction(idx);
  const roadnet::ShortestPathTree& tree = *round.trees.at(idx);
  const bool reachable = tree.Reachable(team.at);
  const double time_to =
      reachable ? tree.time_s[team.at]
                : config_.time_norm_s * 3.0;  // unreachable sentinel
  const double seg_demand = depot ? 0.0 : round.candidate_demand[idx];

  f[0] = std::min(3.0, time_to / config_.time_norm_s);
  f[1] = std::min(3.0, seg_demand / config_.demand_norm);
  f[2] = std::min(3.0, round.total_demand / config_.total_demand_norm);
  f[3] = team.capacity > 0
             ? static_cast<double>(team.onboard) / team.capacity
             : 0.0;
  f[4] = depot ? 1.0 : 0.0;
  f[5] = team.mode == sim::TeamMode::kIdle ? 1.0 : 0.0;
  f[6] = team.mode == sim::TeamMode::kToTarget ? 1.0 : 0.0;
  // Stickiness signal: is this candidate the team's current destination?
  // Lets the policy learn to finish a leg instead of thrashing targets.
  f[7] = (!depot && team.target_segment == round.candidates[idx]) ? 1.0 : 0.0;
  f[8] = 1.0;  // bias
  // Competition: fraction of other available teams strictly closer to this
  // candidate. Without it the policy piles the whole fleet onto the top
  // demand segment. (With no fleet given, closer is 0 and so is f[9].)
  f[9] = !depot && reachable ? static_cast<double>(closer) /
                                   std::max<std::size_t>(1, fleet)
                             : 0.0;
  // Certain demand: an appeared request is waiting on this segment. Kept
  // separate from f[1] so the policy can rank certain above speculative.
  f[10] = !depot && round.candidate_pending[idx] ? 1.0 : 0.0;
}

std::vector<double> DispatchFeaturizer::Features(
    const RoundData& round, const sim::TeamView& team, std::size_t idx,
    const std::vector<sim::TeamView>* all_teams) const {
  const roadnet::ShortestPathTree& tree = *round.trees.at(idx);
  std::size_t closer = 0;
  if (!round.IsDepotAction(idx) && all_teams != nullptr &&
      tree.Reachable(team.at)) {
    for (const sim::TeamView& other : *all_teams) {
      if (other.id == team.id) continue;
      if (other.mode == sim::TeamMode::kToHospital) continue;
      if (tree.Reachable(other.at) &&
          tree.time_s[other.at] < tree.time_s[team.at]) {
        ++closer;
      }
    }
  }
  std::vector<double> f(kFeatureDim);
  Row(round, team, idx, closer, all_teams != nullptr ? all_teams->size() : 0,
      f.data());
  return f;
}

void DispatchFeaturizer::TimesToCandidates(
    const RoundData& round, const std::vector<sim::TeamView>& teams,
    CandidateTimes& times) const {
  times.teams = teams.size();
  times.time_s.resize(round.candidates.size() * teams.size());
  double* out = times.time_s.data();
  for (std::size_t i = 0; i < round.candidates.size(); ++i) {
    const roadnet::ShortestPathTree& tree = *round.trees[i];
    for (const sim::TeamView& team : teams) {
      const bool competes = team.mode != sim::TeamMode::kToHospital &&
                            tree.Reachable(team.at);
      *out++ = competes ? tree.time_s[team.at]
                        : std::numeric_limits<double>::infinity();
    }
  }
}

void DispatchFeaturizer::FeaturesInto(const RoundData& round,
                                      const CandidateTimes& times,
                                      const std::vector<sim::TeamView>& teams,
                                      std::size_t k, std::size_t idx,
                                      std::vector<double>& out) const {
  const sim::TeamView& team = teams[k];
  const roadnet::ShortestPathTree& tree = *round.trees.at(idx);
  std::size_t closer = 0;
  if (!round.IsDepotAction(idx) && tree.Reachable(team.at)) {
    // The same count as Features' scan: the team's own entry equals its
    // time (or is +inf), and a strict < never counts it.
    const double own = tree.time_s[team.at];
    const double* row = times.row(idx);
    for (std::size_t j = 0; j < times.teams; ++j) closer += row[j] < own;
  }
  out.resize(kFeatureDim);
  Row(round, team, idx, closer, teams.size(), out.data());
}

std::vector<std::size_t> DispatchFeaturizer::TeamActionSet(
    const RoundData& round, const sim::TeamView& team) const {
  std::vector<std::pair<double, std::size_t>> by_time;
  for (std::size_t idx = 0; idx < round.candidates.size(); ++idx) {
    const roadnet::ShortestPathTree& tree = *round.trees[idx];
    if (!tree.Reachable(team.at)) continue;
    by_time.emplace_back(tree.time_s[team.at], idx);
  }
  std::sort(by_time.begin(), by_time.end());
  std::vector<std::size_t> out;
  const std::size_t k = std::min<std::size_t>(
      by_time.size(), static_cast<std::size_t>(config_.per_team_k));
  out.reserve(k + 1);
  for (std::size_t i = 0; i < k; ++i) out.push_back(by_time[i].second);
  out.push_back(round.candidates.size());  // depot action, always available
  return out;
}

std::vector<std::vector<double>> DispatchFeaturizer::FeaturesFor(
    const RoundData& round, const CandidateTimes& times,
    const std::vector<sim::TeamView>& teams, std::size_t k,
    const std::vector<std::size_t>& action_set) const {
  std::vector<std::vector<double>> out(action_set.size());
  for (std::size_t a = 0; a < action_set.size(); ++a) {
    FeaturesInto(round, times, teams, k, action_set[a], out[a]);
  }
  return out;
}

}  // namespace mobirescue::dispatch
