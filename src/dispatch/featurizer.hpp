// Featurisation of (state, team, candidate-action) tuples for the DQN
// dispatcher. See DESIGN.md §5 for how this preserves the paper's state /
// action interface while keeping the action space tractable.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "predict/svm_predictor.hpp"
#include "roadnet/city_builder.hpp"
#include "roadnet/router.hpp"
#include "sim/dispatcher.hpp"

namespace mobirescue::dispatch {

struct FeaturizerConfig {
  /// Number of highest-demand segments considered globally per round.
  int top_k = 32;
  /// Of those, each team only sees its nearest `per_team_k` (by travel
  /// time) plus the depot — keeps legs local and the action space small.
  int per_team_k = 10;
  /// Normalisation constants.
  double time_norm_s = 1200.0;
  double demand_norm = 8.0;
  double total_demand_norm = 60.0;
};

/// Per-dispatch-round precomputation: the candidate destination segments
/// (top-K by predicted demand) and, for each plus the depot, a reverse
/// shortest-path tree giving every team's travel time to it.
struct RoundData {
  std::vector<roadnet::SegmentId> candidates;
  /// Segments with at least one appeared (pending) request this round.
  std::unordered_set<roadnet::SegmentId> pending;
  /// trees[i] = reverse tree to candidates[i]'s entry landmark;
  /// trees[candidates.size()] = reverse tree to the depot. Shared immutable
  /// trees out of the router's cache: candidates recur round after round
  /// within one flood-condition epoch, so most rounds are all cache hits.
  std::vector<std::shared_ptr<const roadnet::ShortestPathTree>> trees;
  predict::Distribution demand;
  double total_demand = 0.0;

  /// Action idx == candidates.size() is the depot; the others are the
  /// candidates.
  bool IsDepotAction(std::size_t idx) const {
    return idx == candidates.size();
  }
};

class DispatchFeaturizer {
 public:
  DispatchFeaturizer(const roadnet::City& city, FeaturizerConfig config = {});

  /// Selects candidates from a predicted distribution and runs the reverse
  /// Dijkstra passes under the operable network condition. Segments in
  /// `must_include` (e.g. every segment with an appeared pending request)
  /// are always candidates; `top_k` caps only the speculative remainder,
  /// ranked by count (descending), then segment id. `demand` becomes the
  /// round's `demand`: move a per-round map in to avoid copying it.
  RoundData PrepareRound(
      predict::Distribution demand,
      const roadnet::NetworkCondition& condition,
      const std::vector<roadnet::SegmentId>& must_include = {}) const;

  /// Feature vector for (team, action `idx`); idx == candidates.size() is
  /// the depot action. `all_teams`, when provided, fills the competition
  /// feature (fraction of other teams strictly closer to the candidate).
  std::vector<double> Features(const RoundData& round,
                               const sim::TeamView& team, std::size_t idx,
                               const std::vector<sim::TeamView>* all_teams =
                                   nullptr) const;

  /// The team's local action set: indices (into round action space) of the
  /// per_team_k nearest demand candidates, followed by the depot action.
  std::vector<std::size_t> TeamActionSet(const RoundData& round,
                                         const sim::TeamView& team) const;

  /// Feature vectors for exactly the actions in `action_set`.
  std::vector<std::vector<double>> FeaturesFor(
      const RoundData& round, const sim::TeamView& team,
      const std::vector<std::size_t>& action_set,
      const std::vector<sim::TeamView>* all_teams = nullptr) const;

  static constexpr std::size_t kFeatureDim = 11;

  const FeaturizerConfig& config() const { return config_; }

  /// The featurizer's router (exposes the shortest-path-tree cache stats
  /// for the serve layer's metrics).
  const roadnet::Router& router() const { return router_; }

 private:
  const roadnet::City& city_;
  roadnet::Router router_;
  FeaturizerConfig config_;
};

}  // namespace mobirescue::dispatch
