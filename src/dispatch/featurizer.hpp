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
  /// Per candidate, what its feature rows read: its count in `demand` (0
  /// when absent) and whether it is in `pending`. Training's sequential
  /// claim lowers candidate_demand (and total_demand), not `demand`.
  std::vector<int> candidate_demand;
  std::vector<char> candidate_pending;

  /// Action idx == candidates.size() is the depot; the others are the
  /// candidates.
  bool IsDepotAction(std::size_t idx) const {
    return idx == candidates.size();
  }
};

/// Every team's travel time to each candidate of one round, one contiguous
/// row per candidate: +inf where the team cannot reach the candidate or is
/// carrying people to hospital (it does not compete for the candidate).
/// The competition feature f[9] of a team is the count of its candidate
/// row's entries strictly below its own time.
struct CandidateTimes {
  std::size_t teams = 0;
  std::vector<double> time_s;  // candidates x teams, row-major

  const double* row(std::size_t candidate) const {
    return time_s.data() + candidate * teams;
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
  /// feature (fraction of other teams strictly closer to the candidate),
  /// scanning every team: the reference the batch rows are tested against.
  std::vector<double> Features(const RoundData& round,
                               const sim::TeamView& team, std::size_t idx,
                               const std::vector<sim::TeamView>* all_teams =
                                   nullptr) const;

  /// Fills `times` for `teams` from the round's trees, reusing its storage.
  void TimesToCandidates(const RoundData& round,
                         const std::vector<sim::TeamView>& teams,
                         CandidateTimes& times) const;

  /// Batch form of Features(round, teams[k], idx, &teams), bitwise equal:
  /// f[9] is counted from `times` (filled for `teams`). Writes into `out`,
  /// reusing its storage.
  void FeaturesInto(const RoundData& round, const CandidateTimes& times,
                    const std::vector<sim::TeamView>& teams, std::size_t k,
                    std::size_t idx, std::vector<double>& out) const;

  /// The team's local action set: indices (into round action space) of the
  /// per_team_k nearest demand candidates, followed by the depot action.
  std::vector<std::size_t> TeamActionSet(const RoundData& round,
                                         const sim::TeamView& team) const;

  /// FeaturesInto rows of teams[k] for exactly the actions in
  /// `action_set`.
  std::vector<std::vector<double>> FeaturesFor(
      const RoundData& round, const CandidateTimes& times,
      const std::vector<sim::TeamView>& teams, std::size_t k,
      const std::vector<std::size_t>& action_set) const;

  static constexpr std::size_t kFeatureDim = 11;

  const FeaturizerConfig& config() const { return config_; }

  /// The featurizer's router (exposes the shortest-path-tree cache stats
  /// for the serve layer's metrics).
  const roadnet::Router& router() const { return router_; }

 private:
  /// The one row formula behind Features and FeaturesInto: `closer` other
  /// teams of a fleet of `fleet` are strictly closer to the candidate.
  void Row(const RoundData& round, const sim::TeamView& team, std::size_t idx,
           std::size_t closer, std::size_t fleet, double* f) const;

  const roadnet::City& city_;
  roadnet::Router router_;
  FeaturizerConfig config_;
};

}  // namespace mobirescue::dispatch
