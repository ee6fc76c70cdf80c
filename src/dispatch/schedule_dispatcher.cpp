#include "dispatch/schedule_dispatcher.hpp"

#include <algorithm>

namespace mobirescue::dispatch {

ScheduleDispatcher::ScheduleDispatcher(const roadnet::City& city,
                                       int num_teams, ScheduleConfig config)
    : city_(city), router_(city.network), config_(config) {
  // Spread standby positions uniformly over the segment index space — a
  // static coverage deployment.
  const std::size_t n = city.network.num_segments();
  standby_.reserve(num_teams);
  for (int k = 0; k < num_teams; ++k) {
    standby_.push_back(static_cast<roadnet::SegmentId>(
        (static_cast<std::size_t>(k) * n) / std::max(1, num_teams)));
  }
}

sim::DispatchDecision ScheduleDispatcher::Decide(
    const sim::DispatchContext& context) {
  sim::DispatchDecision decision;
  decision.actions.resize(context.teams.size());

  // Requests considered this round (oldest first).
  std::vector<sim::RequestView> pending = context.pending;
  std::sort(pending.begin(), pending.end(),
            [](const sim::RequestView& a, const sim::RequestView& b) {
              return a.appear_time < b.appear_time;
            });
  if (pending.size() > config_.max_requests_per_round) {
    pending.resize(config_.max_requests_per_round);
  }

  decision.compute_latency_s =
      config_.base_latency_s +
      config_.latency_per_request_s * static_cast<double>(pending.size());

  // Teams free for assignment: idle ones (teams mid-leg complete their
  // leg; re-targeting every round would thrash and nobody would arrive).
  std::vector<std::size_t> free_teams;
  for (std::size_t k = 0; k < context.teams.size(); ++k) {
    if (context.teams[k].mode == sim::TeamMode::kIdle) {
      free_teams.push_back(k);
    }
  }

  // On-demand dispatch as in [5]: requests are handled first-come
  // first-served, each grabbing the nearest currently free unit — there is
  // no batch re-optimisation over the whole fleet (the integer program in
  // [5] places the *standby positions*, not the per-request assignment).
  // Costs are planned on the pre-disaster (free-flow) network.
  std::vector<int> team_to_request(context.teams.size(), -1);
  std::vector<char> taken(free_teams.size(), 0);
  for (std::size_t c = 0; c < pending.size(); ++c) {
    const roadnet::RoadSegment& seg =
        city_.network.segment(pending[c].segment);
    // Planned on the static free-flow network: its version stamp never
    // changes, so every repeat target is a router-cache hit.
    const auto tree_ptr =
        router_.CachedReverseTree(seg.from, *context.free_condition);
    const roadnet::ShortestPathTree& tree = *tree_ptr;
    int best = -1;
    double best_t = 0.0;
    for (std::size_t r = 0; r < free_teams.size(); ++r) {
      if (taken[r]) continue;
      const roadnet::LandmarkId at = context.teams[free_teams[r]].at;
      if (!tree.Reachable(at)) continue;
      if (best < 0 || tree.time_s[at] < best_t) {
        best = static_cast<int>(r);
        best_t = tree.time_s[at];
      }
    }
    if (best >= 0) {
      taken[best] = 1;
      team_to_request[free_teams[best]] = static_cast<int>(c);
    }
  }

  for (std::size_t k = 0; k < context.teams.size(); ++k) {
    sim::TeamAction& action = decision.actions[k];
    if (context.teams[k].mode != sim::TeamMode::kIdle) {
      action.kind = sim::ActionKind::kKeep;
    } else if (team_to_request[k] >= 0) {
      action.kind = sim::ActionKind::kGoto;
      action.target = pending[static_cast<std::size_t>(team_to_request[k])].segment;
    } else {
      // Full-fleet deployment: unassigned teams hold their static standby
      // coverage positions.
      action.kind = sim::ActionKind::kGoto;
      action.target = standby_[k % standby_.size()];
    }
  }
  return decision;
}

}  // namespace mobirescue::dispatch
