#include "learn/experience_collector.hpp"

#include <utility>

namespace mobirescue::learn {

ExperienceCollector::ExperienceCollector(dispatch::RewardWeights reward,
                                         TransitionSink sink)
    : reward_(reward), sink_(std::move(sink)) {}

void ExperienceCollector::Observe(const sim::DispatchContext& context,
                                  const dispatch::RoundCapture& capture) {
  dispatch::AccrueRound(reward_, context, pending_);
  if (!capture.valid) return;  // nothing scored this round; stay open

  for (std::size_t r = 0; r < capture.rows.size(); ++r) {
    const std::size_t k = capture.rows[r];
    const sim::TeamAction& action = capture.live_actions[r];

    // The team decided this round, so its previous macro-transition is
    // complete. Its bootstrap candidates are the actions it could take
    // right now: its depot row plus every reachable candidate row — all
    // already featurised by the live decide pass.
    //
    // is_standdown outlives the pending's validity on purpose: it means
    // "this team's last policy action was a stand-down", so a whole streak
    // of re-affirmed stand-downs contributes exactly one transition, not
    // one per round.
    const bool in_standdown_streak = pending_[k].is_standdown;
    if (pending_[k].valid) {
      std::vector<std::vector<double>> next;
      next.push_back(capture.feature_rows[capture.team_begin[r]]);
      for (const std::size_t row : capture.cand_row[r]) {
        if (row != SIZE_MAX) next.push_back(capture.feature_rows[row]);
      }
      ++transitions_;
      transitions_total_.Increment();
      sink_(pending_[k].Close(std::move(next)));
    }

    // Open the next transition from the action the live policy chose.
    if (action.kind == sim::ActionKind::kGoto) {
      pending_[k].is_standdown = false;  // serving breaks the streak
      std::size_t row = SIZE_MAX;
      for (std::size_t i = 0; i < capture.candidates.size(); ++i) {
        if (capture.candidates[i] == action.target) {
          row = capture.cand_row[r][i];
          break;
        }
      }
      if (row == SIZE_MAX) continue;  // target not in this round's rows
      pending_[k].Open(capture.feature_rows[row], reward_, /*serving=*/true);
    } else {
      // Stand-down (kKeep from the assignment) and kDepot are the policy's
      // "don't serve" action. Mirror the training path's no-op rule: a
      // stand-down streak contributes exactly one transition — a team
      // whose last action was already a stand-down opens nothing, or
      // zero-information rows would flood the buffer.
      if (in_standdown_streak) continue;
      pending_[k].Open(capture.feature_rows[capture.team_begin[r]], reward_,
                       /*serving=*/false);
      pending_[k].is_standdown = true;
    }
  }
}

void ExperienceCollector::OnFallbackTick(const sim::DispatchContext& context) {
  if (pending_.size() != context.teams.size()) {
    pending_.assign(context.teams.size(), {});
    return;
  }
  std::uint64_t dropped = 0;
  for (Pending& p : pending_) {
    if (p.valid) {
      p = {};
      ++dropped;
    }
  }
  if (dropped != 0) {
    aborted_ += dropped;
    aborted_total_.Increment(dropped);
  }
}

void ExperienceCollector::RestorePending(std::vector<Pending> pending,
                                         std::uint64_t transitions,
                                         std::uint64_t aborted) {
  pending_ = std::move(pending);
  transitions_ = transitions;
  aborted_ = aborted;
}

}  // namespace mobirescue::learn
