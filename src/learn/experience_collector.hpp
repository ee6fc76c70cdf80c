// Turns the serving tick stream into replay-buffer transitions without
// touching the decide hot path (DESIGN.md §15).
//
// The live policy's DecideByAssignment already featurises and Q-scores the
// whole round; the collector consumes that RoundCapture instead of
// re-featurising, so its per-tick cost is bookkeeping plus vector copies.
// It builds the same semi-MDP macro-transitions as the offline training
// path, with the same helpers (dispatch::OpenTransition, AccrueRound): a
// decision opens a transition for the deciding team, the Eq. (5) reward
// accrues over the leg's rounds, and the transition closes — with the
// team's current action set as the bootstrap candidates — when the team is
// next decidable.
//
// Fallback ticks (greedy dispatcher in charge) abort all open transitions:
// the executed actions were not the policy's, so attributing their rewards
// to the policy's last choice would poison the buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dispatch/mobirescue_dispatcher.hpp"
#include "obs/metrics.hpp"
#include "rl/replay_buffer.hpp"
#include "sim/dispatcher.hpp"

namespace mobirescue::learn {

class ExperienceCollector {
 public:
  using TransitionSink = std::function<void(rl::Transition)>;

  /// `sink` receives every closed transition (typically the candidate
  /// agent's replay buffer plus the promotion controller's evidence
  /// window).
  ExperienceCollector(dispatch::RewardWeights reward, TransitionSink sink);

  /// One served tick decided by the live policy. `capture` may be invalid
  /// (round not scored) — rewards still accrue, transitions stay open.
  void Observe(const sim::DispatchContext& context,
               const dispatch::RoundCapture& capture);

  /// A tick served by the greedy fallback: aborts every open transition.
  void OnFallbackTick(const sim::DispatchContext& context);

  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t aborted() const { return aborted_; }

  /// One open macro-transition (public for checkpointing via the learner).
  using Pending = dispatch::OpenTransition;
  const std::vector<Pending>& pending() const { return pending_; }
  /// Restores the open-transition table from a checkpoint (learner only).
  void RestorePending(std::vector<Pending> pending, std::uint64_t transitions,
                      std::uint64_t aborted);

 private:
  dispatch::RewardWeights reward_;
  TransitionSink sink_;
  std::vector<Pending> pending_;  // parallel to context.teams
  std::uint64_t transitions_ = 0;
  std::uint64_t aborted_ = 0;

  obs::Counter transitions_total_{
      "learn_transitions_total",
      "Closed macro-transitions fed to the learner's replay buffer."};
  obs::Counter aborted_total_{
      "learn_aborted_transitions_total",
      "Open transitions discarded because a fallback tick broke the "
      "policy's action attribution."};
};

}  // namespace mobirescue::learn
