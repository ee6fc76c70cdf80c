// Configuration of the online continual-learning subsystem (DESIGN.md §15).
//
// The learner never decides: it rides along with the serving tick loop,
// collecting the live policy's experience, training a *candidate* copy of
// the DQN off the decide hot path, shadow-scoring that candidate on the
// exact contexts the live policy saw, and promoting the candidate's
// weights into the live agent only when a sliding evidence window says it
// is measurably better — with automatic rollback when the service serves
// a fallback tick right after a promotion.
//
// Determinism contract: every learner decision — how many gradient steps
// run, which minibatches they sample, whether a tick promotes — is a pure
// function of (LearnConfig, the live policy's tick stream). Two runs over
// the same episode produce bit-identical candidate weights and identical
// promotion ticks. Nothing in the loop reads the wall clock except its
// timing histograms.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mobirescue::learn {

/// The candidate's gradient-step budget per served tick.
struct TrainerConfig {
  /// Gradient steps run per served tick (0 disables training — the
  /// candidate then stays bit-identical to the live policy).
  int steps_per_tick = 2;
  /// Transitions the replay buffer must hold before the first step.
  std::size_t min_buffer = 128;
};

/// The evidence-gated promotion state machine (DESIGN.md §15).
struct PromotionConfig {
  /// The gate is evaluated every Nth tick once out of warmup.
  int check_every_n_ticks = 8;
  /// Sliding evidence window: the most recent N closed transitions.
  std::size_t evidence_window = 64;
  /// Transitions required before the first gate evaluation.
  std::size_t min_evidence = 32;
  /// Required relative TD-error improvement of the candidate over the live
  /// policy on the evidence window: candidate_td <= live_td * (1 - this).
  /// Strictly positive keeps a zero-improvement candidate from ever
  /// swapping weights.
  double min_td_improvement = 0.02;
  /// Ticks after a promotion during which a fallback tick rolls the
  /// promotion back (a bad promotion is just another fault).
  int watch_window_ticks = 12;
  /// Ticks after a promotion, rollback, or rejection before the gate is
  /// evaluated again.
  int cooldown_ticks = 24;
};

struct LearnConfig {
  /// Master switch. Disabled (the default) constructs no learner at all —
  /// the serving path is byte-for-byte the frozen-policy path.
  bool enabled = false;
  /// Seed for the candidate agent's sampler stream (decoupled from the
  /// live agent's seed so promotion does not replay the live stream).
  std::uint64_t seed = 20260808;
  /// Capacity of the candidate's replay buffer (streamed experience only;
  /// independent of the offline-training buffer size).
  std::size_t buffer_capacity = 4096;
  TrainerConfig trainer;
  PromotionConfig promotion;
};

}  // namespace mobirescue::learn
