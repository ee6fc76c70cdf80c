// OnlineLearner: facade wiring the continual-learning subsystem into the
// serving stack (DESIGN.md §15).
//
//   served tick ──> ExperienceCollector ──> candidate replay buffer
//                                       └─> promotion evidence window
//               ──> ShadowPolicyRunner  (candidate scored, never executed)
//               ──> candidate gradient steps (steps_per_tick, run here)
//               ──> PromotionController (evidence gate, hot swap, rollback)
//
// The live agent stays frozen between promotions; all training happens on
// a candidate clone seeded from the live weights with its own sampler
// stream. Everything runs synchronously on the serving thread, after the
// decide latency was measured, so learning cost never shows up as decide
// latency and the whole subsystem is deterministic under the contract in
// learn_config.hpp.
//
// The learner's complete dynamic state round-trips through the service
// checkpoint as an opaque `mobirescue-learn-v1 ... mobirescue-learn-end`
// token blob (SaveStateString/LoadStateString), so a crash-recovered
// service resumes training, evaluation, and promotion bit-identically.
// The blob is built in one util::TextWriter (shortest round-trip doubles)
// and parsed by one util::TextReader (std::from_chars, which takes those
// and older max_digits10 digits alike, and nan/inf); no count read back
// sizes an allocation before its elements are read. A blob that loads can
// serve: every stored row is feature_dim wide and the rollback weights fit
// the promotion state. Two slots are always 0 and a load expects 0 there
// (the middle field of trainer-counters and each shadow record's second
// field): they keep the mobirescue-learn-v1 layout that blobs already
// saved have.
// Its replay-buffer section, nearly all of it, is written through the
// buffer's per-slot text memo (rl::ReplayBuffer::AppendText), so a save
// formats only the transitions pushed since the last save; the first save
// after a restore formats them all, into the same bytes. Every evidence
// transition was pushed into the buffer with it, so the evidence section
// takes its text from that memo too (rl::ReplayBuffer::MemoisedText, which
// checks the two bitwise) and formats only what the buffer no longer holds
// the same. AppendState writes the blob straight into the caller's writer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "dispatch/mobirescue_dispatcher.hpp"
#include "learn/experience_collector.hpp"
#include "learn/learn_config.hpp"
#include "learn/promotion_controller.hpp"
#include "learn/shadow_runner.hpp"
#include "obs/metrics.hpp"
#include "rl/dqn_agent.hpp"
#include "sim/dispatcher.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::learn {

/// Snapshot of the learner's observable state for ServiceMetrics.
struct LearnMetrics {
  std::uint64_t ticks_observed = 0;
  std::uint64_t transitions = 0;
  std::uint64_t aborted_transitions = 0;
  std::uint64_t train_steps = 0;
  std::uint64_t shadow_rounds = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t rejections = 0;
  double last_loss = 0.0;
  double last_live_td = 0.0;
  double last_candidate_td = 0.0;
  double shadow_agreement = 1.0;
  const char* promotion_state = "warmup";
};

class OnlineLearner {
 public:
  /// `live` is the serving agent promotions hot-swap into; the candidate
  /// clone is built from its current weights with an independent sampler
  /// stream derived from `config.seed`.
  OnlineLearner(const LearnConfig& config, dispatch::RewardWeights reward,
                std::shared_ptr<rl::DqnAgent> live);

  /// One served tick. `capture` is the live round's scored action space
  /// (invalid on unscored rounds); `used_fallback` marks ticks served by
  /// the degradation ladder instead of the policy.
  void OnServedTick(std::uint64_t tick, const sim::DispatchContext& context,
                    const dispatch::RoundCapture& capture, bool used_fallback);

  /// One closed transition into the candidate's replay buffer and the
  /// promotion evidence window: what the collector does with every
  /// transition it closes.
  void AddTransition(rl::Transition t);

  LearnMetrics metrics() const;

  /// Appends the complete dynamic state to `out` as a mobirescue-learn-v1
  /// token blob.
  void AppendState(util::TextWriter& out) const;
  /// The same blob as a string.
  std::string SaveStateString() const;
  /// Restores it. A blob that does not parse, or whose weights, rows or
  /// rollback weights do not fit the agent, throws std::runtime_error; one
  /// whose rings overflow (util::Ring::Restore) throws
  /// std::invalid_argument.
  void LoadStateString(std::string_view blob);

  // Component access for tests, the demo, and operators.
  rl::DqnAgent& candidate() { return *candidate_; }
  const rl::DqnAgent& candidate() const { return *candidate_; }
  const ExperienceCollector& collector() const { return collector_; }
  const ShadowPolicyRunner& shadow() const { return shadow_; }
  const PromotionController& promotion() const { return promotion_; }
  std::uint64_t ticks_observed() const { return ticks_; }

 private:
  LearnConfig config_;
  std::shared_ptr<rl::DqnAgent> live_;
  std::shared_ptr<rl::DqnAgent> candidate_;
  ExperienceCollector collector_;
  ShadowPolicyRunner shadow_;
  PromotionController promotion_;
  std::uint64_t ticks_ = 0;
  std::uint64_t train_steps_ = 0;
  double last_loss_ = 0.0;

  obs::Counter train_steps_total_{
      "learn_train_steps_total",
      "Candidate-policy gradient steps run online."};
  obs::Histogram train_tick_ms_{"learn_train_tick_ms",
                                "Per-tick candidate training time (ms).",
                                obs::Histogram::LatencyBucketsMs()};
};

}  // namespace mobirescue::learn
