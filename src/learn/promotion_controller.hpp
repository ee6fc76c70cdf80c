// Evidence-gated promotion of the candidate policy into the live agent
// (DESIGN.md §15).
//
// State machine:
//
//   kWarmup ──(evidence >= min_evidence)──> kEvaluating
//   kEvaluating ──(gate passes)──> promote, kWatching
//   kEvaluating ──(gate evaluated, fails)──> kCooldown
//   kWatching ──(fallback tick)──> rollback, kCooldown
//   kWatching ──(watch window survived)──> kCooldown
//   kCooldown ──(cooldown_ticks elapsed)──> kEvaluating
//
// The gate compares live and candidate on the SAME evidence — a sliding
// window of recently closed transitions — by each network's own TD error
// (|r + gamma^d * max_a' Q(s',a') - Q(s,a)|, a validation loss on realized
// experience). A candidate bit-identical to live has identical TD error,
// and the gate demands a strictly positive relative improvement, so a
// zero-improvement candidate can never swap weights. Non-finite candidate
// weights, non-finite TD, or a non-finite shadow Q reject outright.
// GateVerdict holds the three checks in plain code; the learn tests check
// it against the health-engine rules it replaced (DESIGN.md §16.3).
//
// Promotion hot-swaps weights through DqnAgent::LoadWeights /
// LoadTargetWeights and snapshots the pre-promotion live weights; a
// fallback tick inside the watch window restores them (a bad promotion is
// handled like any other fault: detect, revert, cool down).
#pragma once

#include <cstdint>
#include <vector>

#include "learn/learn_config.hpp"
#include "obs/metrics.hpp"
#include "rl/dqn_agent.hpp"
#include "rl/replay_buffer.hpp"
#include "util/ring.hpp"

namespace mobirescue::learn {

enum class PromotionState { kWarmup, kEvaluating, kWatching, kCooldown };

const char* PromotionStateName(PromotionState s);

class PromotionController {
 public:
  PromotionController(const PromotionConfig& config, rl::DqnAgent& live,
                      rl::DqnAgent& candidate)
      : config_(config),
        live_(live),
        candidate_(candidate),
        evidence_(config.evidence_window) {}

  /// The gate: the name of the first check that fails, or nullptr when
  /// the candidate may be promoted. In order: "candidate-nonfinite"
  /// (`nonfinite`), "candidate-td-gap" (live − cand is not > 0: no strict
  /// improvement) and "candidate-td-margin" (cand −
  /// live·(1 − min_td_improvement) is not <= 0: improvement below the
  /// bar). A non-finite gap or margin fails its check. For finite doubles
  /// a − b is 0 only when a == b (gradual underflow), so these sign tests
  /// are exactly `cand < live` and `cand <= live·(1 − improvement)`.
  static const char* GateVerdict(bool nonfinite, double live_td,
                                 double candidate_td,
                                 double min_td_improvement);

  /// Feeds one closed transition into the sliding evidence window.
  void AddEvidence(rl::Transition t);

  /// Advances the state machine by one served tick. `used_fallback` is
  /// true when the tick was served by the degradation ladder (greedy
  /// fallback); `candidate_q_nonfinite` is the shadow runner's verdict on
  /// the candidate's recent Q outputs.
  void OnTick(std::uint64_t tick, bool used_fallback,
              bool candidate_q_nonfinite);

  PromotionState state() const { return state_; }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  std::uint64_t rejections() const { return rejections_; }
  const std::vector<std::uint64_t>& promotion_ticks() const {
    return promotion_ticks_;
  }
  std::size_t evidence_size() const { return evidence_.size(); }
  /// The evidence window, read in place (ForEachOldestFirst).
  const util::Ring<rl::Transition>& evidence() const { return evidence_; }
  /// TD errors from the most recent gate evaluation (0 before the first).
  double last_live_td() const { return last_live_td_; }
  double last_candidate_td() const { return last_candidate_td_; }

  /// Mean TD error of `agent` over `window`, oldest first (its own online
  /// net scores both the prediction and the bootstrap). Public for tests.
  static double MeanTdError(const rl::DqnAgent& agent,
                            const util::Ring<rl::Transition>& window);

  /// Controller state for checkpointing, beside evidence().
  struct Snapshot {
    PromotionState state = PromotionState::kWarmup;
    int watch_left = 0;
    int cooldown_left = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t rejections = 0;
    std::vector<std::uint64_t> promotion_ticks;
    std::vector<double> rollback_online;  // empty unless kWatching
    std::vector<double> rollback_target;
    double last_live_td = 0.0;
    double last_candidate_td = 0.0;
  };
  Snapshot snapshot() const;
  /// Restores a snapshot and the evidence (oldest first). Throws
  /// std::invalid_argument when the evidence exceeds the window.
  void Restore(Snapshot s, std::vector<rl::Transition> evidence);

 private:
  void EvaluateGate(std::uint64_t tick, bool candidate_q_nonfinite);
  void Promote(std::uint64_t tick);
  void Rollback();

  PromotionConfig config_;
  rl::DqnAgent& live_;
  rl::DqnAgent& candidate_;

  PromotionState state_ = PromotionState::kWarmup;
  int watch_left_ = 0;
  int cooldown_left_ = 0;
  util::Ring<rl::Transition> evidence_;
  std::uint64_t promotions_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t rejections_ = 0;
  std::vector<std::uint64_t> promotion_ticks_;
  std::vector<double> rollback_online_;
  std::vector<double> rollback_target_;
  double last_live_td_ = 0.0;
  double last_candidate_td_ = 0.0;

  obs::Counter promotions_total_{"learn_promotions_total",
                                 "Candidate weights promoted into the live "
                                 "policy."};
  obs::Counter rollbacks_total_{
      "learn_rollbacks_total",
      "Promotions rolled back after the ladder tripped in the watch "
      "window."};
  obs::Counter rejections_total_{
      "learn_rejections_total",
      "Gate evaluations that rejected the candidate."};
  obs::Gauge state_gauge_{"learn_promotion_state",
                          "Promotion state machine (0=warmup 1=evaluating "
                          "2=watching 3=cooldown)."};
};

}  // namespace mobirescue::learn
