// Shadow policy evaluation (DESIGN.md §15): candidate policies are scored
// on the EXACT DispatchContexts the live policy served — same feature rows,
// same assignment columns, same prior blend — by re-running only the cheap
// tail of the decision over the live round's RoundCapture: one batched Q
// pass, then the serving policy's own dispatch::AssignByMargin. Shadow
// decisions are logged and compared against the executed live actions;
// they are NEVER executed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/mobirescue_dispatcher.hpp"
#include "learn/learn_config.hpp"
#include "obs/metrics.hpp"
#include "rl/dqn_agent.hpp"

namespace mobirescue::learn {

/// One shadow-scored round for one policy.
struct ShadowRecord {
  std::uint64_t tick = 0;
  std::size_t policy = 0;
  /// Fraction of decidable teams whose shadow action matched the executed
  /// live action (1.0 = full agreement).
  double agreement = 0.0;
  /// False when the policy produced a non-finite Q anywhere in the round —
  /// such a policy must never pass the promotion gate.
  bool q_finite = true;
};

class ShadowPolicyRunner {
 public:
  explicit ShadowPolicyRunner(ShadowConfig config) : config_(config) {}

  /// Registers a policy to shadow; returns its index.
  std::size_t AddPolicy(std::string name,
                        std::shared_ptr<const rl::DqnAgent> agent);

  /// Scores every registered policy on the captured round. No-op when the
  /// capture is invalid or the tick is off-cadence.
  void OnTick(std::uint64_t tick, const dispatch::RoundCapture& capture);

  std::size_t policy_count() const { return policies_.size(); }
  const std::string& policy_name(std::size_t i) const {
    return policies_[i].name;
  }
  /// Ring log of the most recent shadow rounds (all policies interleaved).
  const std::deque<ShadowRecord>& log() const { return log_; }
  std::uint64_t rounds_scored() const { return rounds_scored_; }
  /// Mean agreement of policy i over the current log window (1.0 when the
  /// policy has no logged rounds yet).
  double MeanAgreement(std::size_t policy) const;
  /// True when any logged round of policy i had a non-finite Q.
  bool SawNonFiniteQ(std::size_t policy) const;

  /// Checkpoint restore (learner only).
  void Restore(std::deque<ShadowRecord> log, std::uint64_t rounds_scored) {
    log_ = std::move(log);
    rounds_scored_ = rounds_scored;
  }

 private:
  struct Policy {
    std::string name;
    std::shared_ptr<const rl::DqnAgent> agent;
  };

  ShadowConfig config_;
  std::vector<Policy> policies_;
  std::deque<ShadowRecord> log_;
  std::uint64_t rounds_scored_ = 0;

  obs::Counter rounds_total_{"learn_shadow_rounds_total",
                             "Rounds scored under shadow policies."};
  obs::Gauge agreement_gauge_{
      "learn_shadow_agreement",
      "Most recent shadow round's live-action agreement (policy 0)."};
  obs::Histogram shadow_ms_{"learn_shadow_round_ms",
                            "One shadow scoring round, all policies (ms).",
                            obs::Histogram::LatencyBucketsMs()};
};

}  // namespace mobirescue::learn
