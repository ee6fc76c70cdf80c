// Shadow evaluation of the candidate policy (DESIGN.md §15): the candidate
// is scored on the EXACT DispatchContexts the live policy served — same
// feature rows, same assignment columns, same prior blend — by re-running
// only the cheap tail of the decision over the live round's RoundCapture:
// one batched Q pass, then the serving policy's own
// dispatch::AssignByMargin. Shadow decisions are logged and compared
// against the executed live actions; they are NEVER executed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dispatch/mobirescue_dispatcher.hpp"
#include "obs/metrics.hpp"
#include "rl/dqn_agent.hpp"
#include "util/ring.hpp"

namespace mobirescue::learn {

/// One shadow-scored round.
struct ShadowRecord {
  std::uint64_t tick = 0;
  /// Fraction of decidable teams whose shadow action matched the executed
  /// live action (1.0 = full agreement).
  double agreement = 0.0;
  /// False when the policy produced a non-finite Q anywhere in the round —
  /// such a policy must never pass the promotion gate.
  bool q_finite = true;
};

class ShadowPolicyRunner {
 public:
  /// Rounds the log keeps (older ones are overwritten).
  static constexpr std::size_t kLogCapacity = 256;

  /// `agent` is the policy shadowed (the learner's candidate).
  explicit ShadowPolicyRunner(std::shared_ptr<const rl::DqnAgent> agent)
      : agent_(std::move(agent)) {}

  /// Scores the policy on the captured round. No-op when the capture is
  /// invalid.
  void OnTick(std::uint64_t tick, const dispatch::RoundCapture& capture);

  /// Ring log of the most recent shadow rounds.
  const util::Ring<ShadowRecord>& log() const { return log_; }
  std::uint64_t rounds_scored() const { return rounds_scored_; }
  /// Mean agreement over the log, summed oldest first (1.0 when no round
  /// is logged yet).
  double MeanAgreement() const;
  /// True when any logged round had a non-finite Q.
  bool SawNonFiniteQ() const;

  /// Checkpoint restore (learner only): `log` oldest first. Throws
  /// std::invalid_argument when it holds more than kLogCapacity records.
  void Restore(std::vector<ShadowRecord> log, std::uint64_t rounds_scored) {
    log_.Restore(std::move(log), 0, 0);
    rounds_scored_ = rounds_scored;
  }

 private:
  std::shared_ptr<const rl::DqnAgent> agent_;
  util::Ring<ShadowRecord> log_{kLogCapacity};
  std::uint64_t rounds_scored_ = 0;

  obs::Counter rounds_total_{"learn_shadow_rounds_total",
                             "Rounds scored under shadow policies."};
  obs::Gauge agreement_gauge_{
      "learn_shadow_agreement",
      "Most recent shadow round's live-action agreement (the candidate)."};
  obs::Histogram shadow_ms_{"learn_shadow_round_ms",
                            "One shadow scoring round of the candidate (ms).",
                            obs::Histogram::LatencyBucketsMs()};
};

}  // namespace mobirescue::learn
