#include "learn/shadow_runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/recorder.hpp"
#include "sim/dispatcher.hpp"

namespace mobirescue::learn {

void ShadowPolicyRunner::OnTick(std::uint64_t tick,
                                const dispatch::RoundCapture& capture) {
  if (!capture.valid) return;
  const auto t0 = std::chrono::steady_clock::now();

  // One batched forward pass over the rows the live policy already
  // featurised — the expensive part of the round is never repeated.
  const std::vector<double> qs = agent_->QValues(capture.feature_rows);
  bool q_finite = true;
  for (const double q : qs) {
    if (!std::isfinite(q)) {
      q_finite = false;
      break;
    }
  }

  std::size_t agree = 0;
  if (q_finite) {
    const std::vector<sim::TeamAction> shadow =
        dispatch::AssignByMargin(capture, qs);
    for (std::size_t r = 0; r < capture.rows.size(); ++r) {
      const sim::TeamAction& live = capture.live_actions[r];
      if (shadow[r].kind == live.kind &&
          (shadow[r].kind != sim::ActionKind::kGoto ||
           shadow[r].target == live.target)) {
        ++agree;
      }
    }
  }

  ShadowRecord rec;
  rec.tick = tick;
  rec.agreement = capture.rows.empty()
                      ? 1.0
                      : static_cast<double>(agree) /
                            static_cast<double>(capture.rows.size());
  rec.q_finite = q_finite;
  if (!q_finite || rec.agreement < 1.0) {
    char attrs[128];
    std::snprintf(attrs, sizeof(attrs),
                  "tick=%llu policy=candidate agreement=%.4f q_finite=%d",
                  static_cast<unsigned long long>(tick), rec.agreement,
                  q_finite ? 1 : 0);
    obs::FlightRecorder::Global().Emit(obs::Severity::kWarn, "learn",
                                       "shadow_divergence", attrs);
  }
  log_.Push(rec);
  agreement_gauge_.Set(rec.agreement);

  ++rounds_scored_;
  rounds_total_.Increment();
  shadow_ms_.Observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
}

double ShadowPolicyRunner::MeanAgreement() const {
  if (log_.empty()) return 1.0;
  double sum = 0.0;
  log_.ForEachOldestFirst([&](const ShadowRecord& rec) { sum += rec.agreement; });
  return sum / static_cast<double>(log_.size());
}

bool ShadowPolicyRunner::SawNonFiniteQ() const {
  for (const ShadowRecord& rec : log_.data()) {
    if (!rec.q_finite) return true;
  }
  return false;
}

}  // namespace mobirescue::learn
