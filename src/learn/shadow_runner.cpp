#include "learn/shadow_runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/recorder.hpp"
#include "sim/dispatcher.hpp"

namespace mobirescue::learn {

std::size_t ShadowPolicyRunner::AddPolicy(
    std::string name, std::shared_ptr<const rl::DqnAgent> agent) {
  policies_.push_back({std::move(name), std::move(agent)});
  return policies_.size() - 1;
}

void ShadowPolicyRunner::OnTick(std::uint64_t tick,
                                const dispatch::RoundCapture& capture) {
  if (policies_.empty() || !capture.valid) return;
  if (config_.shadow_every_n_ticks > 1 &&
      tick % static_cast<std::uint64_t>(config_.shadow_every_n_ticks) != 0) {
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();

  for (std::size_t p = 0; p < policies_.size(); ++p) {
    // One batched forward pass over the rows the live policy already
    // featurised — the expensive part of the round is never repeated.
    const std::vector<double> qs =
        policies_[p].agent->QValues(capture.feature_rows);
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
    rec.policy = p;
    rec.agreement = capture.rows.empty()
                        ? 1.0
                        : static_cast<double>(agree) /
                              static_cast<double>(capture.rows.size());
    rec.q_finite = q_finite;
    if (!q_finite || rec.agreement < 1.0) {
      char attrs[128];
      std::snprintf(attrs, sizeof(attrs),
                    "tick=%llu policy=%s agreement=%.4f q_finite=%d",
                    static_cast<unsigned long long>(tick),
                    policies_[p].name.c_str(), rec.agreement,
                    q_finite ? 1 : 0);
      obs::FlightRecorder::Global().Emit(obs::Severity::kWarn, "learn",
                                         "shadow_divergence", attrs);
    }
    log_.push_back(rec);
    while (log_.size() > config_.log_capacity) log_.pop_front();
    if (p == 0) agreement_gauge_.Set(rec.agreement);
  }

  ++rounds_scored_;
  rounds_total_.Increment();
  shadow_ms_.Observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
}

double ShadowPolicyRunner::MeanAgreement(std::size_t policy) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const ShadowRecord& rec : log_) {
    if (rec.policy != policy) continue;
    sum += rec.agreement;
    ++n;
  }
  return n == 0 ? 1.0 : sum / static_cast<double>(n);
}

bool ShadowPolicyRunner::SawNonFiniteQ(std::size_t policy) const {
  for (const ShadowRecord& rec : log_) {
    if (rec.policy == policy && !rec.q_finite) return true;
  }
  return false;
}

}  // namespace mobirescue::learn
