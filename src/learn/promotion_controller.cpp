#include "learn/promotion_controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/recorder.hpp"

namespace mobirescue::learn {

const char* PromotionStateName(PromotionState s) {
  switch (s) {
    case PromotionState::kWarmup: return "warmup";
    case PromotionState::kEvaluating: return "evaluating";
    case PromotionState::kWatching: return "watching";
    case PromotionState::kCooldown: return "cooldown";
  }
  return "unknown";
}

namespace {

bool AllFinite(const std::vector<double>& v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

const char* PromotionController::GateVerdict(bool nonfinite, double live_td,
                                             double candidate_td,
                                             double min_td_improvement) {
  if (nonfinite) return "candidate-nonfinite";
  const double gap = live_td - candidate_td;
  if (!std::isfinite(gap) || gap <= 0.0) return "candidate-td-gap";
  const double margin = candidate_td - live_td * (1.0 - min_td_improvement);
  if (!std::isfinite(margin) || margin > 0.0) return "candidate-td-margin";
  return nullptr;
}

void PromotionController::AddEvidence(rl::Transition t) {
  evidence_.Push(std::move(t));
  if (state_ == PromotionState::kWarmup &&
      evidence_.size() >= config_.min_evidence) {
    state_ = PromotionState::kEvaluating;
  }
}

double PromotionController::MeanTdError(
    const rl::DqnAgent& agent, const util::Ring<rl::Transition>& window) {
  if (window.empty()) return 0.0;
  // One batched Q pass over the window: row i is the i-th oldest
  // transition's features, and the next-candidate rows of every
  // bootstrapping transition follow in the same order. A row scores the
  // same bits in any batch (DESIGN.md §10.1), so this equals scoring each
  // transition on its own.
  const std::size_t dim = agent.config().feature_dim;
  std::size_t rows = window.size();
  for (const rl::Transition& t : window.data()) {
    if (!t.terminal) rows += t.next_candidates.size();
  }
  ml::Matrix batch(rows, dim);
  auto out = batch.data().begin();
  const auto pack = [&](const std::vector<double>& row) {
    if (row.size() != dim) {
      throw std::invalid_argument("MeanTdError: bad feature dim");
    }
    out = std::copy(row.begin(), row.end(), out);
  };
  window.ForEachOldestFirst(
      [&](const rl::Transition& t) { pack(t.features); });
  window.ForEachOldestFirst([&](const rl::Transition& t) {
    if (t.terminal) return;
    for (const std::vector<double>& c : t.next_candidates) pack(c);
  });
  const std::vector<double> q = agent.QValues(batch);

  const double gamma = agent.config().gamma;
  double sum = 0.0;
  std::size_t i = 0;
  std::size_t next = window.size();
  window.ForEachOldestFirst([&](const rl::Transition& t) {
    double y = t.reward;
    if (!t.terminal && !t.next_candidates.empty()) {
      const std::size_t end = next + t.next_candidates.size();
      double best = q[next];
      for (++next; next < end; ++next) {
        if (q[next] > best) best = q[next];
      }
      y += std::pow(gamma, std::max(1, t.duration_rounds)) * best;
    }
    sum += std::abs(y - q[i++]);
  });
  return sum / static_cast<double>(window.size());
}

void PromotionController::EvaluateGate(std::uint64_t tick,
                                       bool candidate_q_nonfinite) {
  last_live_td_ = MeanTdError(live_, evidence_);
  last_candidate_td_ = MeanTdError(candidate_, evidence_);

  // Hard rejections: a candidate that produces garbage anywhere must never
  // reach the live path, whatever its TD error claims.
  const bool nonfinite = candidate_q_nonfinite ||
                         !AllFinite(candidate_.SaveWeights()) ||
                         !AllFinite(candidate_.SaveTargetWeights()) ||
                         !std::isfinite(last_candidate_td_) ||
                         !std::isfinite(last_live_td_);
  const char* tripped = GateVerdict(nonfinite, last_live_td_,
                                    last_candidate_td_,
                                    config_.min_td_improvement);
  if (tripped == nullptr) {
    Promote(tick);
    return;
  }
  ++rejections_;
  rejections_total_.Increment();
  char attrs[160];
  std::snprintf(attrs, sizeof(attrs),
                "tick=%llu tripped=%s live_td=%.6g cand_td=%.6g",
                static_cast<unsigned long long>(tick), tripped, last_live_td_,
                last_candidate_td_);
  obs::FlightRecorder::Global().Emit(obs::Severity::kInfo, "learn",
                                     "gate_rejection", attrs);
  state_ = PromotionState::kCooldown;
  cooldown_left_ = config_.cooldown_ticks;
}

void PromotionController::Promote(std::uint64_t tick) {
  rollback_online_ = live_.SaveWeights();
  rollback_target_ = live_.SaveTargetWeights();
  live_.LoadWeights(candidate_.SaveWeights());
  live_.LoadTargetWeights(candidate_.SaveTargetWeights());
  ++promotions_;
  promotions_total_.Increment();
  promotion_ticks_.push_back(tick);
  state_ = PromotionState::kWatching;
  watch_left_ = config_.watch_window_ticks;
  char attrs[128];
  std::snprintf(attrs, sizeof(attrs),
                "tick=%llu live_td=%.6g cand_td=%.6g",
                static_cast<unsigned long long>(tick), last_live_td_,
                last_candidate_td_);
  obs::FlightRecorder::Global().Emit(obs::Severity::kInfo, "learn",
                                     "promotion", attrs);
}

void PromotionController::Rollback() {
  live_.LoadWeights(rollback_online_);
  live_.LoadTargetWeights(rollback_target_);
  rollback_online_.clear();
  rollback_target_.clear();
  ++rollbacks_;
  rollbacks_total_.Increment();
  state_ = PromotionState::kCooldown;
  cooldown_left_ = config_.cooldown_ticks;
  char attrs[96];
  std::snprintf(attrs, sizeof(attrs), "watch_left=%d promotions=%llu",
                watch_left_,
                static_cast<unsigned long long>(promotions_));
  obs::FlightRecorder::Global().Emit(obs::Severity::kError, "learn",
                                     "rollback", attrs);
}

void PromotionController::OnTick(std::uint64_t tick, bool used_fallback,
                                 bool candidate_q_nonfinite) {
  switch (state_) {
    case PromotionState::kWarmup:
      break;  // AddEvidence advances out of warmup
    case PromotionState::kEvaluating:
      if (config_.check_every_n_ticks > 0 &&
          tick % static_cast<std::uint64_t>(config_.check_every_n_ticks) ==
              0 &&
          evidence_.size() >= config_.min_evidence) {
        EvaluateGate(tick, candidate_q_nonfinite);
      }
      break;
    case PromotionState::kWatching:
      if (used_fallback) {
        Rollback();
      } else if (--watch_left_ <= 0) {
        rollback_online_.clear();
        rollback_target_.clear();
        state_ = PromotionState::kCooldown;
        cooldown_left_ = config_.cooldown_ticks;
      }
      break;
    case PromotionState::kCooldown:
      if (--cooldown_left_ <= 0) state_ = PromotionState::kEvaluating;
      break;
  }
  state_gauge_.Set(static_cast<double>(state_));
}

PromotionController::Snapshot PromotionController::snapshot() const {
  Snapshot s;
  s.state = state_;
  s.watch_left = watch_left_;
  s.cooldown_left = cooldown_left_;
  s.promotions = promotions_;
  s.rollbacks = rollbacks_;
  s.rejections = rejections_;
  s.promotion_ticks = promotion_ticks_;
  s.rollback_online = rollback_online_;
  s.rollback_target = rollback_target_;
  s.last_live_td = last_live_td_;
  s.last_candidate_td = last_candidate_td_;
  return s;
}

void PromotionController::Restore(Snapshot s,
                                  std::vector<rl::Transition> evidence) {
  // First: the only call that can throw, so a rejected snapshot changes
  // nothing.
  evidence_.Restore(std::move(evidence), 0, 0);
  state_ = s.state;
  watch_left_ = s.watch_left;
  cooldown_left_ = s.cooldown_left;
  promotions_ = s.promotions;
  rollbacks_ = s.rollbacks;
  rejections_ = s.rejections;
  promotion_ticks_ = std::move(s.promotion_ticks);
  rollback_online_ = std::move(s.rollback_online);
  rollback_target_ = std::move(s.rollback_target);
  last_live_td_ = s.last_live_td;
  last_candidate_td_ = s.last_candidate_td;
}

}  // namespace mobirescue::learn
