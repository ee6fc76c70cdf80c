#include "rl/dqn_agent.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace mobirescue::rl {

namespace {

ml::MlpConfig MakeNetConfig(const DqnConfig& config, std::uint64_t seed) {
  ml::MlpConfig net;
  net.input_dim = config.feature_dim;
  net.hidden = config.hidden;
  net.output_dim = 1;
  net.learning_rate = config.learning_rate;
  net.loss = ml::LossKind::kHuber;
  net.seed = seed;
  return net;
}

/// Packs candidate feature rows into one (n x dim) batch matrix.
ml::Matrix PackRows(const std::vector<std::vector<double>>& rows,
                    std::size_t dim) {
  ml::Matrix batch(rows.size(), dim);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != dim) {
      throw std::invalid_argument("DqnAgent: bad feature dim");
    }
    std::copy(rows[i].begin(), rows[i].end(), batch.data().begin() + i * dim);
  }
  return batch;
}

}  // namespace

DqnAgent::DqnAgent(const DqnConfig& config)
    : config_(config),
      online_(MakeNetConfig(config, config.seed)),
      target_(MakeNetConfig(config, config.seed)),
      buffer_(config.buffer_capacity),
      rng_(config.seed ^ 0xABCDEF) {
  target_.CopyWeightsFrom(online_);
  ++target_epoch_;
}

double DqnAgent::CurrentEpsilon() const {
  if (config_.epsilon_decay_steps == 0) return config_.epsilon_end;
  const double frac = std::min(
      1.0, static_cast<double>(decisions_) /
               static_cast<double>(config_.epsilon_decay_steps));
  return config_.epsilon_start +
         frac * (config_.epsilon_end - config_.epsilon_start);
}

bool DqnAgent::ExploreNow() {
  const double eps = CurrentEpsilon();
  ++decisions_;
  return rng_.Bernoulli(eps);
}

std::size_t DqnAgent::SelectAction(
    const std::vector<std::vector<double>>& candidates, bool explore) {
  if (candidates.empty()) {
    throw std::invalid_argument("SelectAction: no candidates");
  }
  OBS_SPAN("dqn.select_action");
  select_actions_total_.Increment();
  const double eps = CurrentEpsilon();
  ++decisions_;
  if (explore && rng_.Bernoulli(eps)) {
    return rng_.Index(candidates.size());
  }
  // Batched argmax: one forward pass over all candidates; strict > keeps
  // the lowest index on ties, matching the per-row scan.
  const std::vector<double> q = QValues(candidates);
  std::size_t best = 0;
  double best_q = -1e300;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i] > best_q) {
      best_q = q[i];
      best = i;
    }
  }
  return best;
}

double DqnAgent::QValue(std::span<const double> features) const {
  return online_.Predict(features)[0];
}

std::vector<double> DqnAgent::QValues(
    const std::vector<std::vector<double>>& candidates) const {
  return QValues(PackRows(candidates, config_.feature_dim));
}

std::vector<double> DqnAgent::QValues(const ml::Matrix& rows) const {
  // The Q-head is 1-dimensional, so the (n x 1) output matrix's storage is
  // exactly the per-row Q vector.
  return online_.PredictBatch(rows).data();
}

double DqnAgent::TrainStep() {
  if (buffer_.size() < config_.batch_size) return 0.0;
  OBS_SPAN("dqn.train_step");
  const auto train_t0 = std::chrono::steady_clock::now();
  const std::vector<std::size_t> slots =
      buffer_.Sample(config_.batch_size, rng_);
  const std::vector<Transition>& data = buffer_.data();

  // max_a' Q_target(s', a') per sampled transition. The target net does not
  // change within an epoch, so a slot's memoised max is reused; the stale
  // transitions' next-candidates go into one matrix for a single target
  // pass, and their maxima come from the row spans. A row scores the same
  // bits in any batch (DESIGN.md §10.1), so the memo changes no target.
  ml::Matrix inputs(slots.size(), config_.feature_dim);
  std::vector<double> next_max(slots.size());
  std::vector<std::size_t> stale;
  std::size_t stale_rows = 0;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Transition& t = data[slots[i]];
    if (t.features.size() != config_.feature_dim) {
      throw std::invalid_argument("TrainStep: bad feature dim in buffer");
    }
    std::copy(t.features.begin(), t.features.end(),
              inputs.data().begin() + i * config_.feature_dim);
    if (t.terminal || t.next_candidates.empty()) continue;
    if (buffer_.CachedBootstrap(slots[i], target_epoch_, &next_max[i])) {
      ++hits;
      continue;
    }
    stale.push_back(i);
    stale_rows += t.next_candidates.size();
  }
  if (!stale.empty()) {
    ml::Matrix next_features(stale_rows, config_.feature_dim);
    auto row_out = next_features.data().begin();
    for (const std::size_t i : stale) {
      for (const std::vector<double>& c : data[slots[i]].next_candidates) {
        if (c.size() != config_.feature_dim) {
          throw std::invalid_argument("TrainStep: bad feature dim in buffer");
        }
        row_out = std::copy(c.begin(), c.end(), row_out);
      }
    }
    const ml::Matrix next_q = target_.PredictBatch(next_features);
    std::size_t row = 0;
    for (const std::size_t i : stale) {
      const std::size_t end = row + data[slots[i]].next_candidates.size();
      double best = next_q(row, 0);
      for (++row; row < end; ++row) {
        if (next_q(row, 0) > best) best = next_q(row, 0);
      }
      next_max[i] = best;
      buffer_.CacheBootstrap(slots[i], target_epoch_, best);
    }
  }
  target_rows_total_.Increment(stale_rows);
  bootstrap_memo_hits_total_.Increment(hits);

  ml::Matrix targets(slots.size(), 1);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Transition& t = data[slots[i]];
    double y = t.reward;
    if (!t.terminal && !t.next_candidates.empty()) {
      const double discount =
          std::pow(config_.gamma, std::max(1, t.duration_rounds));
      y += discount * next_max[i];
    }
    targets(i, 0) = y;
  }
  online_.Forward(inputs);
  const double loss = online_.Backward(targets);
  ++train_steps_;
  if (config_.target_sync_every > 0 &&
      train_steps_ % static_cast<std::size_t>(config_.target_sync_every) == 0) {
    target_.CopyWeightsFrom(online_);
    ++target_epoch_;
  }
  train_steps_total_.Increment();
  train_step_ms_.Observe(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - train_t0)
                             .count());
  return loss;
}

void DqnAgent::LoadWeights(std::span<const double> w) {
  online_.LoadWeights(w);
  target_.CopyWeightsFrom(online_);
  ++target_epoch_;
}

void DqnAgent::SaveTrainerState(util::TextWriter& out) const {
  // mt19937_64 streams its complete 312-word state; decisions_ pins the
  // epsilon schedule and train_steps_ pins the target-sync phase; the
  // online net's Adam moments and timestep pin the optimizer, so the first
  // TrainStep after a restore is bit-identical to the uninterrupted run's.
  std::ostringstream engine;
  engine << rng_.engine();
  out << engine.str() << ' ' << decisions_ << ' ' << train_steps_ << ' '
      << online_.adam_t();
  const std::vector<double> opt = online_.SaveOptimizerState();
  out << ' ' << opt.size();
  for (const double v : opt) out << ' ' << v;
}

void DqnAgent::LoadTrainerState(util::TextReader& in) {
  // Only the engine's own operator>> can set its state: it takes its
  // state_size words and the index streamed after them, and nothing more.
  std::string engine_text;
  for (std::size_t i = 0; i <= std::mt19937_64::state_size; ++i) {
    engine_text += in.Token();
    engine_text += ' ';
  }
  std::istringstream engine(engine_text);
  engine >> rng_.engine();
  if (!engine || !(engine >> std::ws).eof()) in.Fail("bad sampler state");
  std::int64_t adam_t = 0;
  std::size_t opt_count = 0;
  in >> decisions_ >> train_steps_ >> adam_t >> opt_count;
  if (opt_count != online_.SaveOptimizerState().size()) {
    in.Fail("optimizer state size mismatch");
  }
  // nan/inf moments (a poisoned candidate's) round-trip.
  std::vector<double> opt(opt_count);
  for (double& v : opt) in >> v;
  online_.set_adam_t(adam_t);
  online_.LoadOptimizerState(opt);
}

}  // namespace mobirescue::rl
