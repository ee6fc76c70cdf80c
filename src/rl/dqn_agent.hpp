// DQN agent over per-(team, candidate) feature vectors.
//
// Section IV-C: the state is (team positions, predicted request
// distribution) and a team's action is a destination segment or the depot.
// Enumerating joint actions is intractable, so — following the paper's own
// Pensieve-style DNN framing — a shared Q-network scores each candidate
// action from a featurisation of (state, team, candidate); each team picks
// the argmax (epsilon-greedy during training). See DESIGN.md §5.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/nn/mlp.hpp"
#include "obs/metrics.hpp"
#include "rl/replay_buffer.hpp"
#include "util/rng.hpp"
#include "util/text_reader.hpp"
#include "util/text_writer.hpp"

namespace mobirescue::rl {

struct DqnConfig {
  std::size_t feature_dim = 9;
  std::vector<std::size_t> hidden = {32, 32};
  double gamma = 0.9;
  double learning_rate = 2e-3;
  std::size_t batch_size = 64;
  std::size_t buffer_capacity = 50000;
  /// Gradient steps between target-network syncs.
  int target_sync_every = 100;
  double epsilon_start = 0.5;
  double epsilon_end = 0.05;
  /// Decisions over which epsilon anneals linearly.
  std::size_t epsilon_decay_steps = 12000;
  std::uint64_t seed = 21;
};

class DqnAgent {
 public:
  explicit DqnAgent(const DqnConfig& config);

  /// Epsilon-greedy candidate selection (training mode) or pure greedy
  /// (when `explore` is false). `candidates` must be non-empty rows of
  /// feature_dim. The greedy branch scores every candidate in one batched
  /// network pass; ties keep the lowest index, exactly as the per-row scan.
  std::size_t SelectAction(
      const std::vector<std::vector<double>>& candidates, bool explore);

  /// Q-value of a single action. Const and thread-safe against other
  /// readers (no training cache is touched).
  double QValue(std::span<const double> features) const;

  /// Q-values of all candidate actions in one batched forward pass; entry i
  /// is bit-identical to QValue(candidates[i]).
  std::vector<double> QValues(
      const std::vector<std::vector<double>>& candidates) const;
  /// The same over rows already packed into an (n x feature_dim) matrix.
  std::vector<double> QValues(const ml::Matrix& rows) const;

  /// Draws the exploration coin at the current epsilon and advances the
  /// decision counter (for callers that mix Q with an external prior).
  bool ExploreNow();

  /// Uniform random action index in [0, n).
  std::size_t RandomAction(std::size_t n) { return rng_.Index(n); }

  void Push(Transition t) { buffer_.Push(std::move(t)); }

  /// One minibatch gradient step; returns the loss (0 when the buffer is
  /// too small to sample). A sampled transition's bootstrap max comes from
  /// the replay buffer's memo when it was computed under the current
  /// target epoch; one target pass scores the rest (DESIGN.md §15.5).
  double TrainStep();

  double CurrentEpsilon() const;
  std::size_t decisions_made() const { return decisions_; }
  std::size_t train_steps() const { return train_steps_; }
  const ReplayBuffer& buffer() const { return buffer_; }
  /// Direct buffer access for the online learner (its collector's pushes
  /// and checkpoint restore), on the buffer's single writer thread.
  ReplayBuffer& mutable_buffer() { return buffer_; }
  const DqnConfig& config() const { return config_; }

  /// Serialises the training-loop state the weights don't carry: the
  /// sampler RNG engine, the decision counter (epsilon schedule) and the
  /// gradient-step counter (target-sync phase). Together with
  /// SaveWeights/SaveTargetWeights and the buffer contents this makes a
  /// resumed training run bit-identical to an uninterrupted one. Appends
  /// to / reads from the learner's checkpoint blob.
  void SaveTrainerState(util::TextWriter& out) const;
  void LoadTrainerState(util::TextReader& in);

  /// Direct weight access for checkpointing.
  std::vector<double> SaveWeights() const { return online_.SaveWeights(); }
  void LoadWeights(std::span<const double> w);

  /// Target-network access: the target net lags the online net between
  /// syncs, so resuming training after a restart needs both snapshots.
  /// LoadWeights alone syncs target to online; call LoadTargetWeights
  /// afterwards to restore the lagged copy exactly.
  std::vector<double> SaveTargetWeights() const {
    return target_.SaveWeights();
  }
  void LoadTargetWeights(std::span<const double> w) {
    target_.LoadWeights(w);
    ++target_epoch_;
  }

 private:
  DqnConfig config_;
  ml::Mlp online_;
  ml::Mlp target_;
  ReplayBuffer buffer_;
  util::Rng rng_;
  std::size_t decisions_ = 0;
  std::size_t train_steps_ = 0;
  /// Target-network epoch: bumped by every write of target_ (construction,
  /// LoadWeights, LoadTargetWeights, the sync every target_sync_every
  /// steps), so it names one set of target weights. The replay buffer's
  /// bootstrap memo is stamped with it; a memoised max is reused only
  /// under the epoch it was computed in. Never serialised: a restored
  /// agent starts a new epoch and recomputes.
  std::uint64_t target_epoch_ = 0;

  // Registry-backed instruments (obs/metrics.hpp). SelectAction pays one
  // striped counter increment; TrainStep is ms-scale so the extra clock
  // reads for the histogram are noise.
  obs::Counter select_actions_total_{"rl_dqn_select_actions_total",
                                     "DQN action selections."};
  obs::Counter train_steps_total_{"rl_dqn_train_steps_total",
                                  "DQN minibatch gradient steps."};
  obs::Counter target_rows_total_{
      "rl_dqn_target_rows_total",
      "Next-candidate rows scored by the DQN target network in TrainStep."};
  obs::Counter bootstrap_memo_hits_total_{
      "rl_dqn_bootstrap_memo_hits_total",
      "TrainStep bootstrap maxima served from the replay buffer's memo."};
  obs::Histogram train_step_ms_{"rl_dqn_train_step_ms",
                                "One minibatch gradient step (ms).",
                                obs::Histogram::LatencyBucketsMs()};
};

}  // namespace mobirescue::rl
