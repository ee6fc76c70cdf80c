// The MobiRescue dispatcher (Section IV): SVM-predicted request
// distribution + DQN policy, re-planned every period with sub-second
// inference latency. Supports online training (the paper keeps training the
// RL model while it runs, Section IV-C4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dispatch/featurizer.hpp"
#include "obs/metrics.hpp"
#include "predict/svm_predictor.hpp"
#include "rl/dqn_agent.hpp"
#include "roadnet/spatial_index.hpp"
#include "sim/dispatcher.hpp"
#include "sim/population_tracker.hpp"

namespace mobirescue::dispatch {

/// The weights (alpha, beta, gamma) of the paper's reward Eq. (5):
/// r = alpha * N^q - beta * T^d - gamma * N^m, decomposed per team (the sum
/// over teams recovers the global reward).
/// The paper leaves (alpha, beta, gamma) to be "manually set"; these
/// defaults make serving dominant (alpha) with driving delay and fleet size
/// as soft tie-breakers, which reproduces the published behaviour. The
/// ablation bench sweeps them.
struct RewardWeights {
  double alpha = 2.0;         // per served request
  double beta = 1.0 / 7200.0; // per second of driving delay
  double gamma = 0.01;        // per serving team
};

/// One team's open macro-transition (semi-MDP style), shared by the offline
/// training path and the online learner's collector: a decision commits a
/// team to a leg, the Eq. (5) reward accrues over the leg's rounds, and the
/// transition closes when the team is next decidable.
struct OpenTransition {
  std::vector<double> features;
  double accumulated = 0.0;
  int rounds = 0;
  bool valid = false;
  /// True when the open transition is a stand-down (depot/keep) choice;
  /// the collector collapses consecutive stand-downs into one transition
  /// per streak. (The offline path recognises a re-affirmed stand-down
  /// from the team's position instead and leaves this false.)
  bool is_standdown = false;

  /// Opens on the chosen action's feature row. Choosing to serve is
  /// charged the serving-team cost gamma once, here; standing down opens
  /// at zero.
  void Open(std::vector<double> row, const RewardWeights& reward,
            bool serving);
  /// Closes into a replay transition bootstrapped on `next_candidates`
  /// (the team's action rows this round).
  rl::Transition Close(std::vector<std::vector<double>> next_candidates);
};

/// Accrues one round of the per-team Eq. (5) reward onto every open
/// transition: the team's served requests and its driving time since the
/// previous round. `open` is parallel to context.teams and is reset when
/// the fleet size changes.
void AccrueRound(const RewardWeights& reward,
                 const sim::DispatchContext& context,
                 std::vector<OpenTransition>& open);

/// One evaluation round's scored action space, kept by DecideByAssignment
/// after every round: the feature rows and Q-values the live policy
/// scored, plus the row/column layout needed to re-score the same round
/// under a different Q-network (AssignByMargin). The learning subsystem
/// (src/learn/) reads it; keeping it never changes what the live policy
/// decides.
struct RoundCapture {
  /// False when the round had no decidable teams or no candidates (nothing
  /// was scored); the other fields then hold leftovers and are not read.
  bool valid = false;
  /// All scored feature rows of the round: for each decidable team its
  /// depot row followed by one row per reachable candidate.
  std::vector<std::vector<double>> feature_rows;
  /// Indices (into the context's team array) of the decidable teams.
  std::vector<std::size_t> rows;
  /// Per decidable team: index of its depot row in `feature_rows`.
  std::vector<std::size_t> team_begin;
  /// cand_row[r][i] = feature row of (decidable team r, candidate i), or
  /// SIZE_MAX when candidate i was unreachable for that team.
  std::vector<std::vector<std::size_t>> cand_row;
  /// Assignment columns: candidate index per column (deep-demand
  /// candidates are replicated).
  std::vector<std::size_t> columns;
  std::vector<roadnet::SegmentId> candidates;
  /// The live policy's Q-values for `feature_rows` (same order).
  std::vector<double> live_q;
  /// The live policy's chosen action per decidable team (parallel to
  /// `rows`).
  std::vector<sim::TeamAction> live_actions;
  /// The residual-prior weight the live score used (score = prior_weight *
  /// HeuristicPrior + Q); shadows must use the same blend.
  double prior_weight = 0.0;
};

struct MobiRescueConfig {
  /// Inference latency charged per round; paper: < 0.5 s.
  double compute_latency_s = 0.4;
  /// The SVM prediction is refreshed at this cadence (factors drift slowly).
  double prediction_refresh_s = 1800.0;
  RewardWeights reward;
  FeaturizerConfig featurizer;
  bool training = false;
  /// Residual prior: actions are chosen by argmax of
  /// `prior_weight * heuristic_prior(features) + Q(features)`. The prior
  /// (demand-seeking, distance- and competition-averse) anchors the policy;
  /// the DQN learns corrections on top. The ablation bench sweeps it.
  double prior_weight = 0.5;
  /// A serving team is re-targeted to an appeared request only when doing
  /// so beats finishing its current leg by at least this margin (s).
  double retarget_margin_s = 120.0;
  int train_steps_per_round = 4;
  /// Fault-injection hook (DESIGN.md §13): called right before each SVM
  /// prediction refresh; a throw simulates a predictor failure. The
  /// dispatcher degrades to its last-known distribution and retries at the
  /// next refresh cadence.
  std::function<void(double now)> prediction_chaos;
};

class MobiRescueDispatcher : public sim::Dispatcher {
 public:
  /// `tracker` is any population snapshot source: the batch pipeline hands
  /// in a PopulationTracker replaying a recorded day; the online service
  /// hands in its streamed serve::StreamState. Decisions depend only on
  /// snapshot content, so equal-content sources give identical decisions.
  MobiRescueDispatcher(const roadnet::City& city,
                       const predict::SvmRequestPredictor& predictor,
                       sim::PopulationSource& tracker,
                       const roadnet::SpatialIndex& index,
                       std::shared_ptr<rl::DqnAgent> agent,
                       double day_offset_s, MobiRescueConfig config = {});

  std::string name() const override { return "MobiRescue"; }
  sim::DispatchDecision Decide(const sim::DispatchContext& context) override;

  const rl::DqnAgent& agent() const { return *agent_; }
  double last_train_loss() const { return last_loss_; }

  // Introspection for the serve layer's metrics.
  const DispatchFeaturizer& featurizer() const { return featurizer_; }
  /// The cached SVM prediction {ñ_e} and when it was last refreshed.
  const predict::Distribution& predicted_distribution() const {
    return cached_distribution_;
  }
  double prediction_refreshed_at() const { return cached_at_; }
  /// Prediction refreshes that failed (the dispatcher kept serving on the
  /// last-known distribution).
  std::uint64_t prediction_failures() const { return prediction_failures_; }

  /// The heuristic prior over one action's features: demand-seeking,
  /// distance- and competition-averse, 0 for the depot action.
  static double HeuristicPrior(const std::vector<double>& features);

  /// The scored action space of the last evaluation-mode Decide() (invalid
  /// when that round scored nothing).
  const RoundCapture& last_capture() const { return capture_; }

 private:
  /// Evaluation-time joint-action selection: the pending-swing re-target
  /// for serving teams, then AssignByMargin over the decidable teams,
  /// built straight into capture_.
  void DecideByAssignment(const sim::DispatchContext& context,
                          const RoundData& round,
                          sim::DispatchDecision& decision);
  /// Training-time selection: per-team epsilon-greedy with sequential
  /// demand claims, then a travel-time realisation pass.
  void DecideTraining(const sim::DispatchContext& context, RoundData& round,
                      sim::DispatchDecision& decision);

  const roadnet::City& city_;
  const predict::SvmRequestPredictor& predictor_;
  sim::PopulationSource& tracker_;
  const roadnet::SpatialIndex& index_;
  std::shared_ptr<rl::DqnAgent> agent_;
  double day_offset_s_;
  MobiRescueConfig config_;
  DispatchFeaturizer featurizer_;

  predict::Distribution cached_distribution_;
  double cached_at_ = -1.0e18;
  // Per-round buffers kept across rounds so their storage is reused: the
  // round's demand map (copied from cached_distribution_, lent to the
  // round, handed back) and the team-to-candidate travel times.
  predict::Distribution demand_;
  CandidateTimes times_;
  std::uint64_t prediction_failures_ = 0;
  obs::Counter prediction_failures_total_{
      "dispatch_prediction_failures_total",
      "SVM prediction refreshes that threw; the last-known distribution "
      "was kept."};
  // Decide-stage latency, one sample per stage run (DESIGN.md §12.1); each
  // stage also opens the OBS_SPAN of the same dotted name.
  obs::Histogram prep_ms_{"dispatch_prep_ms",
                          "Round prep: candidate ranking and reverse "
                          "shortest-path trees (ms).",
                          obs::Histogram::LatencyBucketsMs()};
  obs::Histogram featurise_ms_{"dispatch_featurise_ms",
                               "Feature rows of one assignment round (ms).",
                               obs::Histogram::LatencyBucketsMs()};
  obs::Histogram qpass_ms_{"rl_qpass_ms",
                           "The round's one batched Q-network pass (ms).",
                           obs::Histogram::LatencyBucketsMs()};
  obs::Histogram assign_ms_{"opt_assign_ms",
                            "Margins and the Hungarian solve of one "
                            "assignment round (ms).",
                            obs::Histogram::LatencyBucketsMs()};

  std::vector<OpenTransition> pending_;  // training only; per team
  double last_loss_ = 0.0;

  RoundCapture capture_;
};

/// The serving policy's scoring tail (DESIGN.md §5), pure so live serving
/// and shadow policies run the same code: team r's margin for a column is
/// `prior_weight * HeuristicPrior(row) + q[row]` minus the same score of
/// its depot row, and a maximum-margin assignment of teams to columns
/// sends a team only where its margin is positive. `q` is parallel to
/// `round.feature_rows`; the result has one action per `round.rows` entry.
std::vector<sim::TeamAction> AssignByMargin(const RoundCapture& round,
                                            const std::vector<double>& q);

}  // namespace mobirescue::dispatch
