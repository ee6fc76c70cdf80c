#include "dispatch/mobirescue_dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"
#include "opt/hungarian.hpp"

namespace mobirescue::dispatch {

namespace {

/// Puts the wall time of the enclosing scope into a decide stage's
/// histogram (next to the stage's OBS_SPAN, which only records while
/// tracing is on).
class StageTimer {
 public:
  explicit StageTimer(obs::Histogram& hist)
      : hist_(hist), t0_(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    hist_.Observe(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0_)
                      .count());
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  obs::Histogram& hist_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

MobiRescueDispatcher::MobiRescueDispatcher(
    const roadnet::City& city, const predict::SvmRequestPredictor& predictor,
    sim::PopulationSource& tracker, const roadnet::SpatialIndex& index,
    std::shared_ptr<rl::DqnAgent> agent, double day_offset_s,
    MobiRescueConfig config)
    : city_(city),
      predictor_(predictor),
      tracker_(tracker),
      index_(index),
      agent_(std::move(agent)),
      day_offset_s_(day_offset_s),
      config_(config),
      featurizer_(city, config.featurizer) {}

double MobiRescueDispatcher::HeuristicPrior(
    const std::vector<double>& features) {
  if (features[4] > 0.5) return 0.05;  // depot: small standby margin
  return 2.0 * features[1] + 2.0 * features[10] - features[0] - features[9];
}

void OpenTransition::Open(std::vector<double> row, const RewardWeights& reward,
                          bool serving) {
  features = std::move(row);
  accumulated = serving ? -reward.gamma : 0.0;
  rounds = 0;
  valid = true;
}

rl::Transition OpenTransition::Close(
    std::vector<std::vector<double>> next_candidates) {
  rl::Transition t;
  t.features = std::move(features);
  t.reward = accumulated;
  t.next_candidates = std::move(next_candidates);
  t.terminal = false;
  t.duration_rounds = std::max(1, rounds);
  valid = false;
  return t;
}

void AccrueRound(const RewardWeights& reward,
                 const sim::DispatchContext& context,
                 std::vector<OpenTransition>& open) {
  if (open.size() != context.teams.size()) {
    open.assign(context.teams.size(), {});
  }
  for (std::size_t k = 0; k < context.teams.size(); ++k) {
    OpenTransition& pt = open[k];
    if (!pt.valid) continue;
    const sim::TeamView& team = context.teams[k];
    // Per-team decomposition of Eq. (5): this team's served requests and
    // its driving time toward its assignment since the last round (the
    // serving-team cost gamma is charged once, at decision time).
    pt.accumulated += reward.alpha * team.served_since_dispatch -
                      reward.beta * team.drive_time_since_dispatch;
    ++pt.rounds;
  }
}

std::vector<sim::TeamAction> AssignByMargin(const RoundCapture& round,
                                            const std::vector<double>& q) {
  opt::AssignmentProblem problem;
  problem.rows = round.rows.size();
  problem.cols = round.columns.size();
  problem.cost.assign(problem.rows * problem.cols, opt::kForbiddenCost);
  // Row-major rows x columns, like problem.cost.
  std::vector<double> margin(problem.rows * problem.cols);
  std::vector<double> by_candidate;
  for (std::size_t r = 0; r < problem.rows; ++r) {
    const std::size_t depot = round.team_begin[r];
    const double depot_score =
        round.prior_weight *
            MobiRescueDispatcher::HeuristicPrior(round.feature_rows[depot]) +
        q[depot];
    // Score each distinct candidate once, then spread to its columns.
    by_candidate.assign(round.candidates.size(),
                        -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < round.candidates.size(); ++i) {
      const std::size_t row = round.cand_row[r][i];
      if (row == SIZE_MAX) continue;
      by_candidate[i] =
          round.prior_weight *
              MobiRescueDispatcher::HeuristicPrior(round.feature_rows[row]) +
          q[row] - depot_score;
    }
    for (std::size_t c = 0; c < problem.cols; ++c) {
      const double m = by_candidate[round.columns[c]];
      margin[r * problem.cols + c] = m;
      if (std::isfinite(m)) {
        problem.at(r, c) = -m;  // Hungarian minimises
      }
    }
  }
  const opt::AssignmentResult result = opt::SolveAssignment(problem);
  std::vector<sim::TeamAction> actions(problem.rows);
  for (std::size_t r = 0; r < problem.rows; ++r) {
    const int col = result.row_to_col[r];
    if (col >= 0 &&
        margin[r * problem.cols + static_cast<std::size_t>(col)] > 0.0) {
      actions[r].kind = sim::ActionKind::kGoto;
      actions[r].target =
          round.candidates[round.columns[static_cast<std::size_t>(col)]];
    }
    // Otherwise kKeep, a stand-down in place: the team stops serving (it
    // is not counted as a serving team) but stays staged where it is —
    // typically the hospital it last delivered to — instead of burning
    // fuel on a trek to the dispatching centre.
  }
  return actions;
}

void MobiRescueDispatcher::DecideByAssignment(
    const sim::DispatchContext& context, const RoundData& round,
    sim::DispatchDecision& decision) {
  // The round's scored action space is built straight into capture_,
  // reusing the previous round's storage. A round that ends on an early
  // return was not scored — its capture stays invalid (the learner just
  // accrues rewards on such rounds).
  RoundCapture& cap = capture_;
  cap.valid = false;
  cap.rows.clear();
  cap.columns.clear();

  // Appeared requests are re-target opportunities for serving teams,
  // except segments some team is already heading to (they are covered).
  std::unordered_set<roadnet::SegmentId> pending_now;
  for (const sim::RequestView& r : context.pending) {
    pending_now.insert(r.segment);
  }
  for (const sim::TeamView& t : context.teams) {
    if (t.mode == sim::TeamMode::kToTarget) pending_now.erase(t.target_segment);
  }

  // Serving teams keep their legs, with the pending-swing exception.
  for (std::size_t k = 0; k < context.teams.size(); ++k) {
    const sim::TeamView& team = context.teams[k];
    sim::TeamAction& action = decision.actions[k];
    if (team.mode == sim::TeamMode::kIdle ||
        team.mode == sim::TeamMode::kToDepot) {
      cap.rows.push_back(k);  // decidable
      continue;
    }
    action.kind = sim::ActionKind::kKeep;
    if (team.mode != sim::TeamMode::kToTarget) continue;
    // Swing to an appeared request when decisively better than finishing.
    std::size_t best_idx = round.candidates.size();
    double best_time = team.leg_remaining_s - config_.retarget_margin_s;
    for (std::size_t i = 0; i < round.candidates.size(); ++i) {
      const roadnet::SegmentId seg = round.candidates[i];
      if (seg == team.target_segment || pending_now.count(seg) == 0) continue;
      const auto& tree = *round.trees[i];
      if (tree.Reachable(team.at) && tree.time_s[team.at] < best_time) {
        best_time = tree.time_s[team.at];
        best_idx = i;
      }
    }
    if (best_idx < round.candidates.size()) {
      action.kind = sim::ActionKind::kGoto;
      action.target = round.candidates[best_idx];
      pending_now.erase(action.target);
    }
  }
  if (cap.rows.empty()) return;
  if (round.candidates.empty()) {
    for (std::size_t k : cap.rows) {
      decision.actions[k].kind = sim::ActionKind::kDepot;
    }
    return;
  }

  // Columns: candidate instances, replicated for multi-person demand so
  // several teams can be sent to a deep cluster.
  for (std::size_t i = 0; i < round.candidates.size(); ++i) {
    int copies = 1;
    const int count = round.candidate_demand[i];
    if (count > 5) copies = std::min(3, (count + 4) / 5);
    for (int c = 0; c < copies; ++c) cap.columns.push_back(i);
  }

  // All (team, action) feature rows of the round — each team's depot row
  // plus its reachable candidates — go through ONE batched Q-network pass;
  // entry order makes every row's Q bit-identical to a per-row evaluation.
  // Rows are written over the previous round's, then the surplus dropped.
  cap.team_begin.resize(cap.rows.size());
  cap.cand_row.resize(cap.rows.size());
  {
    OBS_SPAN("dispatch.featurise");
    StageTimer timer(featurise_ms_);
    featurizer_.TimesToCandidates(round, context.teams, times_);
    std::size_t n = 0;
    auto next_row = [&cap, &n]() -> std::vector<double>& {
      if (n == cap.feature_rows.size()) cap.feature_rows.emplace_back();
      return cap.feature_rows[n++];
    };
    for (std::size_t r = 0; r < cap.rows.size(); ++r) {
      const std::size_t k = cap.rows[r];
      const sim::TeamView& team = context.teams[k];
      cap.team_begin[r] = n;
      featurizer_.FeaturesInto(round, times_, context.teams, k,
                               round.candidates.size(), next_row());
      cap.cand_row[r].assign(round.candidates.size(), SIZE_MAX);
      for (std::size_t i = 0; i < round.candidates.size(); ++i) {
        if (!round.trees[i]->Reachable(team.at)) continue;
        cap.cand_row[r][i] = n;
        featurizer_.FeaturesInto(round, times_, context.teams, k, i,
                                 next_row());
      }
    }
    cap.feature_rows.resize(n);
  }
  cap.candidates = round.candidates;
  cap.prior_weight = config_.prior_weight;
  {
    OBS_SPAN("rl.qpass");
    StageTimer timer(qpass_ms_);
    cap.live_q = agent_->QValues(cap.feature_rows);
  }
  {
    OBS_SPAN("opt.assign");
    StageTimer timer(assign_ms_);
    cap.live_actions = AssignByMargin(cap, cap.live_q);
  }
  for (std::size_t r = 0; r < cap.rows.size(); ++r) {
    decision.actions[cap.rows[r]] = cap.live_actions[r];
  }
  cap.valid = true;
}

sim::DispatchDecision MobiRescueDispatcher::Decide(
    const sim::DispatchContext& context) {
  // Stage 2 of the framework: refresh the predicted distribution of
  // potential rescue requests from the current population snapshot. A
  // failed refresh degrades to the last-known distribution (DESIGN.md §13
  // ladder rung 1) — predictions drift slowly, so a stale {ñ_e} beats no
  // dispatch at all; the refresh is retried at the next cadence point.
  if (context.now - cached_at_ >= config_.prediction_refresh_s) {
    try {
      if (config_.prediction_chaos) config_.prediction_chaos(context.now);
      OBS_SPAN("predict.refresh");
      // The source's own map-match of each record is reused; the
      // predictor matches only the people it has none for. The
      // predictor's own sub-spans split the rest of the refresh.
      const std::vector<mobility::GpsRecord>* snapshot = nullptr;
      {
        OBS_SPAN("predict.snapshot");
        snapshot = &tracker_.Snapshot(context.now);
      }
      cached_distribution_ = predictor_.PredictDistribution(
          *snapshot, context.now, day_offset_s_, index_,
          tracker_.SnapshotSegments());
    } catch (const std::exception&) {
      ++prediction_failures_;
      prediction_failures_total_.Increment();
    }
    cached_at_ = context.now;
  }
  // The dispatching centre also knows about already-appeared pending
  // requests; fold them into the demand map with a higher weight than the
  // speculative SVM counts — an appeared request is certain demand. The
  // copy goes into demand_, whose buffer the last round handed back.
  demand_ = cached_distribution_;
  std::vector<roadnet::SegmentId> pending_segments;
  for (const sim::RequestView& r : context.pending) {
    demand_[r.segment] += 4;
    pending_segments.push_back(r.segment);
  }

  RoundData round;
  {
    OBS_SPAN("dispatch.prep");
    StageTimer timer(prep_ms_);
    round = featurizer_.PrepareRound(std::move(demand_), *context.condition,
                                     pending_segments);
  }

  sim::DispatchDecision decision;
  decision.compute_latency_s = config_.compute_latency_s;
  decision.actions.resize(context.teams.size());

  if (!config_.training) {
    // Joint-action argmax: the Q-network (plus prior) scores each (team,
    // candidate) pair; the best joint action under "one team per candidate
    // instance" is a maximum-score bipartite assignment. Teams whose best
    // use is standing down keep their position (kKeep, DESIGN.md §5).
    // Serving/delivering teams keep their legs (with the pending-swing
    // exception).
    DecideByAssignment(context, round, decision);
  } else {
    DecideTraining(context, round, decision);
  }
  demand_ = std::move(round.demand);
  return decision;
}

void MobiRescueDispatcher::DecideTraining(const sim::DispatchContext& context,
                                          RoundData& round,
                                          sim::DispatchDecision& decision) {
  AccrueRound(config_.reward, context, pending_);
  featurizer_.TimesToCandidates(round, context.teams, times_);
  for (std::size_t k = 0; k < context.teams.size(); ++k) {
    const sim::TeamView& team = context.teams[k];
    sim::TeamAction& action = decision.actions[k];
    // Commitment semantics: a team mid-leg finishes its leg; idle teams and
    // depot-bound teams (standing down is always interruptible) receive new
    // decisions.
    const bool decidable = team.mode == sim::TeamMode::kIdle ||
                           team.mode == sim::TeamMode::kToDepot;
    if (!decidable) {
      action.kind = sim::ActionKind::kKeep;
      continue;
    }

    const std::vector<std::size_t> action_set =
        featurizer_.TeamActionSet(round, team);
    auto features =
        featurizer_.FeaturesFor(round, times_, context.teams, k, action_set);

    // The team is idle: its previous macro-transition (if any) is complete.
    if (pending_[k].valid) agent_->Push(pending_[k].Close(features));

    if (round.candidates.empty()) {
      action.kind = sim::ActionKind::kDepot;
      continue;
    }
    std::size_t local_idx = 0;
    if (agent_->ExploreNow()) {
      local_idx = agent_->RandomAction(features.size());
    } else {
      // One batched Q pass over the team's whole action set.
      const std::vector<double> qs = agent_->QValues(features);
      double best = -1e300;
      for (std::size_t i = 0; i < features.size(); ++i) {
        const double score =
            config_.prior_weight * HeuristicPrior(features[i]) + qs[i];
        if (score > best) {
          best = score;
          local_idx = i;
        }
      }
    }
    const std::size_t idx = action_set[local_idx];
    const bool serving = !round.IsDepotAction(idx);
    if (!serving) {
      action.kind = sim::ActionKind::kDepot;
      if (team.at == city_.depot || team.mode == sim::TeamMode::kToDepot) {
        // Re-affirming a stand-down is a no-op; don't open a
        // zero-information transition that would flood the replay buffer.
        continue;
      }
    } else {
      action.kind = sim::ActionKind::kGoto;
      action.target = round.candidates[idx];
      // Sequential claiming: this team absorbs part of the candidate's
      // demand, so later teams in the same round see the residual (the
      // count their rows read) and spread instead of piling onto one
      // segment.
      int& count = round.candidate_demand[idx];
      const int claim = std::max(1, team.capacity - team.onboard);
      const int absorbed = std::min(count, claim);
      count -= absorbed;
      round.total_demand = std::max(0.0, round.total_demand - absorbed);
    }
    pending_[k].Open(std::move(features[local_idx]), config_.reward, serving);
  }

  // Realisation pass: the policy has decided *which* destination segments
  // get covered (and by how many teams); assign the choosing teams to the
  // chosen segment instances with minimum total travel time. This permutes
  // teams within the same joint action a = (x_mk), so it changes no
  // coverage decision — it only removes crossed-over driving.
  std::vector<std::size_t> goers;
  std::vector<roadnet::SegmentId> chosen;
  for (std::size_t k = 0; k < decision.actions.size(); ++k) {
    if (decision.actions[k].kind == sim::ActionKind::kGoto &&
        context.teams[k].mode == sim::TeamMode::kIdle) {
      goers.push_back(k);
      chosen.push_back(decision.actions[k].target);
    }
  }
  if (goers.size() > 1) {
    // Travel times from the round's reverse trees (one per candidate).
    std::unordered_map<roadnet::SegmentId, const roadnet::ShortestPathTree*>
        tree_of;
    for (std::size_t i = 0; i < round.candidates.size(); ++i) {
      tree_of[round.candidates[i]] = round.trees[i].get();
    }
    opt::AssignmentProblem problem;
    problem.rows = goers.size();
    problem.cols = chosen.size();
    problem.cost.assign(problem.rows * problem.cols, opt::kForbiddenCost);
    for (std::size_t c = 0; c < chosen.size(); ++c) {
      const auto it = tree_of.find(chosen[c]);
      if (it == tree_of.end()) continue;
      for (std::size_t r = 0; r < goers.size(); ++r) {
        const roadnet::LandmarkId at = context.teams[goers[r]].at;
        if (it->second->Reachable(at)) {
          problem.at(r, c) = it->second->time_s[at];
        }
      }
    }
    const opt::AssignmentResult assignment = opt::SolveAssignment(problem);
    for (std::size_t r = 0; r < goers.size(); ++r) {
      if (assignment.row_to_col[r] >= 0) {
        decision.actions[goers[r]].target =
            chosen[static_cast<std::size_t>(assignment.row_to_col[r])];
      }
    }
    // Keep the learning attribution consistent with what each team will
    // actually do: re-featurise the assigned destination.
    for (std::size_t r = 0; r < goers.size(); ++r) {
      const std::size_t k = goers[r];
      if (!pending_[k].valid) continue;
      for (std::size_t i = 0; i < round.candidates.size(); ++i) {
        if (round.candidates[i] == decision.actions[k].target) {
          featurizer_.FeaturesInto(round, times_, context.teams, k, i,
                                   pending_[k].features);
          break;
        }
      }
    }
  }

  for (int i = 0; i < config_.train_steps_per_round; ++i) {
    last_loss_ = agent_->TrainStep();
  }
}

}  // namespace mobirescue::dispatch
