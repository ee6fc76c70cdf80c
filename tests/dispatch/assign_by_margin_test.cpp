// AssignByMargin, the serving policy's scoring tail, on hand-built rounds:
// column replication, unreachable pairs, the strict positive-margin go
// test, and re-scoring one round under another policy's Q-values.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dispatch/mobirescue_dispatcher.hpp"

namespace mobirescue::dispatch {
namespace {

/// An 11-dim dispatcher feature row (HeuristicPrior reads fixed positions);
/// the depot flag sits at index 4.
std::vector<double> Row(bool depot) {
  std::vector<double> r(DispatchFeaturizer::kFeatureDim, 0.0);
  r[4] = depot ? 1.0 : 0.0;
  return r;
}

/// `teams` decidable teams, every one reaching every candidate: team r's
/// depot row is r * (candidates + 1), its candidate rows follow it. Margins
/// are pure Q (prior_weight 0).
RoundCapture FullRound(std::size_t teams, std::size_t candidates,
                       std::vector<std::size_t> columns) {
  RoundCapture round;
  round.valid = true;
  round.prior_weight = 0.0;
  for (std::size_t r = 0; r < teams; ++r) {
    round.rows.push_back(r);
    round.team_begin.push_back(round.feature_rows.size());
    round.feature_rows.push_back(Row(true));
    round.cand_row.emplace_back();
    for (std::size_t i = 0; i < candidates; ++i) {
      round.cand_row[r].push_back(round.feature_rows.size());
      round.feature_rows.push_back(Row(false));
    }
  }
  for (std::size_t i = 0; i < candidates; ++i) {
    round.candidates.push_back(static_cast<roadnet::SegmentId>(10 + i));
  }
  round.columns = std::move(columns);
  return round;
}

bool Goes(const sim::TeamAction& a, roadnet::SegmentId seg) {
  return a.kind == sim::ActionKind::kGoto && a.target == seg;
}

TEST(AssignByMarginTest, ReplicatedDeepCandidateTakesTwoTeams) {
  // Candidate 10 is replicated into two columns; candidate 11 has one.
  const RoundCapture round = FullRound(2, 2, {0, 0, 1});
  // Both teams prefer candidate 10 over 11; both margins are positive.
  const std::vector<double> q = {0.0, 3.0, 1.0, 0.0, 2.0, 1.5};
  const auto actions = AssignByMargin(round, q);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_TRUE(Goes(actions[0], 10));
  EXPECT_TRUE(Goes(actions[1], 10));
}

TEST(AssignByMarginTest, UnreachablePairIsNeverAssigned) {
  // One team, one candidate it cannot reach: the solver must place the row
  // on the only (forbidden) column, and the team still stays put.
  RoundCapture round = FullRound(1, 1, {0});
  round.cand_row[0][0] = SIZE_MAX;
  round.feature_rows.pop_back();
  auto actions = AssignByMargin(round, {0.0});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, sim::ActionKind::kKeep);

  // Team 0 reaches only candidate 11; team 1 reaches both and would score
  // highest on 10. Team 0 is never sent to 10.
  round = FullRound(2, 2, {0, 1});
  round.cand_row[0][0] = SIZE_MAX;
  actions = AssignByMargin(round, {0.0, 9.0, 1.0, 0.0, 5.0, 4.0});
  EXPECT_TRUE(Goes(actions[0], 11));
  EXPECT_TRUE(Goes(actions[1], 10));
}

TEST(AssignByMarginTest, ZeroAndNegativeMarginsKeep) {
  const RoundCapture round = FullRound(2, 2, {0, 1});
  // Team 0: candidate 10 exactly ties its depot score (margin 0.0), 11 is
  // worse. Team 1: every margin is negative.
  const auto actions =
      AssignByMargin(round, {1.0, 1.0, 0.5, 2.0, -1.0, 1.999});
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].kind, sim::ActionKind::kKeep);
  EXPECT_EQ(actions[1].kind, sim::ActionKind::kKeep);
}

TEST(AssignByMarginTest, EachPolicyGetsItsOwnAssignment) {
  const RoundCapture round = FullRound(1, 2, {0, 1});
  const std::vector<double> live = {0.0, 2.0, 1.0};
  const std::vector<double> shadow = {0.0, 1.0, 2.0};
  EXPECT_TRUE(Goes(AssignByMargin(round, live)[0], 10));
  EXPECT_TRUE(Goes(AssignByMargin(round, shadow)[0], 11));
}

}  // namespace
}  // namespace mobirescue::dispatch
