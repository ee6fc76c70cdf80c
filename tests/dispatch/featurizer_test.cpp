#include "dispatch/featurizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mobirescue::dispatch {
namespace {

class FeaturizerTest : public ::testing::Test {
 protected:
  FeaturizerTest() {
    roadnet::CityConfig config;
    config.grid_width = 8;
    config.grid_height = 8;
    city_ = roadnet::BuildCity(config);
    cond_ = roadnet::NetworkCondition(city_.network.num_segments());
  }

  sim::TeamView TeamAt(roadnet::LandmarkId lm) {
    sim::TeamView v;
    v.id = 0;
    v.at = lm;
    v.capacity = 5;
    v.mode = sim::TeamMode::kIdle;
    return v;
  }

  roadnet::City city_;
  roadnet::NetworkCondition cond_;
};

TEST_F(FeaturizerTest, CandidatesRankedByDemand) {
  DispatchFeaturizer featurizer(city_, {});
  predict::Distribution demand = {{0, 5}, {4, 9}, {8, 1}};
  const RoundData round = featurizer.PrepareRound(demand, cond_);
  ASSERT_EQ(round.candidates.size(), 3u);
  EXPECT_EQ(round.candidates[0], 4);  // highest demand first
  EXPECT_EQ(round.candidates[1], 0);
  EXPECT_EQ(round.candidates[2], 8);
  EXPECT_DOUBLE_EQ(round.total_demand, 15.0);
  EXPECT_EQ(round.trees.size(), 4u);  // +1 for the depot
}

TEST_F(FeaturizerTest, TopKCapsSpeculativeCandidates) {
  FeaturizerConfig config;
  config.top_k = 2;
  DispatchFeaturizer featurizer(city_, config);
  predict::Distribution demand = {{0, 5}, {4, 9}, {8, 1}, {12, 2}};
  const RoundData round = featurizer.PrepareRound(demand, cond_);
  EXPECT_EQ(round.candidates.size(), 2u);
}

TEST_F(FeaturizerTest, MustIncludeBypassesTopK) {
  FeaturizerConfig config;
  config.top_k = 1;
  DispatchFeaturizer featurizer(city_, config);
  predict::Distribution demand = {{0, 5}, {4, 9}};
  const RoundData round = featurizer.PrepareRound(demand, cond_, {8, 12});
  // 2 must-include + 1 speculative.
  EXPECT_EQ(round.candidates.size(), 3u);
  EXPECT_EQ(round.candidates[0], 8);
  EXPECT_EQ(round.candidates[1], 12);
  EXPECT_TRUE(round.pending.count(8));
  EXPECT_TRUE(round.pending.count(12));
  EXPECT_FALSE(round.pending.count(4));
}

TEST_F(FeaturizerTest, FeatureVectorShapeAndSemantics) {
  DispatchFeaturizer featurizer(city_, {});
  predict::Distribution demand = {{0, 8}};
  const RoundData round = featurizer.PrepareRound(demand, cond_, {0});
  const sim::TeamView team = TeamAt(city_.network.segment(0).from);
  const auto f = featurizer.Features(round, team, 0);
  ASSERT_EQ(f.size(), DispatchFeaturizer::kFeatureDim);
  EXPECT_NEAR(f[0], 0.0, 1e-9);   // already at the candidate
  EXPECT_DOUBLE_EQ(f[1], 1.0);    // demand 8 / norm 8
  EXPECT_DOUBLE_EQ(f[4], 0.0);    // not depot
  EXPECT_DOUBLE_EQ(f[5], 1.0);    // idle
  EXPECT_DOUBLE_EQ(f[8], 1.0);    // bias
  EXPECT_DOUBLE_EQ(f[10], 1.0);   // pending flag

  const auto depot = featurizer.Features(round, team, round.candidates.size());
  EXPECT_DOUBLE_EQ(depot[4], 1.0);
  EXPECT_DOUBLE_EQ(depot[1], 0.0);
  EXPECT_DOUBLE_EQ(depot[10], 0.0);
}

TEST_F(FeaturizerTest, CompetitionCountsCloserTeams) {
  DispatchFeaturizer featurizer(city_, {});
  predict::Distribution demand = {{0, 4}};
  const RoundData round = featurizer.PrepareRound(demand, cond_);
  const roadnet::LandmarkId near = city_.network.segment(0).from;
  // Find a far landmark.
  roadnet::LandmarkId far = near;
  double best = 0.0;
  for (const roadnet::Landmark& lm : city_.network.landmarks()) {
    const double d = util::ApproxDistanceMeters(
        lm.pos, city_.network.landmark(near).pos);
    if (d > best) {
      best = d;
      far = lm.id;
    }
  }
  std::vector<sim::TeamView> teams = {TeamAt(far), TeamAt(near)};
  teams[0].id = 0;
  teams[1].id = 1;
  const auto f_far = featurizer.Features(round, teams[0], 0, &teams);
  const auto f_near = featurizer.Features(round, teams[1], 0, &teams);
  EXPECT_GT(f_far[9], f_near[9]);
  EXPECT_DOUBLE_EQ(f_near[9], 0.0);
}

TEST_F(FeaturizerTest, TeamActionSetNearestPlusDepot) {
  FeaturizerConfig config;
  config.per_team_k = 2;
  DispatchFeaturizer featurizer(city_, config);
  predict::Distribution demand;
  for (roadnet::SegmentId s = 0; s < 20; ++s) demand[s] = 1;
  const RoundData round = featurizer.PrepareRound(demand, cond_);
  const sim::TeamView team = TeamAt(0);
  const auto set = featurizer.TeamActionSet(round, team);
  ASSERT_EQ(set.size(), 3u);  // 2 nearest + depot
  EXPECT_TRUE(round.IsDepotAction(set.back()));
  // The two non-depot entries must be sorted by travel time.
  const double t0 = round.trees[set[0]]->time_s[team.at];
  const double t1 = round.trees[set[1]]->time_s[team.at];
  EXPECT_LE(t0, t1);
}

TEST_F(FeaturizerTest, PartialRankingMatchesFullSortReference) {
  // PrepareRound ranks only the top_k it keeps. Against a full sort by
  // count (descending), then segment id: count ties straddle the cut,
  // pending segments stay out of the ranked part, top_k exceeds the ranked
  // set, and the demand map and its total pass through unchanged.
  util::Rng rng(29);
  const std::size_t num_segments = city_.network.num_segments();
  for (const int top_k : {0, 1, 5, 32, 1000}) {
    FeaturizerConfig config;
    config.top_k = top_k;
    DispatchFeaturizer featurizer(city_, config);
    predict::Distribution demand;
    for (int i = 0; i < 80; ++i) {
      // Counts -1..3: many ties, and non-positive counts to skip.
      demand[static_cast<roadnet::SegmentId>(rng.Index(num_segments))] =
          static_cast<int>(rng.Index(5)) - 1;
    }
    std::vector<roadnet::SegmentId> pending;
    for (const auto& [seg, count] : demand) {
      if (count == 3 && pending.size() < 4) pending.push_back(seg);
    }
    ASSERT_FALSE(pending.empty());
    pending.push_back(pending.front());  // a repeated pending segment
    pending.push_back(static_cast<roadnet::SegmentId>(num_segments - 1));

    const std::unordered_set<roadnet::SegmentId> pending_set(pending.begin(),
                                                             pending.end());
    std::vector<std::pair<int, roadnet::SegmentId>> ranked;
    double total = 0.0;
    for (const auto& [seg, count] : demand) {
      if (count <= 0) continue;
      total += count;
      if (pending_set.count(seg) == 0) ranked.emplace_back(count, seg);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    const std::size_t k =
        std::min(ranked.size(), static_cast<std::size_t>(top_k));
    if (top_k == 1 || top_k == 5) {
      ASSERT_GT(ranked.size(), k);
      ASSERT_EQ(ranked[k - 1].first, ranked[k].first) << "no tie at the cut";
    }
    if (top_k == 1000) {
      ASSERT_LT(ranked.size(), static_cast<std::size_t>(top_k));
    }
    std::vector<roadnet::SegmentId> want;
    for (const roadnet::SegmentId seg : pending) {
      if (std::find(want.begin(), want.end(), seg) == want.end()) {
        want.push_back(seg);
      }
    }
    for (std::size_t i = 0; i < k; ++i) want.push_back(ranked[i].second);

    const RoundData round = featurizer.PrepareRound(demand, cond_, pending);
    EXPECT_EQ(round.candidates, want) << "top_k " << top_k;
    EXPECT_EQ(round.demand, demand);
    EXPECT_EQ(round.total_demand, total);
    EXPECT_EQ(round.trees.size(), want.size() + 1);
    EXPECT_EQ(round.pending, pending_set);

    // A moved-in map ranks the same.
    predict::Distribution moved = demand;
    const RoundData from_moved =
        featurizer.PrepareRound(std::move(moved), cond_, pending);
    EXPECT_EQ(from_moved.candidates, want);
    EXPECT_EQ(from_moved.demand, demand);
  }
}

TEST_F(FeaturizerTest, ClosedSegmentsStillCandidates) {
  DispatchFeaturizer featurizer(city_, {});
  predict::Distribution demand = {{0, 5}};
  cond_.Close(0);
  const RoundData round = featurizer.PrepareRound(demand, cond_);
  ASSERT_EQ(round.candidates.size(), 1u);
  EXPECT_EQ(round.candidates[0], 0);
}

// Bit patterns, so -0.0 and +0.0 differ and the comparison is bitwise.
std::vector<std::uint64_t> Bits(const std::vector<double>& row) {
  std::vector<std::uint64_t> bits;
  for (double x : row) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

TEST_F(FeaturizerTest, BatchRowsEqualFeaturesBitwise) {
  // FeaturesInto (the per-candidate tables) against Features (the scan of
  // every team), over a fleet with teams carrying people to hospital,
  // teams cut off from every candidate, a candidate that only the teams at
  // its entry can reach, co-located teams (equal travel times), depot
  // rows, pending candidates and, after a training-style claim, residual
  // demand.
  util::Rng rng(21);
  predict::Distribution demand;
  while (demand.size() < 14) {
    demand[static_cast<roadnet::SegmentId>(
        rng.Index(city_.network.num_segments()))] =
        static_cast<int>(rng.UniformInt(1, 12));
  }
  std::vector<roadnet::SegmentId> pending;
  for (const auto& [seg, count] : demand) {
    if (pending.size() < 3) pending.push_back(seg);
  }
  pending.push_back(static_cast<roadnet::SegmentId>(
      rng.Index(city_.network.num_segments())));  // may lie outside demand

  // Cut off two landmarks that are no candidate's entry (every segment
  // leaving them closed) and one candidate's entry (every segment into it).
  std::unordered_set<roadnet::LandmarkId> entries;
  for (const auto& [seg, count] : demand) {
    entries.insert(city_.network.segment(seg).from);
  }
  for (roadnet::SegmentId seg : pending) {
    entries.insert(city_.network.segment(seg).from);
  }
  std::vector<roadnet::LandmarkId> cut_off;
  for (roadnet::LandmarkId lm = 0;
       cut_off.size() < 2 &&
       static_cast<std::size_t>(lm) < city_.network.num_landmarks();
       ++lm) {
    if (entries.count(lm) == 0 && lm != city_.depot) cut_off.push_back(lm);
  }
  ASSERT_EQ(cut_off.size(), 2u);
  for (roadnet::LandmarkId lm : cut_off) {
    for (roadnet::SegmentId seg : city_.network.OutSegments(lm)) {
      cond_.Close(seg);
    }
  }
  const roadnet::LandmarkId sealed = city_.network.segment(pending[0]).from;
  for (roadnet::SegmentId seg = 0;
       static_cast<std::size_t>(seg) < city_.network.num_segments(); ++seg) {
    if (city_.network.segment(seg).to == sealed) cond_.Close(seg);
  }

  DispatchFeaturizer featurizer(city_, {});
  RoundData round = featurizer.PrepareRound(demand, cond_, pending);
  ASSERT_GE(round.candidates.size(), 14u);

  std::vector<sim::TeamView> teams;
  const sim::TeamMode modes[] = {sim::TeamMode::kIdle, sim::TeamMode::kToTarget,
                                 sim::TeamMode::kToHospital,
                                 sim::TeamMode::kToDepot};
  for (int id = 0; id < 40; ++id) {
    sim::TeamView t = TeamAt(static_cast<roadnet::LandmarkId>(
        rng.Index(city_.network.num_landmarks())));
    t.id = id;
    // Three co-located groups of four, then four cut-off teams.
    if (id < 12) t.at = city_.network.segment(round.candidates[id % 3]).from;
    if (id >= 12 && id < 16) t.at = cut_off[id % 2];
    t.mode = modes[id % 4];
    t.onboard = static_cast<int>(rng.UniformInt(0, 5));
    if (id % 5 == 0) {
      t.target_segment = round.candidates[id % round.candidates.size()];
    }
    teams.push_back(t);
  }

  CandidateTimes times;
  int unreachable = 0, ties = 0, counted = 0, hospital_closer = 0;
  int pending_rows = 0, depot_rows = 0;
  auto check_all = [&](const char* phase) {
    featurizer.TimesToCandidates(round, teams, times);
    std::vector<double> row;
    for (std::size_t k = 0; k < teams.size(); ++k) {
      for (std::size_t idx = 0; idx <= round.candidates.size(); ++idx) {
        featurizer.FeaturesInto(round, times, teams, k, idx, row);
        const std::vector<double> ref =
            featurizer.Features(round, teams[k], idx, &teams);
        ASSERT_EQ(Bits(row), Bits(ref))
            << phase << " team " << k << " action " << idx;
        if (round.IsDepotAction(idx)) {
          ++depot_rows;
          continue;
        }
        const roadnet::ShortestPathTree& tree = *round.trees[idx];
        if (!tree.Reachable(teams[k].at)) {
          ++unreachable;
          continue;
        }
        pending_rows += ref[10] == 1.0;
        counted += ref[9] > 0.0;
        const double own = tree.time_s[teams[k].at];
        for (std::size_t j = 0; j < teams.size(); ++j) {
          const double other = tree.time_s[teams[j].at];
          if (teams[j].mode == sim::TeamMode::kToHospital) {
            hospital_closer += other < own;  // closer, but not competing
          } else {
            ties += j != k && other == own;
          }
        }
      }
      const std::vector<std::size_t> set =
          featurizer.TeamActionSet(round, teams[k]);
      const auto batch = featurizer.FeaturesFor(round, times, teams, k, set);
      ASSERT_EQ(batch.size(), set.size());
      for (std::size_t a = 0; a < set.size(); ++a) {
        ASSERT_EQ(Bits(batch[a]),
                  Bits(featurizer.Features(round, teams[k], set[a], &teams)))
            << phase << " team " << k << " set entry " << a;
      }
    }
  };
  check_all("opening");

  // Training's sequential claim lowers the count the rows read: candidate
  // 0's rows must show the residual, in both forms.
  const int opening = round.candidate_demand[0];
  const double opening_total = round.total_demand;
  const int absorbed = std::min(opening, 3);
  round.candidate_demand[0] -= absorbed;
  round.total_demand = std::max(0.0, round.total_demand - absorbed);
  check_all("after claim");
  const std::vector<double> claimed =
      featurizer.Features(round, teams[0], 0, &teams);
  EXPECT_EQ(claimed[1], std::min(3.0, (opening - absorbed) / 8.0));
  EXPECT_EQ(claimed[2], std::min(3.0, (opening_total - absorbed) / 60.0));
  EXPECT_LT(claimed[1], std::min(3.0, opening / 8.0));

  EXPECT_GT(unreachable, 0);
  EXPECT_GT(ties, 0);
  EXPECT_GT(counted, 0);
  EXPECT_GT(hospital_closer, 0);
  EXPECT_GT(pending_rows, 0);
  EXPECT_GT(depot_rows, 0);
}

}  // namespace
}  // namespace mobirescue::dispatch
