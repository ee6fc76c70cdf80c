#include "roadnet/router.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace mobirescue::roadnet {
namespace {

/// A 1x3 line: 0 -- 1 -- 2 plus a slow long direct 0 -> 2 shortcut.
class RouterTest : public ::testing::Test {
 protected:
  RouterTest() {
    a_ = net_.AddLandmark({35.70, -79.00}, 200, 1);
    b_ = net_.AddLandmark({35.70, -78.95}, 200, 1);
    c_ = net_.AddLandmark({35.70, -78.90}, 200, 1);
    ab_ = net_.AddSegment(a_, b_, 10.0, 1000.0);
    ba_ = net_.AddSegment(b_, a_, 10.0, 1000.0);
    bc_ = net_.AddSegment(b_, c_, 10.0, 1000.0);
    cb_ = net_.AddSegment(c_, b_, 10.0, 1000.0);
    // Direct a -> c but slow: 9000 m at 10 m/s = 900 s vs 200 s via b.
    ac_ = net_.AddSegment(a_, c_, 10.0, 9000.0);
  }

  RoadNetwork net_;
  LandmarkId a_, b_, c_;
  SegmentId ab_, ba_, bc_, cb_, ac_;
};

TEST_F(RouterTest, ShortestRoutePrefersFastPath) {
  Router router(net_);
  NetworkCondition cond(net_.num_segments());
  const auto route = router.ShortestRoute(a_, c_, cond);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->segments, (std::vector<SegmentId>{ab_, bc_}));
  EXPECT_NEAR(route->travel_time_s, 200.0, 1e-9);
  EXPECT_NEAR(route->length_m, 2000.0, 1e-9);
}

TEST_F(RouterTest, ClosedSegmentForcesDetour) {
  Router router(net_);
  NetworkCondition cond(net_.num_segments());
  cond.Close(ab_);
  const auto route = router.ShortestRoute(a_, c_, cond);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->segments, (std::vector<SegmentId>{ac_}));
  EXPECT_NEAR(route->travel_time_s, 900.0, 1e-9);
}

TEST_F(RouterTest, SpeedFactorChangesChoice) {
  Router router(net_);
  NetworkCondition cond(net_.num_segments());
  // Slow both legs of the fast path by 10x: 2000 s > 900 s direct.
  cond.SetSpeedFactor(ab_, 0.1);
  cond.SetSpeedFactor(bc_, 0.1);
  const auto route = router.ShortestRoute(a_, c_, cond);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->segments, (std::vector<SegmentId>{ac_}));
}

TEST_F(RouterTest, UnreachableReturnsNullopt) {
  Router router(net_);
  NetworkCondition cond(net_.num_segments());
  cond.Close(ab_);
  cond.Close(ac_);
  EXPECT_FALSE(router.ShortestRoute(a_, c_, cond).has_value());
  EXPECT_TRUE(std::isinf(router.Tree(a_, cond).time_s[c_]));
}

TEST_F(RouterTest, RouteToSelfIsEmpty) {
  Router router(net_);
  NetworkCondition cond(net_.num_segments());
  const auto route = router.ShortestRoute(a_, a_, cond);
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->empty());
  EXPECT_DOUBLE_EQ(route->travel_time_s, 0.0);
}

TEST_F(RouterTest, TreeCoversAllReachable) {
  Router router(net_);
  NetworkCondition cond(net_.num_segments());
  const ShortestPathTree tree = router.Tree(a_, cond);
  EXPECT_TRUE(tree.Reachable(a_));
  EXPECT_TRUE(tree.Reachable(b_));
  EXPECT_TRUE(tree.Reachable(c_));
  EXPECT_DOUBLE_EQ(tree.time_s[a_], 0.0);
  EXPECT_NEAR(tree.time_s[c_], 200.0, 1e-9);
}

TEST_F(RouterTest, ReverseTreeGivesTimesToTarget) {
  Router router(net_);
  NetworkCondition cond(net_.num_segments());
  const ShortestPathTree rtree = router.ReverseTree(c_, cond);
  EXPECT_NEAR(rtree.time_s[a_], 200.0, 1e-9);
  EXPECT_NEAR(rtree.time_s[b_], 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(rtree.time_s[c_], 0.0);
  // Forward and reverse agree for every source.
  for (LandmarkId lm : {a_, b_, c_}) {
    EXPECT_NEAR(rtree.time_s[lm], router.Tree(lm, cond).time_s[c_], 1e-9);
  }
}

TEST_F(RouterTest, ReverseTreeRespectsDirectionality) {
  // Make a one-way only network: a -> b only.
  RoadNetwork net;
  const LandmarkId a = net.AddLandmark({35.70, -79.00}, 0, 1);
  const LandmarkId b = net.AddLandmark({35.70, -78.95}, 0, 1);
  net.AddSegment(a, b, 10.0, 1000.0);
  Router router(net);
  NetworkCondition cond(net.num_segments());
  const ShortestPathTree to_b = router.ReverseTree(b, cond);
  EXPECT_TRUE(to_b.Reachable(a));
  const ShortestPathTree to_a = router.ReverseTree(a, cond);
  EXPECT_FALSE(to_a.Reachable(b));
}

TEST_F(RouterTest, BadInputsThrow) {
  Router router(net_);
  NetworkCondition cond(net_.num_segments());
  EXPECT_THROW(router.Tree(-1, cond), std::out_of_range);
  EXPECT_THROW(router.Tree(99, cond), std::out_of_range);
  EXPECT_THROW(router.ReverseTree(-1, cond), std::out_of_range);
  EXPECT_THROW(router.ReverseTree(99, cond), std::out_of_range);
  // A condition made for another network, shorter or longer, is refused
  // by every entry point before any work.
  NetworkCondition shorter(1);
  NetworkCondition longer(net_.num_segments() + 1);
  for (const NetworkCondition* wrong : {&shorter, &longer}) {
    EXPECT_THROW(router.Tree(a_, *wrong), std::invalid_argument);
    EXPECT_THROW(router.ReverseTree(c_, *wrong), std::invalid_argument);
    EXPECT_THROW(router.CachedTree(a_, *wrong), std::invalid_argument);
    EXPECT_THROW(router.CachedReverseTree(c_, *wrong), std::invalid_argument);
    EXPECT_THROW(router.ShortestRoute(a_, c_, *wrong), std::invalid_argument);
  }
  EXPECT_EQ(router.cache_entries(), 0u);

  // A network that grows after the router copied its graph: every query
  // throws instead of walking the stale copy, also under a condition sized
  // for the grown network.
  const LandmarkId d = net_.AddLandmark({35.70, -78.85}, 200, 1);
  NetworkCondition same_segments(net_.num_segments());
  EXPECT_THROW(router.Tree(a_, same_segments), std::logic_error);
  EXPECT_THROW(router.ReverseTree(c_, same_segments), std::logic_error);
  Router before_segment(net_);
  EXPECT_NO_THROW(before_segment.Tree(d, same_segments));
  net_.AddSegment(c_, d, 10.0, 1000.0);
  NetworkCondition grown(net_.num_segments());
  EXPECT_THROW(before_segment.Tree(a_, grown), std::logic_error);
  EXPECT_THROW(before_segment.ReverseTree(d, grown), std::logic_error);
  EXPECT_THROW(before_segment.CachedTree(a_, grown), std::logic_error);
  EXPECT_THROW(before_segment.CachedReverseTree(d, grown), std::logic_error);
  EXPECT_THROW(before_segment.ShortestRoute(a_, d, grown), std::logic_error);
  EXPECT_NEAR(Router(net_).Tree(a_, grown).time_s[d], 300.0, 1e-9);
}

}  // namespace
}  // namespace mobirescue::roadnet
