// Property tests: the Dijkstra router against a brute-force Bellman-Ford
// reference on randomized graphs and conditions (parameterized over seeds).
#include <gtest/gtest.h>

#include <limits>

#include "roadnet/road_network.hpp"
#include "roadnet/router.hpp"
#include "util/rng.hpp"

namespace mobirescue::roadnet {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct RandomGraph {
  RoadNetwork net;
  NetworkCondition cond;
};

RandomGraph MakeRandomGraph(std::uint64_t seed) {
  util::Rng rng(seed);
  RandomGraph g;
  const int n = static_cast<int>(rng.UniformInt(5, 24));
  for (int i = 0; i < n; ++i) {
    g.net.AddLandmark(util::kCharlotteCropBox.At(rng.Uniform(0.05, 0.95),
                                                 rng.Uniform(0.05, 0.95)),
                      200.0, 1);
  }
  const int edges = static_cast<int>(rng.UniformInt(n, 4 * n));
  for (int e = 0; e < edges; ++e) {
    const auto a = static_cast<LandmarkId>(rng.Index(n));
    auto b = static_cast<LandmarkId>(rng.Index(n));
    if (a == b) continue;
    g.net.AddSegment(a, b, rng.Uniform(5.0, 30.0),
                     rng.Uniform(100.0, 5000.0));
  }
  g.cond = NetworkCondition(g.net.num_segments());
  for (const RoadSegment& seg : g.net.segments()) {
    if (rng.Bernoulli(0.15)) {
      g.cond.Close(seg.id);
    } else if (rng.Bernoulli(0.3)) {
      g.cond.SetSpeedFactor(seg.id, rng.Uniform(0.2, 1.0));
    }
  }
  return g;
}

/// Bellman-Ford reference (O(V*E), handles any non-negative weights).
std::vector<double> BellmanFord(const RoadNetwork& net,
                                const NetworkCondition& cond,
                                LandmarkId source) {
  std::vector<double> dist(net.num_landmarks(), kInf);
  dist[source] = 0.0;
  for (std::size_t iter = 0; iter < net.num_landmarks(); ++iter) {
    bool changed = false;
    for (const RoadSegment& seg : net.segments()) {
      const double w = cond.TravelTime(seg);
      if (w == kInf || dist[seg.from] == kInf) continue;
      if (dist[seg.from] + w < dist[seg.to] - 1e-12) {
        dist[seg.to] = dist[seg.from] + w;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

class RouterPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterPropertyTest, TreeMatchesBellmanFord) {
  const RandomGraph g = MakeRandomGraph(GetParam());
  Router router(g.net);
  util::Rng rng(GetParam() ^ 0xF00D);
  const auto source = static_cast<LandmarkId>(rng.Index(g.net.num_landmarks()));
  const ShortestPathTree tree = router.Tree(source, g.cond);
  const std::vector<double> reference = BellmanFord(g.net, g.cond, source);
  for (std::size_t v = 0; v < g.net.num_landmarks(); ++v) {
    if (reference[v] == kInf) {
      EXPECT_FALSE(tree.Reachable(static_cast<LandmarkId>(v)));
    } else {
      ASSERT_TRUE(tree.Reachable(static_cast<LandmarkId>(v)));
      EXPECT_NEAR(tree.time_s[v], reference[v], 1e-6);
    }
  }
}

TEST_P(RouterPropertyTest, ReverseTreeMatchesForward) {
  const RandomGraph g = MakeRandomGraph(GetParam());
  Router router(g.net);
  util::Rng rng(GetParam() ^ 0xBEEF);
  const auto target = static_cast<LandmarkId>(rng.Index(g.net.num_landmarks()));
  const ShortestPathTree rtree = router.ReverseTree(target, g.cond);
  for (std::size_t v = 0; v < g.net.num_landmarks(); ++v) {
    const double forward =
        router.Tree(static_cast<LandmarkId>(v), g.cond).time_s[target];
    if (forward == kInf) {
      EXPECT_FALSE(rtree.Reachable(static_cast<LandmarkId>(v)));
    } else {
      ASSERT_TRUE(rtree.Reachable(static_cast<LandmarkId>(v)));
      EXPECT_NEAR(rtree.time_s[v], forward, 1e-6);
    }
  }
}

TEST_P(RouterPropertyTest, ExtractedRouteIsConsistent) {
  const RandomGraph g = MakeRandomGraph(GetParam());
  Router router(g.net);
  util::Rng rng(GetParam() ^ 0xCAFE);
  const auto a = static_cast<LandmarkId>(rng.Index(g.net.num_landmarks()));
  const auto b = static_cast<LandmarkId>(rng.Index(g.net.num_landmarks()));
  const auto route = router.ShortestRoute(a, b, g.cond);
  if (!route.has_value()) return;
  // The route is a connected walk from a to b over open segments whose
  // travel times sum to the reported total.
  LandmarkId cur = a;
  double total = 0.0;
  for (SegmentId sid : route->segments) {
    const RoadSegment& seg = g.net.segment(sid);
    ASSERT_EQ(seg.from, cur);
    ASSERT_TRUE(g.cond.IsOpen(sid));
    total += g.cond.TravelTime(seg);
    cur = seg.to;
  }
  EXPECT_EQ(cur, b);
  EXPECT_NEAR(total, route->travel_time_s, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace mobirescue::roadnet
