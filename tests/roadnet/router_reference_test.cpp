// Router's one Dijkstra body (CSR graph, per-version weight arrays,
// indexed 4-ary heap) against the lazy-heap loops it replaced, kept in
// dijkstra_reference.hpp: `time_s` bytes, every `parent_seg` and the route
// segments must be identical for Tree, ReverseTree, both cached variants
// and ShortestRoute.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "dijkstra_reference.hpp"
#include "roadnet/city_builder.hpp"
#include "roadnet/router.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "weather/flood_model.hpp"
#include "weather/scenario.hpp"
#include "weather/weather_field.hpp"

namespace mobirescue::roadnet {
namespace {

/// Empty when `got` equals `want` bit for bit, else what differs first.
std::string TreeDiff(const ShortestPathTree& got,
                     const ShortestPathTree& want) {
  std::ostringstream out;
  if (got.source != want.source) {
    out << "source " << got.source << " vs " << want.source;
  } else if (got.time_s.size() != want.time_s.size() ||
             got.parent_seg.size() != want.parent_seg.size()) {
    out << "sizes differ";
  } else if (std::memcmp(got.time_s.data(), want.time_s.data(),
                         got.time_s.size() * sizeof(double)) != 0) {
    for (std::size_t v = 0; v < got.time_s.size(); ++v) {
      if (std::memcmp(&got.time_s[v], &want.time_s[v], sizeof(double)) != 0) {
        out << "time_s[" << v << "] " << got.time_s[v] << " vs "
            << want.time_s[v];
        break;
      }
    }
  } else if (got.parent_seg != want.parent_seg) {
    const auto [g, w] = std::mismatch(got.parent_seg.begin(),
                                      got.parent_seg.end(),
                                      want.parent_seg.begin());
    out << "parent_seg[" << (g - got.parent_seg.begin()) << "] " << *g
        << " vs " << *w;
  }
  return out.str();
}

/// Every entry point of `router` from each of `roots` under `cond`,
/// against the reference; ShortestRoute to each of `targets`. Returns the
/// number of mismatches and records the first in `first`.
int CompareAll(const RoadNetwork& net, const Router& router,
               const NetworkCondition& cond,
               const std::vector<LandmarkId>& roots,
               const std::vector<LandmarkId>& targets, std::string& first) {
  const DijkstraReference reference(net);
  int mismatches = 0;
  auto note = [&](const std::string& diff, const char* what, LandmarkId root) {
    if (diff.empty()) return;
    if (mismatches++ == 0) {
      first = std::string(what) + " from " + std::to_string(root) + ": " + diff;
    }
  };
  for (LandmarkId root : roots) {
    const ShortestPathTree fwd = reference.Tree(root, cond);
    const ShortestPathTree rev = reference.ReverseTree(root, cond);
    note(TreeDiff(router.Tree(root, cond), fwd), "Tree", root);
    note(TreeDiff(router.ReverseTree(root, cond), rev), "ReverseTree", root);
    note(TreeDiff(*router.CachedTree(root, cond), fwd), "CachedTree", root);
    note(TreeDiff(*router.CachedReverseTree(root, cond), rev),
         "CachedReverseTree", root);
    for (LandmarkId to : targets) {
      const auto got = router.ShortestRoute(root, to, cond);
      const auto want = reference.ShortestRoute(root, to, cond);
      std::string diff;
      if (got.has_value() != want.has_value()) {
        diff = "reachability differs";
      } else if (got.has_value() &&
                 (got->segments != want->segments ||
                  std::memcmp(&got->travel_time_s, &want->travel_time_s,
                              sizeof(double)) != 0 ||
                  std::memcmp(&got->length_m, &want->length_m,
                              sizeof(double)) != 0)) {
        diff = "route to " + std::to_string(to) + " differs";
      }
      note(diff, "ShortestRoute", root);
    }
  }
  return mismatches;
}

std::vector<LandmarkId> AllLandmarks(const RoadNetwork& net) {
  std::vector<LandmarkId> all(net.num_landmarks());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

TEST(RouterReferenceTest, RandomGraphsMatchBitwise) {
  // Closed and slowed segments, parallel segments (some of equal weight),
  // zero-length segments between co-located landmarks, and isolated
  // landmarks that reach nothing and that nothing reaches.
  int trees = 0;
  int unreachable_pairs = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    util::Rng rng(seed);
    RoadNetwork net;
    const int n = static_cast<int>(rng.UniformInt(2, 40));
    for (int i = 0; i < n; ++i) {
      const util::GeoPoint pos =
          i > 0 && rng.Bernoulli(0.1)
              ? net.landmark(static_cast<LandmarkId>(rng.Index(i))).pos
              : util::kCharlotteCropBox.At(rng.Uniform(0.05, 0.95),
                                           rng.Uniform(0.05, 0.95));
      net.AddLandmark(pos, 200.0, 1);
    }
    const int isolated = static_cast<int>(rng.UniformInt(0, 2));
    const int connected = std::max(1, n - isolated);
    const int edges = static_cast<int>(rng.UniformInt(n, 4 * n));
    for (int e = 0; e < edges; ++e) {
      const auto a = static_cast<LandmarkId>(rng.Index(connected));
      const auto b = static_cast<LandmarkId>(rng.Index(connected));
      if (a == b) continue;
      const double speed = rng.Uniform(5.0, 30.0);
      // -1 takes the great-circle length: 0 between co-located landmarks.
      const double length =
          rng.Bernoulli(0.1) ? -1.0 : rng.Uniform(100.0, 5000.0);
      net.AddSegment(a, b, speed, length);
      if (rng.Bernoulli(0.15)) net.AddSegment(a, b, speed, length);
    }
    NetworkCondition cond(net.num_segments());
    for (const RoadSegment& seg : net.segments()) {
      if (rng.Bernoulli(0.15)) {
        cond.Close(seg.id);
      } else if (rng.Bernoulli(0.3)) {
        cond.SetSpeedFactor(seg.id, rng.Uniform(0.2, 1.0));
      }
    }
    const Router router(net);
    const std::vector<LandmarkId> all = AllLandmarks(net);
    std::string first;
    EXPECT_EQ(CompareAll(net, router, cond, all, all, first), 0)
        << "seed " << seed << ": " << first;
    for (LandmarkId root : all) {
      const ShortestPathTree tree = router.Tree(root, cond);
      unreachable_pairs += static_cast<int>(
          std::count(tree.time_s.begin(), tree.time_s.end(),
                     std::numeric_limits<double>::infinity()));
    }
    trees += n;
  }
  EXPECT_GT(trees, 2000);
  EXPECT_GT(unreachable_pairs, 1000);  // unreachable roots and targets ran
}

TEST(RouterReferenceTest, EqualTimeGridsMatchBitwise) {
  // Every segment has the same length and speed, so many landmarks have
  // two or more predecessors at the same time, and each one's parent is
  // the first of them that the pop order settles. Landmark ids and edge
  // insertion order are shuffled so neither follows the geometry.
  int tied = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed * 7919);
    const int w = static_cast<int>(rng.UniformInt(3, 14));
    const int h = static_cast<int>(rng.UniformInt(3, 14));
    std::vector<int> id_of_cell(static_cast<std::size_t>(w * h));
    std::iota(id_of_cell.begin(), id_of_cell.end(), 0);
    if (seed % 2 == 0) rng.Shuffle(id_of_cell);
    RoadNetwork net;
    for (int i = 0; i < w * h; ++i) {
      net.AddLandmark(util::kCharlotteCropBox.At(0.5, 0.5), 200.0, 1);
    }
    std::vector<std::pair<LandmarkId, LandmarkId>> streets;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const auto here = static_cast<LandmarkId>(id_of_cell[y * w + x]);
        if (x + 1 < w) streets.emplace_back(here, id_of_cell[y * w + x + 1]);
        if (y + 1 < h) streets.emplace_back(here, id_of_cell[(y + 1) * w + x]);
      }
    }
    if (seed % 3 != 0) rng.Shuffle(streets);
    for (const auto& [a, b] : streets) {
      net.AddSegment(a, b, 10.0, 100.0);
      net.AddSegment(b, a, 10.0, 100.0);
    }
    NetworkCondition cond(net.num_segments());
    if (seed > 6) {  // a few closures: ties around the holes change
      for (const RoadSegment& seg : net.segments()) {
        if (rng.Bernoulli(0.08)) cond.Close(seg.id);
      }
    }
    const Router router(net);
    const std::vector<LandmarkId> all = AllLandmarks(net);
    std::vector<LandmarkId> targets;
    for (int k = 0; k < 6; ++k) {
      targets.push_back(static_cast<LandmarkId>(rng.Index(all.size())));
    }
    std::string first;
    EXPECT_EQ(CompareAll(net, router, cond, all, targets, first), 0)
        << "seed " << seed << " (" << w << "x" << h << "): " << first;
    // Count the landmarks whose parent was an equal-time tie.
    for (LandmarkId root : all) {
      const ShortestPathTree tree = router.Tree(root, cond);
      for (const Landmark& lm : net.landmarks()) {
        if (lm.id == root || !std::isfinite(tree.time_s[lm.id])) continue;
        int preds = 0;
        for (SegmentId sid : net.InSegments(lm.id)) {
          const RoadSegment& seg = net.segment(sid);
          if (cond.IsOpen(sid) &&
              tree.time_s[seg.from] + cond.TravelTime(seg) ==
                  tree.time_s[lm.id]) {
            ++preds;
          }
        }
        if (preds >= 2) ++tied;
      }
    }
  }
  EXPECT_GT(tied, 10000);
}

TEST(RouterReferenceTest, EvalStormCityMatchesBitwise) {
  // The default 24x24 city under each hourly condition of the evaluation
  // storm's peak day, built as the simulator builds them.
  const City city = BuildCity(CityConfig{});
  const weather::ScenarioSpec spec = weather::FlorenceScenario();
  const weather::WeatherField field(city.box, spec.storm);
  const weather::FloodModel flood(field, city.terrain);
  const int day = static_cast<int>(spec.storm.storm_peak_s /
                                   util::kSecondsPerDay);
  const Router router(city.network);
  std::vector<LandmarkId> roots;
  for (std::size_t v = 0; v < city.network.num_landmarks(); v += 23) {
    roots.push_back(static_cast<LandmarkId>(v));
  }
  const std::vector<LandmarkId> targets = {0, 287, 575};
  std::size_t closed_max = 0;
  for (int hour = 0; hour < 24; ++hour) {
    const NetworkCondition cond = flood.NetworkConditionAt(
        city.network, (day * 24 + hour + 0.5) * util::kSecondsPerHour);
    closed_max = std::max(closed_max, cond.size() - cond.NumOpen());
    std::string first;
    EXPECT_EQ(CompareAll(city.network, router, cond, roots, targets, first), 0)
        << "hour " << hour << ": " << first;
  }
  EXPECT_GT(closed_max, 500u);  // the storm really closes roads that day
}

}  // namespace
}  // namespace mobirescue::roadnet
