// Property tests for the spatial index and its batched scan: over
// random road networks and random query points (inside the box, far outside
// it, with and without radius limits, with long segments whose nearest point
// is far from their bucketed midpoint), the grid-accelerated nearest-segment
// answer must match brute force, and single and batched queries
// (SpatialIndex::NearestSegment / NearestSegments) must return the same
// segment id as an unpruned scalar walk of the rings for every point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "../roadnet/ring_walk_reference.hpp"
#include "roadnet/road_network.hpp"
#include "roadnet/spatial_index.hpp"
#include "util/geo.hpp"
#include "util/rng.hpp"

namespace mobirescue::roadnet {
namespace {

struct RandomWorld {
  RoadNetwork net;
  util::BoundingBox box;
};

/// A random network: mostly short segments, a share `long_share` of very
/// long ones (their nearest point can be many cells from their midpoint —
/// the max_half_len slack in the ring bound exists for exactly these).
/// Short segments reach up to `short_reach` of the box per axis.
RandomWorld BuildRandomWorld(util::Rng& rng, int num_segments,
                             double long_share = 0.1,
                             double short_reach = 0.02) {
  RandomWorld w;
  // Random box shape: aspect ratios from tall-thin to wide-flat, so cells
  // are anisotropic more often than not.
  const double lat0 = rng.Uniform(34.0, 36.0);
  const double lon0 = rng.Uniform(-80.0, -78.0);
  w.box = {{lat0, lon0},
           {lat0 + rng.Uniform(0.01, 0.4), lon0 + rng.Uniform(0.01, 0.4)}};
  for (int i = 0; i < num_segments; ++i) {
    const util::GeoPoint a =
        w.box.At(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    const bool long_segment = rng.Bernoulli(long_share);
    const double reach = long_segment ? 0.5 : short_reach;
    const util::GeoPoint b = w.box.At(
        std::clamp(rng.Uniform(-reach, reach) +
                       (a.lon - w.box.south_west.lon) /
                           (w.box.north_east.lon - w.box.south_west.lon),
                   0.0, 1.0),
        std::clamp(rng.Uniform(-reach, reach) +
                       (a.lat - w.box.south_west.lat) /
                           (w.box.north_east.lat - w.box.south_west.lat),
                   0.0, 1.0));
    const LandmarkId la = w.net.AddLandmark(a, 0.0, 1);
    const LandmarkId lb = w.net.AddLandmark(b, 0.0, 1);
    w.net.AddSegment(la, lb, 10.0);
  }
  return w;
}

double DistTo(const RoadNetwork& net, SegmentId sid, const util::GeoPoint& p) {
  const RoadSegment& seg = net.segment(sid);
  return util::PointToSegmentMeters(p, net.landmark(seg.from).pos,
                                    net.landmark(seg.to).pos);
}

SegmentId BruteNearest(const RoadNetwork& net, const util::GeoPoint& p,
                       double max_radius_m) {
  SegmentId best = kInvalidSegment;
  double best_d = 1e18;
  for (const RoadSegment& seg : net.segments()) {
    const double d = DistTo(net, seg.id, p);
    if (d < best_d) {
      best_d = d;
      best = seg.id;
    }
  }
  if (max_radius_m >= 0.0 && best != kInvalidSegment && best_d > max_radius_m) {
    return kInvalidSegment;
  }
  return best;
}

TEST(GeoPropertyTest, NearestSegmentMatchesBruteForceOnRandomWorlds) {
  util::Rng rng(20240601);
  for (int world = 0; world < 12; ++world) {
    RandomWorld w = BuildRandomWorld(rng, 60 + world * 25);
    const int cells = 1 + static_cast<int>(rng.Index(24));
    SpatialIndex index(w.net, w.box, cells);
    for (int q = 0; q < 120; ++q) {
      // Mix of interior points and points well outside the box (the
      // clamped-cell early-termination case).
      const double span = q % 3 == 0 ? 2.5 : 1.0;
      const util::GeoPoint p = w.box.At(rng.Uniform(0.5 - span, 0.5 + span),
                                        rng.Uniform(0.5 - span, 0.5 + span));
      const double radius =
          q % 4 == 0 ? rng.Uniform(50.0, 5000.0) : -1.0;
      const SegmentId fast = index.NearestSegment(p, radius);
      const SegmentId brute = BruteNearest(w.net, p, radius);
      if (fast == brute) continue;  // same id, including both-invalid
      // Distinct ids are only acceptable as exact geometric ties.
      ASSERT_NE(fast, kInvalidSegment)
          << "world " << world << " cells " << cells << " missed a segment at "
          << p.lat << "," << p.lon << " radius " << radius;
      ASSERT_NE(brute, kInvalidSegment);
      ASSERT_EQ(DistTo(w.net, fast, p), DistTo(w.net, brute, p))
          << "world " << world << " cells " << cells << " point " << p.lat
          << "," << p.lon << " radius " << radius;
    }
  }
}

TEST(GeoPropertyTest, BatchedNearestMatchesScalarOnRandomWorlds) {
  util::Rng rng(77);
  for (int world = 0; world < 8; ++world) {
    RandomWorld w = BuildRandomWorld(rng, 120);
    SpatialIndex index(w.net, w.box, 1 + static_cast<int>(rng.Index(20)));
    std::vector<util::GeoPoint> pts;
    for (int q = 0; q < 300; ++q) {
      pts.push_back(
          w.box.At(rng.Uniform(-1.0, 2.0), rng.Uniform(-1.0, 2.0)));
    }
    const double radius = world % 2 == 0 ? -1.0 : rng.Uniform(100.0, 3000.0);
    const RingWalkReference reference(w.net, index);
    std::vector<SegmentId> batch(pts.size(), kInvalidSegment);
    index.NearestSegments(pts.data(), pts.size(), radius, batch.data());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const SegmentId want = reference.Nearest(pts[i], radius);
      ASSERT_EQ(index.NearestSegment(pts[i], radius), want)
          << "world " << world << " query " << i;
      ASSERT_EQ(batch[i], want) << "world " << world << " query " << i;
    }
  }
  // Dense worlds of short segments only. A long segment's half length
  // loosens every bound until it never prunes; here the ring bound and the
  // own-cell edge bound end most scans early, so the unpruned walk checks
  // that they are sound.
  for (int world = 0; world < 6; ++world) {
    RandomWorld w = BuildRandomWorld(rng, 2000, 0.0, 0.004);
    SpatialIndex index(w.net, w.box, 8 + static_cast<int>(rng.Index(33)));
    const RingWalkReference reference(w.net, index);
    for (int q = 0; q < 300; ++q) {
      const util::GeoPoint p =
          w.box.At(rng.Uniform(-0.05, 1.05), rng.Uniform(-0.05, 1.05));
      const double radius = q % 3 == 0 ? rng.Uniform(20.0, 500.0) : -1.0;
      ASSERT_EQ(index.NearestSegment(p, radius), reference.Nearest(p, radius))
          << "dense world " << world << " query " << q;
    }
  }
}

}  // namespace
}  // namespace mobirescue::roadnet
