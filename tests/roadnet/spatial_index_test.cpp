#include "roadnet/spatial_index.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "ring_walk_reference.hpp"
#include "roadnet/city_builder.hpp"
#include "util/rng.hpp"

namespace mobirescue::roadnet {
namespace {

class SpatialIndexTest : public ::testing::Test {
 protected:
  SpatialIndexTest() {
    CityConfig config;
    config.grid_width = 8;
    config.grid_height = 8;
    config.num_hospitals = 3;
    city_ = BuildCity(config);
    index_ = std::make_unique<SpatialIndex>(city_.network, city_.box, 16);
  }

  /// Reference brute-force nearest segment.
  SegmentId BruteNearest(const util::GeoPoint& p) const {
    SegmentId best = kInvalidSegment;
    double best_d = 1e18;
    for (const RoadSegment& seg : city_.network.segments()) {
      const double d = util::PointToSegmentMeters(
          p, city_.network.landmark(seg.from).pos,
          city_.network.landmark(seg.to).pos);
      if (d < best_d) {
        best_d = d;
        best = seg.id;
      }
    }
    return best;
  }

  double DistTo(SegmentId seg, const util::GeoPoint& p) const {
    return util::PointToSegmentMeters(p, city_.network.landmark(city_.network.segment(seg).from).pos,
                                      city_.network.landmark(city_.network.segment(seg).to).pos);
  }

  City city_;
  std::unique_ptr<SpatialIndex> index_;
};

TEST_F(SpatialIndexTest, MatchesBruteForceDistances) {
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const util::GeoPoint p =
        city_.box.At(rng.Uniform(0.02, 0.98), rng.Uniform(0.02, 0.98));
    const SegmentId fast = index_->NearestSegment(p);
    const SegmentId brute = BruteNearest(p);
    ASSERT_NE(fast, kInvalidSegment);
    // Ties between parallel two-way twins are fine; distances must match.
    EXPECT_NEAR(DistTo(fast, p), DistTo(brute, p), 1.0)
        << "point " << p.lat << "," << p.lon;
  }
}

TEST_F(SpatialIndexTest, MaxRadiusFiltersFarPoints) {
  // A point at a box corner, radius too small to reach any segment.
  const util::GeoPoint corner = city_.box.At(0.0, 0.0);
  const SegmentId any = index_->NearestSegment(corner);
  ASSERT_NE(any, kInvalidSegment);
  const double d = DistTo(any, corner);
  if (d > 10.0) {
    EXPECT_EQ(index_->NearestSegment(corner, d / 2.0), kInvalidSegment);
  }
  EXPECT_NE(index_->NearestSegment(corner, d * 2.0 + 10.0), kInvalidSegment);
}

TEST_F(SpatialIndexTest, OutOfBoxQueriesMatchBruteForce) {
  // Queries clamp into the border cells; the ring bound must account for
  // the out-of-box offset or the scan stops too early.
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const util::GeoPoint p =
        city_.box.At(rng.Uniform(-0.6, 1.6), rng.Uniform(-0.6, 1.6));
    const SegmentId fast = index_->NearestSegment(p);
    const SegmentId brute = BruteNearest(p);
    ASSERT_NE(fast, kInvalidSegment);
    EXPECT_NEAR(DistTo(fast, p), DistTo(brute, p), 1.0)
        << "point " << p.lat << "," << p.lon;
  }
}

TEST_F(SpatialIndexTest, BatchedQueriesMatchScalarIdForId) {
  // Single and batched queries must return the *same segment id* as the
  // unpruned scalar ring walk for every query — not merely an equally-near
  // one — including ties, out-of-box queries, and radius-limited misses.
  const RingWalkReference reference(city_.network, *index_);
  util::Rng rng(17);
  for (const double radius : {-1.0, 250.0, 2000.0}) {
    std::vector<util::GeoPoint> pts;
    for (int i = 0; i < 400; ++i) {
      pts.push_back(
          city_.box.At(rng.Uniform(-0.3, 1.3), rng.Uniform(-0.3, 1.3)));
    }
    std::vector<SegmentId> batch(pts.size(), kInvalidSegment);
    index_->NearestSegments(pts.data(), pts.size(), radius, batch.data());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const SegmentId want = reference.Nearest(pts[i], radius);
      ASSERT_EQ(index_->NearestSegment(pts[i], radius), want)
          << "radius " << radius << " point " << i;
      ASSERT_EQ(batch[i], want) << "radius " << radius << " point " << i;
    }
  }
}

TEST_F(SpatialIndexTest, BoundedSearchFindsTheUnboundedNearestOrNothing) {
  // A radius only adds an exit taken while nothing has been found, so a
  // bounded search that does find a segment scanned exactly the unbounded
  // search's rings and returns its segment. StreamState's 400 m map-match
  // is reused as the predictor's unbounded match on this property.
  util::Rng rng(23);
  std::vector<util::GeoPoint> pts;
  for (int i = 0; i < 900; ++i) {
    const RoadSegment& seg =
        city_.network.segment(static_cast<SegmentId>(
            rng.Index(city_.network.num_segments())));
    const util::GeoPoint a = city_.network.landmark(seg.from).pos;
    const util::GeoPoint b = city_.network.landmark(seg.to).pos;
    const double u = rng.Uniform(0.0, 1.0);
    util::GeoPoint p{a.lat + u * (b.lat - a.lat), a.lon + u * (b.lon - a.lon)};
    if (i % 3 == 1) {
      // Up to 2 km off the road, in any direction.
      const double d = rng.Uniform(0.0, 2000.0);
      const double bearing = rng.Uniform(0.0, 2.0 * std::numbers::pi);
      p.lat += d * std::cos(bearing) / 111320.0;
      p.lon += d * std::sin(bearing) /
               (111320.0 * std::cos(p.lat * std::numbers::pi / 180.0));
    } else if (i % 3 == 2) {
      // Outside the box (clamped into its border cells).
      const double x = rng.Uniform(0.0, 1.0);
      const double off = rng.Uniform(1.01, 1.5);
      p = i % 2 == 0 ? city_.box.At(x, off) : city_.box.At(1.0 - off, x);
    }
    pts.push_back(p);
  }
  const RingWalkReference reference(city_.network, *index_);
  std::vector<SegmentId> unbounded(pts.size()), bounded(pts.size());
  index_->NearestSegments(pts.data(), pts.size(), -1.0, unbounded.data());
  index_->NearestSegments(pts.data(), pts.size(), 400.0, bounded.data());
  std::size_t found = 0, missed = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_NE(unbounded[i], kInvalidSegment) << "point " << i;
    ASSERT_EQ(reference.Nearest(pts[i]), unbounded[i]) << "point " << i;
    ASSERT_EQ(reference.Nearest(pts[i], 400.0), bounded[i]) << "point " << i;
    if (bounded[i] == kInvalidSegment) {
      ++missed;
    } else {
      ++found;
      ASSERT_EQ(bounded[i], unbounded[i]) << "point " << i;
    }
  }
  EXPECT_GT(found, 300u);
  EXPECT_GT(missed, 100u);
}

TEST_F(SpatialIndexTest, CellMappingIsConsistent) {
  ASSERT_EQ(index_->num_cells(),
            static_cast<std::size_t>(index_->cells_per_side()) *
                index_->cells_per_side());
  for (const RoadSegment& seg : city_.network.segments()) {
    const std::size_t cell =
        index_->CellOf(city_.network.SegmentMidpoint(seg.id));
    EXPECT_EQ(index_->CellOfSegment(seg.id), cell);
    EXPECT_LT(cell, index_->num_cells());
  }
}

TEST(SpatialIndexBoundTest, AnisotropicCellsFindFarRingNearSegment) {
  // Deterministic reproduction of the pre-fix early-termination bug. The
  // box is far wider than tall, so grid cells are ~8.4 km x ~0.14 km. The
  // old ring bound used the cell *diagonal* ((ring-1) * diag - max_half):
  // after finding a same-cell segment 600 m away it stopped at ring 2,
  // because 1 * diag >> 600 m — even though a segment three rings up in
  // the short direction sits only ~420 m away. The fixed bound uses the
  // minimum cell dimension and keeps scanning.
  const util::BoundingBox box{{35.0, -79.0}, {35.01, -78.1}};
  RoadNetwork net;
  const util::GeoPoint p = box.At(0.5, 0.5);

  // Same-cell decoy ~600 m east of p (short segment, horizontal).
  const double deg_per_m_lon = 1.0 / (111320.0 * std::cos(35.0 * 3.14159 / 180.0));
  const LandmarkId a0 =
      net.AddLandmark({p.lat, p.lon + 600.0 * deg_per_m_lon}, 0.0, 1);
  const LandmarkId a1 =
      net.AddLandmark({p.lat, p.lon + 620.0 * deg_per_m_lon}, 0.0, 1);
  const SegmentId decoy = net.AddSegment(a0, a1, 10.0);

  // True nearest ~420 m north of p — three grid rows up.
  const double deg_per_m_lat = 1.0 / 111320.0;
  const LandmarkId b0 =
      net.AddLandmark({p.lat + 417.0 * deg_per_m_lat, p.lon}, 0.0, 1);
  const LandmarkId b1 = net.AddLandmark(
      {p.lat + 417.0 * deg_per_m_lat, p.lon + 20.0 * deg_per_m_lon}, 0.0, 1);
  const SegmentId target = net.AddSegment(b0, b1, 10.0);

  SpatialIndex index(net, box, 8);
  auto dist = [&](SegmentId sid) {
    return util::PointToSegmentMeters(p, net.landmark(net.segment(sid).from).pos,
                                      net.landmark(net.segment(sid).to).pos);
  };
  ASSERT_LT(dist(target), dist(decoy));

  // The old diagonal-based bound would have pruned the scan before ring 3:
  // its ring-2 lower bound already exceeds the decoy distance.
  const double cell_w_m = box.WidthMeters() / 8.0;
  const double cell_h_m = box.HeightMeters() / 8.0;
  const double cell_diag_m = std::hypot(cell_w_m, cell_h_m);
  ASSERT_GT(1.0 * cell_diag_m - 20.0, dist(decoy))
      << "fixture no longer reproduces the pre-fix pruning";

  EXPECT_EQ(index.NearestSegment(p), target);
  SegmentId batched = kInvalidSegment;
  index.NearestSegments(&p, 1, -1.0, &batched);
  EXPECT_EQ(batched, target);
}

TEST_F(SpatialIndexTest, EmptyNetwork) {
  RoadNetwork empty;
  SpatialIndex index(empty, city_.box, 4);
  EXPECT_EQ(index.NearestSegment(city_.box.Center()), kInvalidSegment);
}

TEST_F(SpatialIndexTest, RejectsBadCellCount) {
  EXPECT_THROW(SpatialIndex(city_.network, city_.box, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace mobirescue::roadnet
