// Test oracle for SpatialIndex::NearestSegment: the same ring walk without
// any shortcut. It visits every grid cell in the index's ring order around
// the query cell, and the segments of a cell in ascending id (the index's
// bucket order, rebuilt here from CellOfSegment). It keeps the first
// strictly nearer segment by util::PointToSegmentMeters and applies the
// radius after the walk. With no ring bound to stop it early, an
// id-for-id match with the index, ties included, also shows that the
// index's bounds never end a scan too soon.
#pragma once

#include <limits>
#include <vector>

#include "roadnet/road_network.hpp"
#include "roadnet/spatial_index.hpp"
#include "util/geo.hpp"

namespace mobirescue::roadnet {

class RingWalkReference {
 public:
  RingWalkReference(const RoadNetwork& net, const SpatialIndex& index)
      : net_(net), index_(index), buckets_(index.num_cells()) {
    for (const RoadSegment& s : net.segments()) {
      buckets_[index.CellOfSegment(s.id)].push_back(s.id);
    }
  }

  SegmentId Nearest(const util::GeoPoint& p, double max_radius_m = -1.0) const {
    const int n = index_.cells_per_side();
    const std::size_t cell = index_.CellOf(p);
    const int cx = static_cast<int>(cell % static_cast<std::size_t>(n));
    const int cy = static_cast<int>(cell / static_cast<std::size_t>(n));
    SegmentId best = kInvalidSegment;
    double best_d = std::numeric_limits<double>::infinity();
    auto visit = [&](int x, int y) {
      if (x < 0 || y < 0 || x >= n || y >= n) return;
      for (SegmentId sid : buckets_[static_cast<std::size_t>(y) * n + x]) {
        const RoadSegment& s = net_.segment(sid);
        const double d = util::PointToSegmentMeters(
            p, net_.landmark(s.from).pos, net_.landmark(s.to).pos);
        if (d < best_d) {
          best_d = d;
          best = sid;
        }
      }
    };
    visit(cx, cy);
    for (int ring = 1; ring < n; ++ring) {
      for (int x = cx - ring; x <= cx + ring; ++x) {
        visit(x, cy - ring);
        visit(x, cy + ring);
      }
      for (int y = cy - ring + 1; y <= cy + ring - 1; ++y) {
        visit(cx - ring, y);
        visit(cx + ring, y);
      }
    }
    if (max_radius_m > 0.0 && best_d > max_radius_m) return kInvalidSegment;
    return best;
  }

 private:
  const RoadNetwork& net_;
  const SpatialIndex& index_;
  std::vector<std::vector<SegmentId>> buckets_;
};

}  // namespace mobirescue::roadnet
