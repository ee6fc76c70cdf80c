// Uniform-grid spatial index over road segments for fast nearest-segment
// queries — the hot path of GPS map matching (Section IV-A stage 1).
#pragma once

#include <cstddef>
#include <vector>

#include "roadnet/road_network.hpp"
#include "util/geo.hpp"

namespace mobirescue::roadnet {

/// Buckets segment midpoints into a lat/lon grid. Nearest-segment queries
/// search outward ring-by-ring from the query cell and stop once no
/// unscanned ring can hold a nearer segment. Each cell keeps its segments
/// as one contiguous SoA block of endpoint constants (the projection frame
/// of util::PointToSegmentMeters precomputed at build time), so the
/// candidate scan is a vectorised FP loop the way the GEMM kernels batch
/// the MLP (src/ml). Every distance equals PointToSegmentMeters bit for
/// bit, and the nearest is the first strictly-nearer candidate in ring
/// order (spatial_index_test checks it against an unpruned walk).
class SpatialIndex {
 public:
  /// Builds an index over all segments of `net`, covering `box`. The grid is
  /// `cells x cells`.
  SpatialIndex(const RoadNetwork& net, const util::BoundingBox& box,
               int cells = 64);

  /// Segment nearest to `p` (by point-to-segment distance). Returns
  /// kInvalidSegment for an empty network. `max_radius_m`, when positive,
  /// bounds the search: if no segment lies within it, kInvalidSegment is
  /// returned.
  SegmentId NearestSegment(const util::GeoPoint& p,
                           double max_radius_m = -1.0) const;

  /// out[i] = NearestSegment(pts[i], max_radius_m) for every i. Callers
  /// that group queries by cell keep each cell's candidate block hot in
  /// cache across consecutive queries.
  void NearestSegments(const util::GeoPoint* pts, std::size_t n,
                       double max_radius_m, SegmentId* out) const;

  int cells_per_side() const { return cells_; }
  std::size_t num_cells() const { return cell_begin_.size() - 1; }
  /// The segments indexed: ids 0 .. num_segments() - 1 of the network.
  std::size_t num_segments() const { return seg_cell_.size(); }
  /// Row-major grid cell containing `p` (clamped into the box).
  std::size_t CellOf(const util::GeoPoint& p) const;
  /// The cell a segment is bucketed in (by midpoint). Within a cell,
  /// segments sit in ascending id order.
  std::size_t CellOfSegment(SegmentId sid) const { return seg_cell_[sid]; }

 private:
  int CellX(double lon) const;
  int CellY(double lat) const;

  /// Squared distance (metres²) from `p` to the box along each axis, using
  /// the same per-degree scale as the cell dimensions; 0 inside the box.
  double OutOfBoxDistSq(const util::GeoPoint& p) const;

  /// Lower bound (metres) on the point-to-segment distance of any segment
  /// bucketed in ring `ring` around the query cell, for a query whose
  /// squared out-of-box offset is `out2_m`. Valid for clamped (out-of-box)
  /// queries and anisotropic cells: uses the *minimum* cell dimension, not
  /// the diagonal (the diagonal overestimates the bound and lets the scan
  /// stop before the true nearest segment — the pre-fix bug).
  double RingLowerBound(int ring, double out2_m) const;

  const RoadNetwork& net_;
  util::BoundingBox box_;
  int cells_;
  double cell_w_deg_, cell_h_deg_;
  double cell_w_m_, cell_h_m_;
  double min_cell_m_;
  /// Half the longest segment: bounds how far a segment's nearest point can
  /// be from its (bucketed) midpoint.
  double max_half_len_m_ = 0.0;
  std::vector<std::size_t> seg_cell_;

  // SoA candidate blocks, one contiguous run per cell (CSR layout), in
  // ascending segment id within a cell. Per candidate the local projection
  // frame of util::PointToSegmentMeters is precomputed: the frame origin
  // (a.lat, a.lon), cos of the frame latitude, the segment vector (bx, by)
  // and its squared length — every value bit-identical to what that
  // function computes per call, so the scanned distances match bitwise.
  std::vector<std::size_t> cell_begin_;  // num_cells + 1 offsets into soa_*
  std::vector<SegmentId> soa_sid_;
  std::vector<double> soa_a_lat_, soa_a_lon_, soa_cos_lat_;
  std::vector<double> soa_bx_, soa_by_, soa_len2_;
};

}  // namespace mobirescue::roadnet
