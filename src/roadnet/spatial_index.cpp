#include "roadnet/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/simd.hpp"

namespace mobirescue::roadnet {

namespace {

/// Deflation applied to the ring lower bound. The bound mixes two planar
/// approximations (equirectangular cell sizes vs the per-segment local
/// frame of PointToSegmentMeters); at city scale they agree to well under
/// 0.1%, so half a percent of slack keeps the bound conservative without
/// costing a measurable number of extra rings.
constexpr double kBoundSafety = 0.995;

/// Fills q[0..n) with the squared planar point-to-segment distance for one
/// SoA candidate block — the op-for-op body of util::PointToSegmentMeters
/// with the (a, b)-only subexpressions precomputed per segment; see the
/// build-time comment for why the bits match that function. The
/// degenerate-segment branch is a branchless select so the loop
/// vectorizes: the division result for len2 == 0 lanes is discarded
/// (t = 0, as in PointToSegmentMeters) before it touches anything.
/// Runtime-dispatched to an AVX2 body where available; every op is
/// correctly rounded per lane, so both clones produce identical bits
/// (util/simd.hpp).
MR_TARGET_CLONES
void ScanBlock(double p_lat, double p_lon, const double* a_lat,
               const double* a_lon, const double* cos_lat, const double* bx,
               const double* by, const double* len2, std::size_t n,
               double* q) {
  for (std::size_t j = 0; j < n; ++j) {
    const double px = util::DegToRad(p_lon - a_lon[j]) * cos_lat[j];
    const double py = util::DegToRad(p_lat - a_lat[j]);
    const double tc = std::clamp((px * bx[j] + py * by[j]) / len2[j], 0.0, 1.0);
    const double t = len2[j] > 0.0 ? tc : 0.0;
    const double cxx = 0.0 + t * bx[j];
    const double cyy = 0.0 + t * by[j];
    const double dx = px - cxx;
    const double dy = py - cyy;
    q[j] = dx * dx + dy * dy;
  }
}

}  // namespace

SpatialIndex::SpatialIndex(const RoadNetwork& net,
                           const util::BoundingBox& box, int cells)
    : net_(net), box_(box), cells_(cells) {
  if (cells <= 0) throw std::invalid_argument("SpatialIndex: cells <= 0");
  cell_w_deg_ = (box.north_east.lon - box.south_west.lon) / cells_;
  cell_h_deg_ = (box.north_east.lat - box.south_west.lat) / cells_;
  cell_w_m_ = box.WidthMeters() / cells_;
  cell_h_m_ = box.HeightMeters() / cells_;
  min_cell_m_ = std::min(cell_w_m_, cell_h_m_);
  seg_cell_.resize(net.num_segments());
  cell_begin_.assign(static_cast<std::size_t>(cells_) * cells_ + 1, 0);
  max_half_len_m_ = 0.0;
  for (const RoadSegment& s : net.segments()) {
    seg_cell_[s.id] = CellOf(net.SegmentMidpoint(s.id));
    ++cell_begin_[seg_cell_[s.id] + 1];
    max_half_len_m_ = std::max(max_half_len_m_, s.length_m / 2.0);
  }
  for (std::size_t c = 1; c < cell_begin_.size(); ++c) {
    cell_begin_[c] += cell_begin_[c - 1];
  }

  // SoA candidate blocks in cell order; a stable scatter keeps ascending
  // segment id within each cell.
  const std::size_t total = cell_begin_.back();
  soa_sid_.resize(total);
  soa_a_lat_.resize(total);
  soa_a_lon_.resize(total);
  soa_cos_lat_.resize(total);
  soa_bx_.resize(total);
  soa_by_.resize(total);
  soa_len2_.resize(total);
  std::vector<std::size_t> next(cell_begin_.begin(), cell_begin_.end() - 1);
  for (const RoadSegment& s : net.segments()) {
    const std::size_t w = next[seg_cell_[s.id]]++;
    const util::GeoPoint a = net.landmark(s.from).pos;
    const util::GeoPoint b = net.landmark(s.to).pos;
    // Precompute exactly the subexpressions PointToSegmentMeters derives
    // from (a, b) alone; identical inputs and operations give identical
    // bits, which the bitwise parity tests rely on.
    const double cos_lat = std::cos(util::DegToRad(a.lat));
    const double bx = util::DegToRad(b.lon - a.lon) * cos_lat;
    const double by = util::DegToRad(b.lat - a.lat);
    soa_sid_[w] = s.id;
    soa_a_lat_[w] = a.lat;
    soa_a_lon_[w] = a.lon;
    soa_cos_lat_[w] = cos_lat;
    soa_bx_[w] = bx;
    soa_by_[w] = by;
    soa_len2_[w] = bx * bx + by * by;
  }
}

int SpatialIndex::CellX(double lon) const {
  const int c = static_cast<int>((lon - box_.south_west.lon) / cell_w_deg_);
  return std::clamp(c, 0, cells_ - 1);
}

int SpatialIndex::CellY(double lat) const {
  const int c = static_cast<int>((lat - box_.south_west.lat) / cell_h_deg_);
  return std::clamp(c, 0, cells_ - 1);
}

std::size_t SpatialIndex::CellOf(const util::GeoPoint& p) const {
  return static_cast<std::size_t>(CellY(p.lat)) * cells_ + CellX(p.lon);
}

double SpatialIndex::OutOfBoxDistSq(const util::GeoPoint& p) const {
  double dx_m = 0.0, dy_m = 0.0;
  if (cell_w_deg_ > 0.0) {
    if (p.lon > box_.north_east.lon) {
      dx_m = (p.lon - box_.north_east.lon) / cell_w_deg_ * cell_w_m_;
    } else if (p.lon < box_.south_west.lon) {
      dx_m = (box_.south_west.lon - p.lon) / cell_w_deg_ * cell_w_m_;
    }
  }
  if (cell_h_deg_ > 0.0) {
    if (p.lat > box_.north_east.lat) {
      dy_m = (p.lat - box_.north_east.lat) / cell_h_deg_ * cell_h_m_;
    } else if (p.lat < box_.south_west.lat) {
      dy_m = (box_.south_west.lat - p.lat) / cell_h_deg_ * cell_h_m_;
    }
  }
  return dx_m * dx_m + dy_m * dy_m;
}

double SpatialIndex::RingLowerBound(int ring, double out2_m) const {
  // A midpoint bucketed in ring r is at least (r-1) * min(cell_w, cell_h)
  // away along some axis for an in-box query (the query can sit anywhere in
  // its own cell, hence the -1). For a clamped out-of-box query the
  // out-of-box offset adds orthogonally: every ring-r cell is at least
  // sqrt(out² + ((r-1)·min_cell)²) away. The nearest *point* of a segment
  // can be up to half its length closer than its midpoint.
  const double ring_base = (ring > 0 ? ring - 1 : 0) * min_cell_m_;
  return kBoundSafety * std::sqrt(out2_m + ring_base * ring_base) -
         max_half_len_m_;
}

SegmentId SpatialIndex::NearestSegment(const util::GeoPoint& p,
                                       double max_radius_m) const {
  if (soa_sid_.empty()) return kInvalidSegment;
  const int cx = CellX(p.lon);
  const int cy = CellY(p.lat);
  const double out2_m = OutOfBoxDistSq(p);

  SegmentId best = kInvalidSegment;
  double best_d = std::numeric_limits<double>::infinity();
  // Squared planar distance (pre sqrt, pre Earth-radius scale) of the
  // current best: a strictly cheaper first-stage filter. q is monotone in d
  // (correctly-rounded sqrt and a positive scale preserve order), so
  // q >= best_q implies d >= best_d and the candidate can be skipped
  // without the sqrt; q < best_q falls through to the exact rule on the
  // PointToSegmentMeters distance (strict d <, first visited wins).
  double best_q = std::numeric_limits<double>::infinity();

  // Distance buffer for one cell's candidate block, evaluated in a tight
  // vectorizable pass before the (branchy, rare-update) argmin merge.
  constexpr std::size_t kChunk = 256;
  double q[kChunk];

  // Scans the contiguous SoA candidate range [b, e) of one cell. Candidates
  // are visited cell by cell in ring order and by ascending id within a
  // cell: exact-tie candidates (e.g. a query sitting on a landmark shared
  // by several segments) resolve to the first one visited.
  auto scan_range = [&](std::size_t b, const std::size_t e) {
    while (b < e) {
      const std::size_t n = std::min(e - b, kChunk);
      ScanBlock(p.lat, p.lon, soa_a_lat_.data() + b, soa_a_lon_.data() + b,
                soa_cos_lat_.data() + b, soa_bx_.data() + b,
                soa_by_.data() + b, soa_len2_.data() + b, n, q);
      // Block-min prepass: the argmin loop below updates iff some
      // q[j] < best_q, so a whole block whose minimum fails the gate can
      // be skipped without touching best/best_q/best_d — the outcome is
      // identical, and after ring 0 seeds a best, most cells skip here.
      // Four accumulators break the serial min dependency chain; NaN q
      // lanes never pass a `<` so they are excluded by both this prepass
      // and the argmin loop alike.
      double m0 = std::numeric_limits<double>::infinity();
      double m1 = m0, m2 = m0, m3 = m0;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        m0 = q[j] < m0 ? q[j] : m0;
        m1 = q[j + 1] < m1 ? q[j + 1] : m1;
        m2 = q[j + 2] < m2 ? q[j + 2] : m2;
        m3 = q[j + 3] < m3 ? q[j + 3] : m3;
      }
      m0 = m1 < m0 ? m1 : m0;
      m2 = m3 < m2 ? m3 : m2;
      m0 = m2 < m0 ? m2 : m0;
      for (; j < n; ++j) m0 = q[j] < m0 ? q[j] : m0;
      if (m0 < best_q) {
        for (j = 0; j < n; ++j) {
          if (q[j] < best_q) {
            const double d = util::kEarthRadiusM * std::sqrt(q[j]);
            if (d < best_d) {
              best_d = d;
              best_q = q[j];
              best = soa_sid_[b + j];
            }
          }
        }
      }
      b += n;
    }
  };
  // One grid cell's candidates.
  auto consider_cell = [&](int x, int y) {
    if (x < 0 || y < 0 || x >= cells_ || y >= cells_) return;
    const std::size_t cell = static_cast<std::size_t>(y) * cells_ + x;
    scan_range(cell_begin_[cell], cell_begin_[cell + 1]);
  };

  for (int ring = 0; ring < cells_; ++ring) {
    if (ring == 0) {
      consider_cell(cx, cy);
      // Query-local ring-1 refinement, sound for the same reason the
      // generic bound is: every midpoint bucketed outside the query's own
      // cell is at least the straight-line distance from p to the cell
      // boundary away — far tighter than RingLowerBound(1), whose
      // ring_base is zero. When it fires, the argmin is already exact
      // (all unscanned candidates are strictly farther), so skipping the
      // outer rings returns the identical segment while reading an
      // order of magnitude fewer candidate bytes on dense networks.
      if (best != kInvalidSegment && out2_m == 0.0) {
        const double lo_lon = box_.south_west.lon + cx * cell_w_deg_;
        const double lo_lat = box_.south_west.lat + cy * cell_h_deg_;
        const double ex_m =
            std::min(p.lon - lo_lon, lo_lon + cell_w_deg_ - p.lon) /
            cell_w_deg_ * cell_w_m_;
        const double ey_m =
            std::min(p.lat - lo_lat, lo_lat + cell_h_deg_ - p.lat) /
            cell_h_deg_ * cell_h_m_;
        const double edge_m = std::min(ex_m, ey_m);
        if (best_d < kBoundSafety * edge_m - max_half_len_m_) break;
      }
    } else {
      // Ring cells in a fixed interleaved order: bottom and top rows
      // column by column, then the left and right columns row by row.
      for (int x = cx - ring; x <= cx + ring; ++x) {
        consider_cell(x, cy - ring);
        consider_cell(x, cy + ring);
      }
      for (int y = cy - ring + 1; y <= cy + ring - 1; ++y) {
        consider_cell(cx - ring, y);
        consider_cell(cx + ring, y);
      }
    }
    const double next_lower_bound = RingLowerBound(ring + 1, out2_m);
    if (best != kInvalidSegment && best_d < next_lower_bound) {
      break;
    }
    if (max_radius_m > 0.0 && best == kInvalidSegment &&
        next_lower_bound > max_radius_m) {
      break;
    }
  }
  if (max_radius_m > 0.0 && best_d > max_radius_m) return kInvalidSegment;
  return best;
}

void SpatialIndex::NearestSegments(const util::GeoPoint* pts, std::size_t n,
                                   double max_radius_m, SegmentId* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = NearestSegment(pts[i], max_radius_m);
  }
}

}  // namespace mobirescue::roadnet
