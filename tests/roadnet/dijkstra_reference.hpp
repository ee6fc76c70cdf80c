// Test oracle for Router's Dijkstra body: the two lazy-heap loops the
// router ran before its CSR graph, per-condition weight arrays and indexed
// heap. Each pops a std::priority_queue of (time, landmark) pairs, skips
// stale entries, reads every edge's weight through
// NetworkCondition::TravelTime and relaxes with a strict `<`. The router
// must match them bit for bit: `time_s` bytes, every `parent_seg` (which
// an equal-time tie hands to whichever relaxation came first) and the
// route segments of a point-to-point query.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "roadnet/road_network.hpp"
#include "roadnet/router.hpp"

namespace mobirescue::roadnet {

class DijkstraReference {
 public:
  explicit DijkstraReference(const RoadNetwork& net) : net_(net) {}

  /// Forward tree; stops once `stop_at` is settled (kInvalidLandmark: never).
  ShortestPathTree Tree(LandmarkId source, const NetworkCondition& cond,
                        LandmarkId stop_at = kInvalidLandmark) const {
    if (source < 0 ||
        static_cast<std::size_t>(source) >= net_.num_landmarks()) {
      throw std::out_of_range("Router: bad source landmark");
    }
    if (cond.size() != net_.num_segments()) {
      throw std::invalid_argument("Router: condition size mismatch");
    }
    ShortestPathTree tree;
    tree.source = source;
    tree.time_s.assign(net_.num_landmarks(), kInf);
    tree.parent_seg.assign(net_.num_landmarks(), kInvalidSegment);
    tree.time_s[source] = 0.0;

    using Item = std::pair<double, LandmarkId>;  // (time, landmark)
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    pq.emplace(0.0, source);

    while (!pq.empty()) {
      const auto [t, u] = pq.top();
      pq.pop();
      if (t > tree.time_s[u]) continue;  // stale entry
      if (u == stop_at) break;
      for (SegmentId sid : net_.OutSegments(u)) {
        const RoadSegment& seg = net_.segment(sid);
        const double w = cond.TravelTime(seg);
        if (w == kInf) continue;
        const double nt = t + w;
        if (nt < tree.time_s[seg.to]) {
          tree.time_s[seg.to] = nt;
          tree.parent_seg[seg.to] = sid;
          pq.emplace(nt, seg.to);
        }
      }
    }
    return tree;
  }

  ShortestPathTree ReverseTree(LandmarkId target,
                               const NetworkCondition& cond) const {
    if (target < 0 ||
        static_cast<std::size_t>(target) >= net_.num_landmarks()) {
      throw std::out_of_range("Router: bad target landmark");
    }
    ShortestPathTree tree;
    tree.source = target;
    tree.time_s.assign(net_.num_landmarks(), kInf);
    tree.parent_seg.assign(net_.num_landmarks(), kInvalidSegment);
    tree.time_s[target] = 0.0;

    using Item = std::pair<double, LandmarkId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    pq.emplace(0.0, target);
    while (!pq.empty()) {
      const auto [t, u] = pq.top();
      pq.pop();
      if (t > tree.time_s[u]) continue;
      for (SegmentId sid : net_.InSegments(u)) {
        const RoadSegment& seg = net_.segment(sid);
        const double w = cond.TravelTime(seg);
        if (w == kInf) continue;
        const double nt = t + w;
        if (nt < tree.time_s[seg.from]) {
          tree.time_s[seg.from] = nt;
          tree.parent_seg[seg.from] = sid;
          pq.emplace(nt, seg.from);
        }
      }
    }
    return tree;
  }

  std::optional<Route> ShortestRoute(LandmarkId from, LandmarkId to,
                                     const NetworkCondition& cond) const {
    return Tree(from, cond, to).RouteTo(net_, to);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  const RoadNetwork& net_;
};

}  // namespace mobirescue::roadnet
