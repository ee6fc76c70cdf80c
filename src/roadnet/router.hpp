// Shortest-path routing over the (possibly flood-degraded) road network.
//
// The paper uses Dijkstra (Section IV-C3) to compute each rescue team's
// driving route Φ_kj from its current position to its destination segment,
// and the driving delay t_kj = Σ l_e / v_e along that route.
//
// Every tree, forward or reverse, cached or not, runs one Dijkstra body
// (DESIGN.md §9.2). It walks a CSR copy of the graph built once in the
// constructor, in the network's own edge order, and reads one travel-time
// array per condition version, built on the first tree of that version.
// Its indexed 4-ary heap pops landmarks in (time, landmark) order, the
// order of the lazy std::priority_queue it replaced, so every time and
// every equal-time parent is what that loop gave.
//
// Because the dispatch loop asks for the same trees over and over — every
// team standing at the same hospital, every candidate segment re-scored
// each round, the whole fleet re-planned inside one hourly flood epoch —
// the router also keeps a thread-safe cache of full one-to-all trees keyed
// by (condition version stamp, landmark, direction). Cached trees are
// immutable and shared; concurrent readers take a shared lock.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "roadnet/road_network.hpp"

namespace mobirescue::roadnet {

/// A computed driving route: the ordered segments to traverse, plus totals.
struct Route {
  std::vector<SegmentId> segments;
  double travel_time_s = 0.0;
  double length_m = 0.0;

  bool empty() const { return segments.empty(); }
};

/// One-to-all shortest-path result from a single source landmark.
struct ShortestPathTree {
  LandmarkId source = kInvalidLandmark;
  std::vector<double> time_s;         // per landmark; +inf if unreachable
  std::vector<SegmentId> parent_seg;  // segment used to reach each landmark

  bool Reachable(LandmarkId to) const;
  /// Extracts the route source -> to; nullopt when unreachable.
  std::optional<Route> RouteTo(const RoadNetwork& net, LandmarkId to) const;
};

/// Hit/miss counters of the router's tree cache (cumulative). A thin view
/// over the router's registry-backed obs::Counter instruments: per-instance
/// values here, process-wide aggregation through obs exposition.
struct RouterCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double HitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Dijkstra router. Weights are travel times under a NetworkCondition
/// (closed segments are impassable). Every entry point is safe to call
/// concurrently from any number of threads: the graph is immutable after
/// construction, and the per-version weight arrays and the Cached* trees
/// are shared immutable objects behind one shared_mutex.
///
/// The router copies the network's adjacency when it is constructed. Once
/// the network gains landmarks or segments, every tree it would build
/// throws std::logic_error instead; bind a fresh Router to it.
class Router {
 public:
  explicit Router(const RoadNetwork& net);

  // The cache members make Router non-copyable; bind a fresh Router to the
  // same network instead (caches are per-instance).
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Full one-to-all Dijkstra from `source` under `cond`.
  ShortestPathTree Tree(LandmarkId source, const NetworkCondition& cond) const;

  /// All-to-one Dijkstra on the reversed graph: time_s[u] is the travel
  /// time from u *to* `target`, and parent_seg[u] the segment leaving u on
  /// that route (RouteTo does not apply). Used to score many teams against
  /// one candidate destination in a single pass.
  ShortestPathTree ReverseTree(LandmarkId target,
                               const NetworkCondition& cond) const;

  /// Cached variant of Tree(): returns a shared immutable tree, computing
  /// and inserting it on first use for this (cond.version(), source).
  std::shared_ptr<const ShortestPathTree> CachedTree(
      LandmarkId source, const NetworkCondition& cond) const;

  /// Cached variant of ReverseTree().
  std::shared_ptr<const ShortestPathTree> CachedReverseTree(
      LandmarkId target, const NetworkCondition& cond) const;

  /// Point-to-point route; nullopt when unreachable. Early-exits once the
  /// target is settled.
  std::optional<Route> ShortestRoute(LandmarkId from, LandmarkId to,
                                     const NetworkCondition& cond) const;

  const RoadNetwork& network() const { return net_; }

  RouterCacheStats cache_stats() const;
  std::size_t cache_entries() const;
  /// Drops every cached tree and weight array (the counters are kept).
  void ClearCache() const;

 private:
  struct CacheKey {
    std::uint64_t version = 0;
    LandmarkId landmark = kInvalidLandmark;
    bool reverse = false;

    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      // splitmix64-style scramble of the packed key.
      std::uint64_t x = k.version * 0x9E3779B97F4A7C15ULL;
      x ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.landmark))
            << 1) |
           (k.reverse ? 1u : 0u);
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };

  /// One direction of the graph in CSR form: the edges of landmark u are
  /// [offsets[u], offsets[u + 1]), in the network's Out/InSegments order,
  /// which decides which of two equal-time relaxations wins.
  struct Adjacency {
    std::vector<std::uint32_t> offsets;  // num_landmarks + 1
    std::vector<LandmarkId> far;         // the edge's other endpoint
    std::vector<SegmentId> segment;
  };
  /// cond.TravelTime(seg) per segment id (+inf when closed).
  using Weights = std::vector<double>;

  std::shared_ptr<const ShortestPathTree> CachedImpl(
      LandmarkId landmark, const NetworkCondition& cond, bool reverse) const;

  std::shared_ptr<const Weights> WeightsFor(
      const NetworkCondition& cond) const;

  /// The one Dijkstra body: from `root` over the forward (or, with
  /// `reverse`, the reversed) graph, stopping once `stop_at` is settled.
  ShortestPathTree RunDijkstra(LandmarkId root, const NetworkCondition& cond,
                               bool reverse, LandmarkId stop_at) const;

  const RoadNetwork& net_;
  Adjacency out_;
  Adjacency in_;

  /// Safety valve: a full cache wipe once this many distinct trees pile up
  /// (a day-long run across 24 hourly epochs stays far below it).
  static constexpr std::size_t kMaxCacheEntries = 16384;
  /// Weight arrays kept, one per condition version, wiped when full and
  /// with the trees. Trace generation walks a 10-day window one hour at a
  /// time, person after person, so it needs all 240 at once.
  static constexpr std::size_t kMaxWeightArrays = 256;

  mutable std::shared_mutex cache_mutex_;
  mutable std::unordered_map<CacheKey,
                             std::shared_ptr<const ShortestPathTree>,
                             CacheKeyHash>
      cache_;
  mutable std::unordered_map<std::uint64_t, std::shared_ptr<const Weights>>
      weights_;
  // Registry-backed instruments (obs/metrics.hpp): every Router instance
  // registers the same names; exposition merges them, cache_stats() reads
  // this instance's values. Increment cost matches the plain atomics these
  // replaced (one relaxed fetch_add on a striped cell).
  mutable obs::Counter cache_hits_{"roadnet_router_cache_hits_total",
                                   "Shortest-path-tree cache hits."};
  mutable obs::Counter cache_misses_{"roadnet_router_cache_misses_total",
                                     "Shortest-path-tree cache misses."};
  mutable obs::Histogram tree_build_ms_{
      "roadnet_router_tree_build_ms",
      "Wall time to Dijkstra one one-to-all tree on a cache miss (ms).",
      obs::Histogram::LatencyBucketsMs()};
};

}  // namespace mobirescue::roadnet
