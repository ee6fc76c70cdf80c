#include "roadnet/router.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "obs/trace.hpp"

namespace mobirescue::roadnet {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool ShortestPathTree::Reachable(LandmarkId to) const {
  return to >= 0 && static_cast<std::size_t>(to) < time_s.size() &&
         time_s[to] < kInf;
}

std::optional<Route> ShortestPathTree::RouteTo(const RoadNetwork& net,
                                               LandmarkId to) const {
  if (!Reachable(to)) return std::nullopt;
  Route route;
  route.travel_time_s = time_s[to];
  LandmarkId cur = to;
  while (cur != source) {
    const SegmentId sid = parent_seg[cur];
    if (sid == kInvalidSegment) return std::nullopt;  // corrupt tree
    const RoadSegment& seg = net.segment(sid);
    route.segments.push_back(sid);
    route.length_m += seg.length_m;
    cur = seg.from;
  }
  std::reverse(route.segments.begin(), route.segments.end());
  return route;
}

namespace {

/// Indexed 4-ary min-heap over landmarks with decrease-key. A key packs a
/// non-negative time's bit pattern above the landmark id, so keys order by
/// (time, landmark) — non-negative doubles sort like their bits — and no
/// two landmarks share one.
class LandmarkHeap {
 public:
  explicit LandmarkHeap(std::size_t num_landmarks) : pos_(num_landmarks) {
    heap_.reserve(num_landmarks);
  }

  bool empty() const { return heap_.empty(); }

  /// Inserts `v` at time `t`, or lowers its time to `t` when `queued`.
  void PushOrDecrease(LandmarkId v, double t, bool queued) {
    std::size_t i;
    if (queued) {
      i = pos_[v];
    } else {
      i = heap_.size();
      heap_.emplace_back();
    }
    SiftUp(i, MakeKey(t, v));
  }

  /// Removes and returns the landmark with the least (time, landmark).
  LandmarkId Pop() {
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(last);
    return LandmarkOf(top);
  }

 private:
  using Key = unsigned __int128;

  static Key MakeKey(double t, LandmarkId v) {
    return (static_cast<Key>(std::bit_cast<std::uint64_t>(t)) << 64) |
           static_cast<std::uint32_t>(v);
  }
  static LandmarkId LandmarkOf(Key k) {
    return static_cast<LandmarkId>(static_cast<std::uint32_t>(k));
  }

  void Place(std::size_t i, Key k) {
    heap_[i] = k;
    pos_[LandmarkOf(k)] = static_cast<std::uint32_t>(i);
  }

  void SiftUp(std::size_t i, Key k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(k < heap_[parent])) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, k);
  }

  void SiftDown(Key k) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + 4, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
      if (!(heap_[best] < k)) break;
      Place(i, heap_[best]);
      i = best;
    }
    Place(i, k);
  }

  std::vector<Key> heap_;
  std::vector<std::uint32_t> pos_;  // heap index of each queued landmark
};

}  // namespace

Router::Router(const RoadNetwork& net) : net_(net) {
  for (const bool reverse : {false, true}) {
    Adjacency& adj = reverse ? in_ : out_;
    adj.offsets.reserve(net.num_landmarks() + 1);
    adj.far.reserve(net.num_segments());
    adj.segment.reserve(net.num_segments());
    adj.offsets.push_back(0);
    for (std::size_t u = 0; u < net.num_landmarks(); ++u) {
      const auto lm = static_cast<LandmarkId>(u);
      for (SegmentId sid :
           reverse ? net.InSegments(lm) : net.OutSegments(lm)) {
        const RoadSegment& seg = net.segment(sid);
        adj.far.push_back(reverse ? seg.from : seg.to);
        adj.segment.push_back(sid);
      }
      adj.offsets.push_back(static_cast<std::uint32_t>(adj.segment.size()));
    }
  }
}

std::shared_ptr<const Router::Weights> Router::WeightsFor(
    const NetworkCondition& cond) const {
  {
    std::shared_lock lock(cache_mutex_);
    const auto it = weights_.find(cond.version());
    if (it != weights_.end()) return it->second;
  }
  // Built outside the lock like a tree; a concurrent first query of the
  // same version builds an identical array and the first insert wins.
  auto weights = std::make_shared<Weights>(net_.num_segments());
  for (const RoadSegment& seg : net_.segments()) {
    (*weights)[seg.id] = cond.TravelTime(seg);
  }
  std::unique_lock lock(cache_mutex_);
  if (weights_.size() >= kMaxWeightArrays) weights_.clear();
  return weights_.emplace(cond.version(), std::move(weights)).first->second;
}

ShortestPathTree Router::RunDijkstra(LandmarkId root,
                                     const NetworkCondition& cond,
                                     bool reverse, LandmarkId stop_at) const {
  const std::size_t n = out_.offsets.size() - 1;
  if (net_.num_landmarks() != n ||
      net_.num_segments() != out_.segment.size()) {
    throw std::logic_error("Router: network changed after construction");
  }
  if (root < 0 || static_cast<std::size_t>(root) >= n) {
    throw std::out_of_range("Router: bad root landmark");
  }
  if (cond.size() != net_.num_segments()) {
    throw std::invalid_argument("Router: condition size mismatch");
  }
  const std::shared_ptr<const Weights> weights = WeightsFor(cond);
  const Adjacency& adj = reverse ? in_ : out_;
  const std::uint32_t* offsets = adj.offsets.data();
  const LandmarkId* far = adj.far.data();
  const SegmentId* segment = adj.segment.data();
  const double* w = weights->data();

  ShortestPathTree tree;
  tree.source = root;
  tree.time_s.assign(n, kInf);
  tree.parent_seg.assign(n, kInvalidSegment);
  double* time = tree.time_s.data();
  SegmentId* parent = tree.parent_seg.data();
  time[root] = 0.0;

  // Settles landmarks in the (time, landmark) order in which the lazy
  // priority_queue popped its live entries, so every strict-`<`
  // relaxation, and every equal-time parent, happens as it did there. A
  // closed segment's +inf weight never passes the `<`.
  LandmarkHeap heap(n);
  heap.PushOrDecrease(root, 0.0, /*queued=*/false);
  while (!heap.empty()) {
    const LandmarkId u = heap.Pop();
    if (u == stop_at) break;
    const double t = time[u];
    for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const LandmarkId v = far[e];
      const double nt = t + w[segment[e]];
      if (nt < time[v]) {
        heap.PushOrDecrease(v, nt, /*queued=*/time[v] != kInf);
        time[v] = nt;
        parent[v] = segment[e];
      }
    }
  }
  return tree;
}

ShortestPathTree Router::Tree(LandmarkId source,
                              const NetworkCondition& cond) const {
  return RunDijkstra(source, cond, /*reverse=*/false, kInvalidLandmark);
}

ShortestPathTree Router::ReverseTree(LandmarkId target,
                                     const NetworkCondition& cond) const {
  return RunDijkstra(target, cond, /*reverse=*/true, kInvalidLandmark);
}

std::shared_ptr<const ShortestPathTree> Router::CachedImpl(
    LandmarkId landmark, const NetworkCondition& cond, bool reverse) const {
  const CacheKey key{cond.version(), landmark, reverse};
  {
    std::shared_lock lock(cache_mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      cache_hits_.Increment();
      return it->second;
    }
  }
  cache_misses_.Increment();
  // Compute outside the lock; a concurrent miss on the same key computes an
  // identical tree and the first insert wins. Only the miss path is timed:
  // the hit path is a ~100 ns map probe where even a clock read would be
  // measurable overhead.
  const auto build_t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const ShortestPathTree> tree;
  {
    OBS_SPAN("router.tree_build");
    tree = std::make_shared<const ShortestPathTree>(
        reverse ? ReverseTree(landmark, cond) : Tree(landmark, cond));
  }
  tree_build_ms_.Observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - build_t0)
          .count());
  std::unique_lock lock(cache_mutex_);
  if (cache_.size() >= kMaxCacheEntries) {
    cache_.clear();
    weights_.clear();
  }
  const auto [it, inserted] = cache_.emplace(key, std::move(tree));
  return it->second;
}

std::shared_ptr<const ShortestPathTree> Router::CachedTree(
    LandmarkId source, const NetworkCondition& cond) const {
  return CachedImpl(source, cond, /*reverse=*/false);
}

std::shared_ptr<const ShortestPathTree> Router::CachedReverseTree(
    LandmarkId target, const NetworkCondition& cond) const {
  return CachedImpl(target, cond, /*reverse=*/true);
}

RouterCacheStats Router::cache_stats() const {
  RouterCacheStats stats;
  stats.hits = cache_hits_.Value();
  stats.misses = cache_misses_.Value();
  return stats;
}

std::size_t Router::cache_entries() const {
  std::shared_lock lock(cache_mutex_);
  return cache_.size();
}

void Router::ClearCache() const {
  std::unique_lock lock(cache_mutex_);
  cache_.clear();
  weights_.clear();
}

std::optional<Route> Router::ShortestRoute(LandmarkId from, LandmarkId to,
                                           const NetworkCondition& cond) const {
  return RunDijkstra(from, cond, /*reverse=*/false, to).RouteTo(net_, to);
}

}  // namespace mobirescue::roadnet
