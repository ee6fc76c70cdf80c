#include "calibrate.hpp"

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace daybench {

namespace {

/// Deterministic xorshift; the kernel's inputs never change.
struct XorShift {
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  std::uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// Dijkstra over a 64x64 grid with pseudo-random weights: heap and
/// adjacency walks, like the router's reverse trees.
double GraphPart() {
  constexpr int kSide = 64;
  constexpr int kN = kSide * kSide;
  XorShift rng;
  std::vector<double> weight(static_cast<std::size_t>(kN) * 4);
  for (double& w : weight) w = 1.0 + static_cast<double>(rng.Next() % 1000);
  std::vector<double> dist(kN);
  double checksum = 0.0;
  for (const int source : {0, kN / 2 + kSide / 3}) {
    dist.assign(kN, 1e300);
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    dist[source] = 0.0;
    heap.push({0.0, source});
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      const int x = u % kSide;
      const int y = u / kSide;
      const int nbr[4] = {x > 0 ? u - 1 : -1, x + 1 < kSide ? u + 1 : -1,
                          y > 0 ? u - kSide : -1,
                          y + 1 < kSide ? u + kSide : -1};
      for (int k = 0; k < 4; ++k) {
        const int v = nbr[k];
        if (v < 0) continue;
        const double nd = d + weight[static_cast<std::size_t>(u) * 4 + k];
        if (nd < dist[v]) {
          dist[v] = nd;
          heap.push({nd, v});
        }
      }
    }
    for (const double d : dist) checksum += d;
  }
  return checksum;
}

/// A 128-wide two-layer tanh forward pass over 64 rows: the Q pass's
/// floating-point shape.
double DensePart() {
  constexpr int kRows = 64;
  constexpr int kWidth = 128;
  XorShift rng;
  std::vector<double> w(kWidth * kWidth);
  std::vector<double> x(kRows * kWidth);
  std::vector<double> h(kRows * kWidth);
  for (double& v : w) v = static_cast<double>(rng.Next() % 2001) / 1000.0 - 1.0;
  for (double& v : x) v = static_cast<double>(rng.Next() % 2001) / 1000.0 - 1.0;
  for (int layer = 0; layer < 2; ++layer) {
    for (int r = 0; r < kRows; ++r) {
      for (int o = 0; o < kWidth; ++o) {
        double acc = 0.0;
        for (int i = 0; i < kWidth; ++i) {
          acc += x[r * kWidth + i] * w[o * kWidth + i];
        }
        h[r * kWidth + o] = std::tanh(acc);
      }
    }
    std::swap(x, h);
  }
  double checksum = 0.0;
  for (const double v : x) checksum += v;
  return checksum;
}

/// Hash-map inserts and lookups, like the demand and latest-position maps.
double HashPart() {
  XorShift rng;
  std::unordered_map<std::uint64_t, int> counts;
  for (int i = 0; i < 15000; ++i) ++counts[rng.Next() % 5000];
  double checksum = 0.0;
  for (int i = 0; i < 15000; ++i) {
    const auto it = counts.find(rng.Next() % 5000);
    if (it != counts.end()) checksum += it->second;
  }
  return checksum;
}

}  // namespace

double CalibrationMs(double* checksum) {
  const auto t0 = Clock::now();
  const double sum = GraphPart() + DensePart() + HashPart();
  const double ms = Ms(t0, Clock::now());
  if (checksum != nullptr) *checksum = sum;
  return ms;
}

}  // namespace daybench
