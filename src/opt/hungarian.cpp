#include "opt/hungarian.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/simd.hpp"

namespace mobirescue::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The padded cost rows are a whole number of the AVX2 body's vectors.
constexpr std::size_t kMaxLanes = 4;

struct PassResult {
  double delta;
  std::size_t j1;
};

// One augmenting step's pass over columns [0, width): apply the previous
// step's `minv -= delta`, relax with row i0, and find the smallest minv of
// a free column (free_mask[j] == -1), the lowest column on ties. Used
// columns keep their way[]; their minv is never read again this row.
using PassFn = PassResult (*)(const double* row, double u_i0, const double* v,
                              double* minv, std::int64_t* way,
                              const std::int64_t* free_mask, std::size_t width,
                              std::size_t j0, double prev_delta);

// The default body is scalar and skips used columns: on SSE2, two-lane
// blends cost more than the branches they replace.
PassResult PassDefault(const double* row, double u_i0, const double* v,
                       double* minv, std::int64_t* way,
                       const std::int64_t* free_mask, std::size_t width,
                       std::size_t j0, double prev_delta) {
  PassResult out{kInf, 0};
  for (std::size_t j = 0; j < width; ++j) {
    if (!free_mask[j]) continue;
    double mv = minv[j] - prev_delta;
    const double cur = (row[j] - u_i0) - v[j];
    if (cur < mv) {
      mv = cur;
      way[j] = static_cast<std::int64_t>(j0);
    }
    minv[j] = mv;
    if (mv < out.delta) out = {mv, j};
  }
  return out;
}

#ifdef MR_AVX2_TARGET
typedef double D4 __attribute__((vector_size(4 * sizeof(double))));
typedef std::int64_t I4 __attribute__((vector_size(4 * sizeof(std::int64_t))));

// Unaligned vector load/store and broadcast, compiled for AVX2 like their
// one caller (a 32-byte vector passes by value only between AVX
// functions).
template <class V, class T>
MR_AVX2_TARGET [[gnu::always_inline]] inline V Load(const T* p) {
  V x = {};
  std::memcpy(&x, p, sizeof x);
  return x;
}

template <class V, class T>
MR_AVX2_TARGET [[gnu::always_inline]] inline void Store(T* p, V x) {
  std::memcpy(p, &x, sizeof x);
}

template <class V, class T>
MR_AVX2_TARGET [[gnu::always_inline]] inline V Splat(T x) {
  return V{x, x, x, x};
}

// Four columns at a time, branch-free: used lanes are masked out of the
// relax and the minimum. Each lane keeps its own first strict minimum, and
// the lanes' minima are merged lowest column first on ties, which is the
// scalar scan's first strict minimum.
MR_AVX2_TARGET PassResult PassAvx2(const double* row, double u_i0,
                                   const double* v, double* minv,
                                   std::int64_t* way,
                                   const std::int64_t* free_mask,
                                   std::size_t width, std::size_t j0,
                                   double prev_delta) {
  const D4 ui = Splat<D4>(u_i0);
  const D4 prev = Splat<D4>(prev_delta);
  const D4 inf = Splat<D4>(kInf);
  const I4 from = Splat<I4>(static_cast<std::int64_t>(j0));
  D4 best = inf;
  I4 best_col = {};
  I4 col = {0, 1, 2, 3};
  for (std::size_t j = 0; j < width; j += 4) {
    const I4 is_free = Load<I4>(free_mask + j);
    const D4 cur = (Load<D4>(row + j) - ui) - Load<D4>(v + j);
    D4 mv = Load<D4>(minv + j) - prev;
    const I4 relax = (cur < mv) & is_free;
    mv = relax ? cur : mv;
    Store(minv + j, mv);
    Store(way + j, relax ? from : Load<I4>(way + j));
    const D4 cand = is_free ? mv : inf;
    const I4 better = cand < best;
    best = better ? cand : best;
    best_col = better ? col : best_col;
    col += 4;
  }
  PassResult out{best[0], static_cast<std::size_t>(best_col[0])};
  for (int l = 1; l < 4; ++l) {
    const auto c = static_cast<std::size_t>(best_col[l]);
    if (best[l] < out.delta || (best[l] == out.delta && c < out.j1)) {
      out = {best[l], c};
    }
  }
  return out;
}
#endif

bool HostHasAvx2() {
#ifdef MR_AVX2_TARGET
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

AssignmentResult Solve(const AssignmentProblem& problem, PassFn pass) {
  if (problem.cost.size() != problem.rows * problem.cols) {
    throw std::invalid_argument("SolveAssignment: cost size mismatch");
  }
  for (double c : problem.cost) {
    if (!std::isfinite(c)) {
      throw std::invalid_argument(
          "SolveAssignment: non-finite cost (use kForbiddenCost)");
    }
  }
  const std::size_t n = problem.rows;
  const std::size_t cols = problem.cols;
  AssignmentResult result;
  result.row_to_col.assign(n, -1);
  if (n == 0 || cols == 0) return result;
  // e-maxx potentials formulation (1-indexed internally) over the real rows
  // only: O(rows^2 * cols). It needs rows <= columns, so surplus rows get
  // zero-cost dummy columns cols+1..m; surplus columns simply stay unused.
  const std::size_t m = std::max(n, cols);
  // Row-major copy, one padded row per real row: column 0 and the lane
  // tail are never free, the dummy columns cost 0.
  const std::size_t width = (m + kMaxLanes) / kMaxLanes * kMaxLanes;
  std::vector<double> cost(n * width, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    std::copy_n(problem.cost.data() + r * cols, cols,
                cost.data() + r * width + 1);
  }

  std::vector<double> u(n + 1, 0.0), v(width, 0.0), minv(width);
  std::vector<std::int64_t> way(width, 0), free_mask(width);
  std::vector<std::size_t> p(m + 1, 0), used;
  used.reserve(m + 1);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(free_mask.begin(), free_mask.end(), 0);
    std::fill(free_mask.begin() + 1, free_mask.begin() + m + 1, -1);
    used.clear();
    // The previous step's delta, subtracted from minv inside the next pass
    // (0 before the first: inf - 0 = inf).
    double delta = 0.0;
    do {
      free_mask[j0] = 0;
      used.push_back(j0);
      const std::size_t i0 = p[j0];
      const PassResult step =
          pass(cost.data() + (i0 - 1) * width, u[i0], v.data(), minv.data(),
               way.data(), free_mask.data(), width, j0, delta);
      delta = step.delta;
      for (std::size_t j : used) {
        u[p[j]] += delta;
        v[j] -= delta;
      }
      j0 = step.j1;
    } while (p[j0] != 0);
    do {
      const auto j1 = static_cast<std::size_t>(way[j0]);
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  for (std::size_t j = 1; j <= cols; ++j) {
    const std::size_t i = p[j];
    if (i == 0) continue;
    // Skip forbidden assignments encoded with kForbiddenCost.
    const double c = problem.at(i - 1, j - 1);
    if (c >= kForbiddenCost * 0.999) continue;
    result.row_to_col[i - 1] = static_cast<int>(j - 1);
    result.total_cost += c;
  }
  return result;
}

}  // namespace

namespace detail {

std::vector<LaneBody> HostLaneBodies() {
  std::vector<LaneBody> bodies{LaneBody::kDefault};
  if (HostHasAvx2()) bodies.push_back(LaneBody::kAvx2);
  return bodies;
}

AssignmentResult SolveAssignment(const AssignmentProblem& problem,
                                 LaneBody body) {
  if (body == LaneBody::kDefault) return Solve(problem, PassDefault);
#ifdef MR_AVX2_TARGET
  if (HostHasAvx2()) return Solve(problem, PassAvx2);
#endif
  throw std::invalid_argument("SolveAssignment: no AVX2 body on this host");
}

}  // namespace detail

AssignmentResult SolveAssignment(const AssignmentProblem& problem) {
  return detail::SolveAssignment(problem, HostHasAvx2()
                                              ? detail::LaneBody::kAvx2
                                              : detail::LaneBody::kDefault);
}

AssignmentResult SolveAssignmentGreedy(const AssignmentProblem& problem) {
  AssignmentResult result;
  result.row_to_col.assign(problem.rows, -1);
  std::vector<char> col_used(problem.cols, 0);
  for (std::size_t r = 0; r < problem.rows; ++r) {
    int best = -1;
    double best_c = kForbiddenCost * 0.999;
    for (std::size_t c = 0; c < problem.cols; ++c) {
      if (col_used[c]) continue;
      if (problem.at(r, c) < best_c) {
        best_c = problem.at(r, c);
        best = static_cast<int>(c);
      }
    }
    if (best >= 0) {
      col_used[best] = 1;
      result.row_to_col[r] = best;
      result.total_cost += best_c;
    }
  }
  return result;
}

}  // namespace mobirescue::opt
