#include "opt/hungarian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mobirescue::opt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

AssignmentResult SolveAssignment(const AssignmentProblem& problem) {
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

  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0), minv(m + 1);
  std::vector<std::size_t> p(m + 1, 0), way(m + 1, 0);
  std::vector<char> used(m + 1);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = p[j0];
      const double* row = problem.cost.data() + (i0 - 1) * cols;
      double delta = kInf;
      std::size_t j1 = 0;
      auto relax = [&](std::size_t j, double c) {
        if (used[j]) return;
        const double cur = c - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      };
      for (std::size_t j = 1; j <= cols; ++j) relax(j, row[j - 1]);
      for (std::size_t j = cols + 1; j <= m; ++j) relax(j, 0.0);
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
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
