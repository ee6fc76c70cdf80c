#include "opt/hungarian.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>

#include "util/rng.hpp"

namespace mobirescue::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The padded square solver SolveAssignment replaced, kept verbatim as the
// reference: it pads to side max(rows, cols) with zero-cost dummy cells.
AssignmentResult SolveAssignmentPadded(const AssignmentProblem& problem) {
  if (problem.cost.size() != problem.rows * problem.cols) {
    throw std::invalid_argument("SolveAssignment: cost size mismatch");
  }
  for (double c : problem.cost) {
    if (!std::isfinite(c)) {
      throw std::invalid_argument(
          "SolveAssignment: non-finite cost (use kForbiddenCost)");
    }
  }
  // Pad to square with zero-cost dummy cells: dummy rows absorb surplus
  // columns and vice versa.
  const std::size_t n = std::max(problem.rows, problem.cols);
  if (n == 0) return {};

  auto cost = [&](std::size_t r, std::size_t c) -> double {
    if (r < problem.rows && c < problem.cols) return problem.at(r, c);
    return 0.0;
  };

  // e-maxx potentials formulation (1-indexed internally).
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<std::size_t> p(n + 1, 0), way(n + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<char> used(n + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = p[j0];
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
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

  AssignmentResult result;
  result.row_to_col.assign(problem.rows, -1);
  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t i = p[j];
    if (i >= 1 && i <= problem.rows && j <= problem.cols) {
      // Skip forbidden assignments encoded with kForbiddenCost.
      if (problem.at(i - 1, j - 1) >= kForbiddenCost * 0.999) continue;
      result.row_to_col[i - 1] = static_cast<int>(j - 1);
      result.total_cost += problem.at(i - 1, j - 1);
    }
  }
  return result;
}

// The rectangular loop SolveAssignment ran before its fused column pass,
// kept verbatim as the reference: each augmenting step relaxes and scans
// the columns, then makes a second pass to update the potentials and minv.
AssignmentResult SolveAssignmentTwoPass(const AssignmentProblem& problem) {
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

AssignmentProblem Make(std::size_t rows, std::size_t cols,
                       std::initializer_list<double> costs) {
  AssignmentProblem p;
  p.rows = rows;
  p.cols = cols;
  p.cost.assign(costs);
  return p;
}

enum class Shape { kWide, kTall, kSquare };

// A random problem shaped like MobiRescueDispatcher::DecideByAssignment's:
// each candidate fills 1-3 identical columns, about 90% of (row, candidate)
// pairs are unreachable (kForbiddenCost), and reachable costs are negated
// integer margins, so equal-cost optima are common. kWide has fewer rows
// than columns (as at serving time) unless there is a single column.
AssignmentProblem DispatchShaped(util::Rng& rng, std::size_t candidates,
                                 Shape shape) {
  std::vector<std::size_t> columns;  // candidate per column
  for (std::size_t k = 0; k < candidates; ++k) {
    const double pick = rng.Uniform(0, 1);
    const int copies = pick < 0.7 ? 1 : (pick < 0.9 ? 2 : 3);
    for (int c = 0; c < copies; ++c) columns.push_back(k);
  }
  AssignmentProblem p;
  p.cols = columns.size();
  p.rows = p.cols;
  if (shape == Shape::kWide && p.cols > 1) p.rows = 1 + rng.Index(p.cols - 1);
  if (shape == Shape::kTall) p.rows = p.cols + 1 + rng.Index(8);
  p.cost.assign(p.rows * p.cols, kForbiddenCost);
  for (std::size_t r = 0; r < p.rows; ++r) {
    std::vector<double> by_candidate(candidates, kForbiddenCost);
    for (double& c : by_candidate) {
      if (rng.Uniform(0, 1) < 0.1) {
        c = static_cast<double>(rng.UniformInt(-6, 5));
      }
    }
    for (std::size_t c = 0; c < p.cols; ++c) {
      p.at(r, c) = by_candidate[columns[c]];
    }
  }
  return p;
}

// What TieHeavy put into one problem.
struct TieCounts {
  int forbidden_rows = 0;  // rows that reach no candidate
  int copied_rows = 0;     // byte-identical copies of an earlier row
  int replicated = 0;      // columns that repeat the previous column
};

// A problem with the three tie sources of a paper-day assignment round.
// Each candidate fills 1-3 replicated columns. About a third of the rows
// reach no candidate (every cell kForbiddenCost), and about a third of the
// rest are byte-identical copies of an earlier reachable row (co-located
// idle teams). The others reach ~25% of the candidates at negated margins:
// real-valued, but half of them on a 0.25 grid so equal costs recur across
// rows and candidates.
AssignmentProblem TieHeavy(util::Rng& rng, std::size_t candidates,
                           Shape shape, TieCounts& counts) {
  std::vector<std::size_t> columns;  // candidate per column
  for (std::size_t k = 0; k < candidates; ++k) {
    const double pick = rng.Uniform(0, 1);
    const int copies = pick < 0.6 ? 1 : (pick < 0.85 ? 2 : 3);
    for (int c = 0; c < copies; ++c) columns.push_back(k);
    counts.replicated += copies - 1;
  }
  AssignmentProblem p;
  p.cols = columns.size();
  p.rows = p.cols;
  if (shape == Shape::kWide && p.cols > 1) p.rows = 1 + rng.Index(p.cols - 1);
  if (shape == Shape::kTall) p.rows = p.cols + 1 + rng.Index(p.cols + 4);
  p.cost.assign(p.rows * p.cols, kForbiddenCost);
  std::vector<std::size_t> reachable_rows;
  for (std::size_t r = 0; r < p.rows; ++r) {
    const double kind = rng.Uniform(0, 1);
    if (kind < 0.35) {
      ++counts.forbidden_rows;
      continue;
    }
    if (kind < 0.6 && !reachable_rows.empty()) {
      const std::size_t from = reachable_rows[rng.Index(reachable_rows.size())];
      std::copy_n(p.cost.begin() + from * p.cols, p.cols,
                  p.cost.begin() + r * p.cols);
      ++counts.copied_rows;
      continue;
    }
    std::vector<double> by_candidate(candidates, kForbiddenCost);
    for (double& c : by_candidate) {
      if (rng.Uniform(0, 1) >= 0.25) continue;
      const double margin = rng.Uniform(-2, 3);
      c = -(rng.Uniform(0, 1) < 0.5 ? std::round(margin * 4) / 4 : margin);
    }
    for (std::size_t c = 0; c < p.cols; ++c) {
      p.at(r, c) = by_candidate[columns[c]];
    }
    reachable_rows.push_back(r);
  }
  return p;
}

// Every assigned column is in range, used once and not forbidden, and
// total_cost is the sum of the assigned cells (up to summation order).
void ExpectValidAssignment(const AssignmentProblem& p,
                           const AssignmentResult& r) {
  ASSERT_EQ(r.row_to_col.size(), p.rows);
  std::vector<char> used(p.cols, 0);
  double total = 0.0;
  for (std::size_t i = 0; i < p.rows; ++i) {
    const int col = r.row_to_col[i];
    if (col < 0) {
      ASSERT_EQ(col, -1);
      continue;
    }
    ASSERT_LT(static_cast<std::size_t>(col), p.cols);
    ASSERT_FALSE(used[col]) << "column " << col << " assigned twice";
    used[col] = 1;
    ASSERT_LT(p.at(i, col), kForbiddenCost * 0.999);
    total += p.at(i, col);
  }
  EXPECT_NEAR(r.total_cost, total, 1e-9);
}

// Minimum over full matchings of the smaller side into the larger one (the
// problem SolveAssignment optimises, forbidden cells included).
double BruteForceCost(const AssignmentProblem& p) {
  const bool by_row = p.rows <= p.cols;
  const std::size_t a = by_row ? p.rows : p.cols;
  const std::size_t b = by_row ? p.cols : p.rows;
  std::vector<char> used(b, 0);
  double best = kInf;
  std::function<void(std::size_t, double)> dfs = [&](std::size_t i,
                                                     double acc) {
    if (i == a) {
      best = std::min(best, acc);
      return;
    }
    for (std::size_t j = 0; j < b; ++j) {
      if (used[j]) continue;
      used[j] = 1;
      dfs(i + 1, acc + (by_row ? p.at(i, j) : p.at(j, i)));
      used[j] = 0;
    }
  };
  dfs(0, 0.0);
  return best;
}

TEST(HungarianTest, SolvesKnown3x3) {
  // Classic example: optimal assignment cost 5 (1+2+2... verify below).
  const AssignmentProblem p = Make(3, 3,
                                   {4, 1, 3,
                                    2, 0, 5,
                                    3, 2, 2});
  const AssignmentResult r = SolveAssignment(p);
  EXPECT_DOUBLE_EQ(r.total_cost, 5.0);  // (0,1)+(1,0)+(2,2) = 1+2+2
  EXPECT_EQ(r.row_to_col[0], 1);
  EXPECT_EQ(r.row_to_col[1], 0);
  EXPECT_EQ(r.row_to_col[2], 2);
}

TEST(HungarianTest, AssignmentIsPermutation) {
  util::Rng rng(8);
  AssignmentProblem p;
  p.rows = p.cols = 12;
  p.cost.resize(144);
  for (double& c : p.cost) c = rng.Uniform(0, 100);
  const AssignmentResult r = SolveAssignment(p);
  std::vector<char> used(12, 0);
  for (int col : r.row_to_col) {
    ASSERT_GE(col, 0);
    ASSERT_LT(col, 12);
    EXPECT_FALSE(used[col]);
    used[col] = 1;
  }
}

TEST(HungarianTest, BeatsOrEqualsGreedyOnRandomInstances) {
  util::Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    AssignmentProblem p;
    p.rows = p.cols = 8;
    p.cost.resize(64);
    for (double& c : p.cost) c = rng.Uniform(0, 10);
    const double exact = SolveAssignment(p).total_cost;
    const double greedy = SolveAssignmentGreedy(p).total_cost;
    EXPECT_LE(exact, greedy + 1e-9);
  }
}

TEST(HungarianTest, BruteForceAgreementSmall) {
  // Every shape up to 5x7 and 7x5, square ones included.
  util::Rng rng(10);
  for (std::size_t rows = 1; rows <= 7; ++rows) {
    for (std::size_t cols = 1; cols <= 7; ++cols) {
      if (std::min(rows, cols) > 5) continue;
      for (int trial = 0; trial < 6; ++trial) {
        AssignmentProblem p;
        p.rows = rows;
        p.cols = cols;
        p.cost.resize(rows * cols);
        // Odd trials use integer costs, so exact ties occur.
        for (double& c : p.cost) {
          c = trial % 2 ? std::floor(rng.Uniform(-3, 4)) : rng.Uniform(0, 10);
        }
        const AssignmentResult r = SolveAssignment(p);
        ExpectValidAssignment(p, r);
        std::size_t assigned = 0;
        for (int col : r.row_to_col) assigned += col >= 0;
        EXPECT_EQ(assigned, std::min(rows, cols));
        EXPECT_NEAR(r.total_cost, BruteForceCost(p), 1e-9)
            << rows << "x" << cols << " trial " << trial;
      }
    }
  }
}

TEST(HungarianTest, RectangularMoreColsLeavesColumnsUnused) {
  const AssignmentProblem p = Make(2, 3,
                                   {5, 1, 9,
                                    5, 9, 1});
  const AssignmentResult r = SolveAssignment(p);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
  EXPECT_EQ(r.row_to_col[0], 1);
  EXPECT_EQ(r.row_to_col[1], 2);
}

TEST(HungarianTest, RectangularMoreRowsLeavesRowsUnassigned) {
  const AssignmentProblem p = Make(3, 1, {3, 1, 2});
  const AssignmentResult r = SolveAssignment(p);
  EXPECT_DOUBLE_EQ(r.total_cost, 1.0);
  int assigned = 0;
  for (int c : r.row_to_col) assigned += (c >= 0);
  EXPECT_EQ(assigned, 1);
  EXPECT_EQ(r.row_to_col[1], 0);
}

TEST(HungarianTest, ForbiddenCostMeansUnassigned) {
  const AssignmentProblem p = Make(2, 2,
                                   {1.0, kForbiddenCost,
                                    kForbiddenCost, kForbiddenCost});
  const AssignmentResult r = SolveAssignment(p);
  EXPECT_EQ(r.row_to_col[0], 0);
  EXPECT_EQ(r.row_to_col[1], -1);
  EXPECT_DOUBLE_EQ(r.total_cost, 1.0);
}

TEST(HungarianTest, RejectsNonFiniteCosts) {
  AssignmentProblem p = Make(1, 1, {1.0});
  p.cost[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SolveAssignment(p), std::invalid_argument);
}

TEST(HungarianTest, SizeMismatchThrows) {
  AssignmentProblem p;
  p.rows = 2;
  p.cols = 2;
  p.cost = {1.0};
  EXPECT_THROW(SolveAssignment(p), std::invalid_argument);
}

TEST(HungarianTest, EmptyProblem) {
  const AssignmentResult r = SolveAssignment(AssignmentProblem{});
  EXPECT_TRUE(r.row_to_col.empty());
  EXPECT_DOUBLE_EQ(r.total_cost, 0.0);
  // Rows without columns stay unassigned.
  AssignmentProblem no_cols;
  no_cols.rows = 3;
  const AssignmentResult none = SolveAssignment(no_cols);
  EXPECT_EQ(none.row_to_col, std::vector<int>(3, -1));
  EXPECT_DOUBLE_EQ(none.total_cost, 0.0);
}

TEST(HungarianTest, MatchesPaddedReferenceOnDispatchShapedProblems) {
  util::Rng rng(12);
  int wide = 0, tall = 0, square = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    // Mostly rows < cols, as at serving time; then rows > cols and square.
    const Shape shape = trial % 6 < 4    ? Shape::kWide
                        : trial % 6 == 4 ? Shape::kTall
                                         : Shape::kSquare;
    const AssignmentProblem p = DispatchShaped(rng, 1 + rng.Index(60), shape);
    wide += p.rows < p.cols;
    tall += p.rows > p.cols;
    square += p.rows == p.cols;

    const AssignmentResult got = SolveAssignment(p);
    const AssignmentResult ref = SolveAssignmentPadded(p);
    ExpectValidAssignment(p, got);
    ASSERT_EQ(got.total_cost, ref.total_cost)
        << "trial " << trial << " " << p.rows << "x" << p.cols;
    if (p.rows >= p.cols) {
      ASSERT_EQ(got.row_to_col, ref.row_to_col)
          << "trial " << trial << " " << p.rows << "x" << p.cols;
    }
  }
  EXPECT_GE(wide, 1200);
  EXPECT_GE(tall, 300);
  EXPECT_GE(square, 300);
}

TEST(HungarianTest, RowToColIdenticalToPaddedWhenRowsAtLeastCols) {
  // With no surplus columns the rectangular loop is the padded loop, so
  // even the tie-break among equal-cost optima is unchanged. Dense costs,
  // like the training pass's travel-time problems.
  util::Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    AssignmentProblem p;
    p.cols = 1 + rng.Index(12);
    p.rows = p.cols + rng.Index(6);
    p.cost.resize(p.rows * p.cols);
    for (double& c : p.cost) {
      c = rng.Uniform(0, 1) < 0.3 ? kForbiddenCost
                                  : std::floor(rng.Uniform(0, 4));
    }
    const AssignmentResult got = SolveAssignment(p);
    const AssignmentResult ref = SolveAssignmentPadded(p);
    ASSERT_EQ(got.row_to_col, ref.row_to_col) << "trial " << trial;
    ASSERT_EQ(got.total_cost, ref.total_cost) << "trial " << trial;
  }
}

TEST(HungarianTest, EveryLaneBodyMatchesTwoPassReferenceBitwise) {
  // The fused pass keeps the reference's arithmetic and its first-strict-
  // minimum tie rule, so every lane body must give the same row_to_col and
  // the same total_cost bits, even where equal-cost optima abound.
  const std::vector<detail::LaneBody> bodies = detail::HostLaneBodies();
  ASSERT_FALSE(bodies.empty());
  EXPECT_EQ(bodies.front(), detail::LaneBody::kDefault);
  util::Rng rng(14);
  TieCounts counts;
  int wide = 0, tall = 0, square = 0, paper_scale = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const Shape shape = trial % 3 == 0   ? Shape::kWide
                        : trial % 3 == 1 ? Shape::kTall
                                         : Shape::kSquare;
    // Every 25th problem has a paper-day round's ~40 candidates
    // (~60-120 columns); the rest are small enough to vary widely.
    const bool paper = trial % 25 == 0;
    const std::size_t candidates =
        paper ? 36 + rng.Index(8) : 1 + rng.Index(24);
    const AssignmentProblem p = TieHeavy(rng, candidates, shape, counts);
    wide += p.rows < p.cols;
    tall += p.rows > p.cols;
    square += p.rows == p.cols;
    paper_scale += paper;

    const AssignmentResult ref = SolveAssignmentTwoPass(p);
    ExpectValidAssignment(p, ref);
    std::vector<AssignmentResult> got;
    for (const detail::LaneBody body : bodies) {
      got.push_back(detail::SolveAssignment(p, body));
    }
    got.push_back(SolveAssignment(p));  // the body the host dispatches to
    for (std::size_t b = 0; b < got.size(); ++b) {
      ASSERT_EQ(got[b].row_to_col, ref.row_to_col)
          << "body " << b << " trial " << trial << " " << p.rows << "x"
          << p.cols;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[b].total_cost),
                std::bit_cast<std::uint64_t>(ref.total_cost))
          << "body " << b << " trial " << trial << " " << p.rows << "x"
          << p.cols;
    }
  }
  EXPECT_GE(wide, 450);
  EXPECT_GE(tall, 450);
  EXPECT_GE(square, 450);
  EXPECT_GE(paper_scale, 60);
  EXPECT_GE(counts.forbidden_rows, 5000);
  EXPECT_GE(counts.copied_rows, 3000);
  EXPECT_GE(counts.replicated, 5000);
}

TEST(HungarianTest, AllForbiddenAndIdenticalRowsFollowTheReference) {
  // Four co-located teams (identical rows) and two that reach nothing,
  // over one candidate replicated three times and one single column: the
  // e-maxx tie-break alone decides which identical row gets which column.
  const double f = kForbiddenCost;
  const AssignmentProblem p = Make(6, 4,
                                   {-1.5, -1.5, -1.5, -0.5,
                                    f,    f,    f,    f,
                                    -1.5, -1.5, -1.5, -0.5,
                                    -1.5, -1.5, -1.5, -0.5,
                                    f,    f,    f,    f,
                                    -1.5, -1.5, -1.5, -0.5});
  const AssignmentResult ref = SolveAssignmentTwoPass(p);
  for (const detail::LaneBody body : detail::HostLaneBodies()) {
    const AssignmentResult got = detail::SolveAssignment(p, body);
    EXPECT_EQ(got.row_to_col, ref.row_to_col);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_cost),
              std::bit_cast<std::uint64_t>(ref.total_cost));
  }
  EXPECT_EQ(ref.row_to_col[1], -1);
  EXPECT_EQ(ref.row_to_col[4], -1);
  EXPECT_DOUBLE_EQ(ref.total_cost, -5.0);
}

}  // namespace
}  // namespace mobirescue::opt
