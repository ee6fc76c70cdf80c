// Exact minimum-cost assignment (Hungarian algorithm, Jonker-style potential
// formulation, run over the rectangular problem directly: O(rows^2 * cols)
// when rows <= cols, O(rows^3) otherwise). Each augmenting step is one
// fused pass over the columns, 4 lanes wide on AVX2 hosts (DESIGN.md §5).
//
// This is the integer-programming core of both baselines: `Schedule` [5] and
// `Rescue` [8] assign rescue teams to (appeared / predicted) request
// positions minimising total driving delay. An assignment LP with one team
// per request is totally unimodular, so the Hungarian optimum equals the
// integer-programming optimum the papers solve.
#pragma once

#include <vector>

namespace mobirescue::opt {

/// Cost matrix accessor: rows = agents, cols = tasks, row-major.
struct AssignmentProblem {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> cost;  // rows * cols

  double at(std::size_t r, std::size_t c) const { return cost[r * cols + c]; }
  double& at(std::size_t r, std::size_t c) { return cost[r * cols + c]; }
};

struct AssignmentResult {
  /// For each row, the assigned column or -1 (when rows > cols).
  std::vector<int> row_to_col;
  double total_cost = 0.0;
};

/// Solves min-cost assignment. Rectangular matrices are supported: if
/// rows > cols some rows stay unassigned; if cols > rows some columns stay
/// unused. Infeasible pairs can be encoded with a large finite cost (use
/// kForbiddenCost); truly infinite costs are rejected.
AssignmentResult SolveAssignment(const AssignmentProblem& problem);

/// Cost treated as "do not assign" — large enough to lose to any real cost,
/// small enough to avoid overflow inside the potentials.
inline constexpr double kForbiddenCost = 1e9;

/// Greedy row-by-row assignment (each row takes the cheapest remaining
/// column). Used as an ablation against the exact solver.
AssignmentResult SolveAssignmentGreedy(const AssignmentProblem& problem);

namespace detail {

/// The bodies of SolveAssignment's column pass: scalar (every host) and,
/// where built, 4-wide AVX2. SolveAssignment runs the widest one the
/// host supports; all give the same row_to_col and total_cost bits.
enum class LaneBody { kDefault, kAvx2 };

/// The bodies this host can run, kDefault first.
std::vector<LaneBody> HostLaneBodies();

/// SolveAssignment on one given body (for the parity tests).
AssignmentResult SolveAssignment(const AssignmentProblem& problem,
                                 LaneBody body);

}  // namespace detail

}  // namespace mobirescue::opt
