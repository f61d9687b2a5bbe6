// Exact solver for the intra-op ILP (4.2, Eq. 1).
//
// After linearization, the ILP has one one-hot decision vector s_v per node
// and an edge decision e_vu per graph edge; its objective is
//     sum_v s_v . (c_v + d_v)  +  sum_(v,u) s_v^T R_vu s_u,
// i.e. a pairwise discrete energy over the computational graph. The paper
// feeds this to the off-the-shelf CBC solver [14]; we implement an exact
// solver directly on this structure, as one staged pipeline:
//   1. presolve (src/solver/ilp_presolve): parallel-edge merging,
//      dominated-choice elimination, and degree-0/1/2 folding run to a
//      fixpoint — chains and trees (most merged DL graphs) fold away
//      entirely, which subsumes a forest Viterbi DP;
//   2. every residual core goes to the flat-memory branch & bound
//      (src/solver/flat_bnb), bounded by min-sum diffusion: one sequential
//      depth-first search per connected component under the search
//      budget. A search that exhausts the budget returns its incumbent
//      with a proven lower bound;
//   3. the core assignment is reconstructed to the original space and
//      re-evaluated on the original problem.
// A solve runs on the calling thread and is deterministic: the result is a
// function of the problem and the options. Exactness is cross-checked
// against a brute-force oracle on randomized instances
// (tests/solver_crosscheck_test.cc).
#ifndef SRC_SOLVER_ILP_SOLVER_H_
#define SRC_SOLVER_ILP_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

namespace alpa {

inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

// A dense cost matrix in one contiguous row-major block. Every pass over
// an edge (build, presolve, the flat-core load, the fingerprint) walks
// whole rows, so one allocation per matrix replaces one per row.
class CostMatrix {
 public:
  CostMatrix() = default;
  // rows x cols zeros.
  CostMatrix(int rows, int cols)
      : rows_(rows), cols_(cols), cells_(static_cast<size_t>(rows) * static_cast<size_t>(cols)) {}
  // Row by row: {{a, b}, {c, d}} has rows (a, b) and (c, d). CHECK-fails
  // on rows of unequal length.
  CostMatrix(std::initializer_list<std::initializer_list<double>> rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  double& at(int i, int j) { return cells_[Index(i, j)]; }
  double at(int i, int j) const { return cells_[Index(i, j)]; }
  double* row(int i) { return cells_.data() + Index(i, 0); }
  const double* row(int i) const { return cells_.data() + Index(i, 0); }
  // All rows * cols cells, row-major.
  double* data() { return cells_.data(); }
  const double* data() const { return cells_.data(); }
  size_t size() const { return cells_.size(); }

  // Shrinks the matrix in place to the rows at the ascending indices
  // `rows` and the columns at the ascending indices `cols`; an empty list
  // keeps every row (column).
  void Keep(const std::vector<int>& rows, const std::vector<int>& cols);

 private:
  size_t Index(int i, int j) const {
    return static_cast<size_t>(i) * static_cast<size_t>(cols_) + static_cast<size_t>(j);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> cells_;
};

// A pairwise graph cost-minimization problem. Infeasible choices are
// encoded with kInfCost.
struct IlpProblem {
  // node_costs[v][i]: cost of picking algorithm i for node v.
  std::vector<std::vector<double>> node_costs;

  struct Edge {
    int u = 0;
    int v = 0;
    // cost.at(i, j): resharding cost when u picks i and v picks j; rows are
    // u's choices, columns v's.
    CostMatrix cost;
  };
  std::vector<Edge> edges;

  int num_nodes() const { return static_cast<int>(node_costs.size()); }
  int num_choices(int v) const { return static_cast<int>(node_costs[static_cast<size_t>(v)].size()); }
  // Total objective of a full assignment.
  double Evaluate(const std::vector<int>& choice) const;
  // Structural validation; CHECK-fails on malformed input.
  void Validate() const;
};

struct IlpSolution {
  std::vector<int> choice;
  double objective = kInfCost;
  bool optimal = false;     // True if proven optimal.
  bool feasible = false;    // True if objective < inf.
  int64_t nodes_explored = 0;
  std::string method;       // "empty", "presolve" (infeasible), "dp-forest",
                            // "search"; "(budget)" suffix on aborts.
  // Proven lower bound on the optimal objective (anytime contract):
  // equals `objective` when optimal; on a budget abort it comes from the
  // branch & bound's unexplored-subtree bounds. Always <= objective when
  // feasible.
  double lower_bound = 0.0;
  // Relative optimality gap, (objective - lower_bound) / objective.
  // 0 when proven optimal or when the solution is infeasible.
  double optimality_gap() const;
};

struct IlpSolverOptions {
  // Search-node budget of the branch & bound on residual cores. Large
  // flat-cost plateaus (many zero-communication ties) can exhaust this on
  // big stage graphs; the solve then returns its best incumbent, marked
  // non-optimal, with a proven lower bound.
  int64_t max_search_nodes = 300'000;
};

class IlpSolver {
 public:
  explicit IlpSolver(IlpSolverOptions options = {}) : options_(options) {}

  IlpSolution Solve(const IlpProblem& problem) const;

 private:
  IlpSolverOptions options_;
};

// Core solves are memoized process-wide on the presolved core's fingerprint
// plus the search budget, so a hit is exact. This drops
// every memoized core solution; IlpMemoCache::Clear() calls it alongside
// the full-solve cache.
void ClearIlpCoreMemo();

}  // namespace alpa

#endif  // SRC_SOLVER_ILP_SOLVER_H_
