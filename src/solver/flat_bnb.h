// Flat-memory branch & bound over a presolved ILP core: the solver's one
// search engine, stage 3 of the staged pipeline.
//
// The core is loaded into FlatCore arenas (src/solver/flat_core), whose
// min-sum diffusion tightens the bound before the search starts. The
// search maintains, per unassigned node, a "conditioned" cost vector —
// unary cost plus the matrix rows of every already-assigned neighbor —
// which serves double duty:
//   * the exact incremental cost of assigning that node next, and
//   * a frontier-aware lower bound (sum of conditioned minima over
//     unassigned nodes, plus global matrix minima of the edges not yet
//     touching the frontier), much tighter than a static suffix bound.
// Variables are ordered dynamically by regret (gap between the best and
// second-best conditioned cost); values are tried in ascending conditioned
// cost. Each connected component is one sequential depth-first search with
// a single incumbent, so the result is a function of the core and the
// budget alone. Compile-time parallelism lives one level up, in the
// (layer x mesh) profiling sweep, never inside a solve.
//
// Callers re-evaluate the returned assignment on the original (unclamped)
// problem; see flat_core.h for the kFlatLarge / kFlatInfeasible clamping
// contract.
#ifndef SRC_SOLVER_FLAT_BNB_H_
#define SRC_SOLVER_FLAT_BNB_H_

#include <cstdint>
#include <vector>

#include "src/solver/flat_core.h"
#include "src/solver/ilp_solver.h"

namespace alpa {

struct FlatSearchResult {
  std::vector<int> choice;  // Core-compact choice per node.
  double objective = kFlatLarge;
  bool feasible = false;  // objective < kFlatInfeasible.
  bool aborted = false;   // Some component exhausted its budget share.
  int64_t explored = 0;   // Expanded nodes; never more than the budget.
  // Proven lower bound on the optimal objective (anytime contract): equals
  // `objective` when the search completed; on an abort it is the sum, over
  // components, of min(component objective, pre-push bound of the root
  // choice the budget cut off). (objective - lower_bound) is the absolute
  // optimality gap.
  double lower_bound = 0.0;
};

// Exact search over `core` (a simple graph; parallel edges must already be
// merged): builds the flat arenas, diffuses, then searches. `budget` caps
// the expanded nodes and is split evenly across connected components. A
// search that runs out of budget while its proven bound already meets its
// incumbent is reported as complete. Deterministic: the same core and
// budget give the same result.
FlatSearchResult SolveCore(const IlpProblem& core, int64_t budget);

}  // namespace alpa

#endif  // SRC_SOLVER_FLAT_BNB_H_
