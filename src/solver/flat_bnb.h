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
// cost. Root-level branching fans out over a work-stealing pool when one is
// provided: every root branch is an independent search with a fixed budget
// slice and the shared incumbent as its initial bound, and results reduce
// in deterministic (score, index) order — so the solution is bit-identical
// for any thread count, including zero.
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

class ThreadPool;

struct FlatSearchOptions {
  // Total expansion budget, split evenly across connected components. Within
  // a component the per-root-branch slices start even, and slices left
  // unused by early-finishing branches are redistributed to still-aborted
  // branches in bounded follow-up rounds (each round is a barrier with a
  // deterministic reduce), so behaviour still does not depend on the pool.
  int64_t budget = 300'000;
  // Optional pool for root-level parallel branching. Results are identical
  // with or without it.
  ThreadPool* pool = nullptr;
};

struct FlatSearchResult {
  std::vector<int> choice;  // Core-compact choice per node.
  double objective = kFlatLarge;
  bool feasible = false;  // objective < kFlatInfeasible.
  bool aborted = false;   // Some branch exhausted its budget slice.
  int64_t explored = 0;
  // Proven lower bound on the optimal objective (anytime contract): equals
  // `objective` when the search completed; on an abort it is the sum, over
  // components, of min(component objective, weakest unexplored root-branch
  // bound). (objective - lower_bound) is the absolute optimality gap.
  double lower_bound = 0.0;
};

// Exact search over `core` (a simple graph; parallel edges must already be
// merged): builds the flat arenas, diffuses, then searches. A search that
// runs out of budget while its proven bound already meets its incumbent is
// reported as complete. Deterministic: same core and options give the same
// result, for any thread count.
FlatSearchResult SolveCore(const IlpProblem& core, const FlatSearchOptions& options);

}  // namespace alpa

#endif  // SRC_SOLVER_FLAT_BNB_H_
