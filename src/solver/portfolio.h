// Anytime solver portfolio: GRASP + simulated annealing racing the flat
// branch & bound over one presolved ILP core, with a shared incumbent.
//
// The staged pipeline's exact engines (presolve folding, variable
// elimination) dispose of most cores; the ones that reach branch & bound
// are exactly the ones that sometimes exhaust the search budget with an
// unproven gap. The portfolio reserves a small, deterministic slice of
// that budget for cheap metaheuristics, but lets the exact search race
// first — on the (now common) cores it proves outright, the reserve is
// never spent and the portfolio costs exactly one extra ICM polish:
//
//   round 1  FLAT B&B  the exact search under (budget - reserve). It
//                      self-seeds with the ICM-polished argmin start; if
//                      it proves optimality, the race is over and the
//                      remaining rounds never run.
//   round 0  SEED      (probe aborted; lazy) the same ICM-polished argmin
//                      start reduces into the shared incumbent as the
//                      metaheuristic baseline, followed by the aborted
//                      search's own best;
//   round 2  GRASP     randomized greedy constructions + ICM polish,
//                      restarts fanned out over the pool;
//   round 3  ANNEAL    simulated annealing chains seeded from the shared
//                      incumbent — which includes the aborted search's
//                      best, so the exact side hands the metaheuristics
//                      its incumbent, and the best of all rounds is
//                      returned with the search's proven lower bound.
//
// The race is synchronous: each round is a barrier whose results reduce in
// deterministic index order, the shared incumbent only advances at round
// boundaries, and each round's work is a pure function of (core, options,
// round-start incumbent). That is the same discipline the flat branch &
// bound's root-branch rounds already follow, and it makes the portfolio
// bit-identical for any thread count — an asynchronous bound handoff
// would make pruning (and therefore budget consumption, and therefore the
// returned plan) depend on scheduling. Budget charging is equally
// deterministic: the metaheuristic reserve is computed from the problem
// shape alone, never from elapsed work, and the probe's abort flag that
// gates rounds 2-3 is itself a pure function of (core, budget).
#ifndef SRC_SOLVER_PORTFOLIO_H_
#define SRC_SOLVER_PORTFOLIO_H_

#include <cstdint>
#include <vector>

#include "src/solver/flat_bnb.h"
#include "src/solver/flat_core.h"
#include "src/solver/ilp_solver.h"

namespace alpa {

class ThreadPool;

struct PortfolioOptions {
  // Total search budget in branch & bound node units, shared by all three
  // engines. The metaheuristics are charged a bounded fraction (see
  // portfolio.cc); the remainder funds the exact search.
  int64_t budget = 300'000;
  // Optional pool; every round fans out over it. Results are identical
  // with or without it.
  ThreadPool* pool = nullptr;
};

// Which round produced the final incumbent value (the winner of the
// race). kSeed is the ICM-polished argmin start; the winner is whoever's
// value stands at the end.
enum class PortfolioWinner { kSeed, kGrasp, kAnneal, kBnb };

struct PortfolioResult {
  std::vector<int> choice;  // Core-compact choice per node.
  double objective = kFlatLarge;
  bool feasible = false;
  bool aborted = false;  // The exact search exhausted its budget share.
  // Proven lower bound (anytime contract; see FlatSearchResult).
  double lower_bound = 0.0;
  // Expansions spent by the exact search (comparable to
  // FlatSearchResult::explored under the same budget).
  int64_t explored = 0;
  // Budget the exact search was given after metaheuristic charges.
  int64_t bnb_budget = 0;
  PortfolioWinner winner = PortfolioWinner::kSeed;
  // Round-boundary improvements of the shared incumbent.
  int incumbent_handoffs = 0;
  // Root branches the exact search pruned against the shared incumbent
  // before exploring them.
  int64_t bound_prune_events = 0;
  int grasp_restarts = 0;
  int64_t sa_steps = 0;
};

// Solves `core` (a simple graph, >= 1 node, parallel edges merged) with the
// racing portfolio. Deterministic: same core and options give the same
// result, for any thread count including none.
PortfolioResult SolvePortfolio(const IlpProblem& core, const PortfolioOptions& options);

}  // namespace alpa

#endif  // SRC_SOLVER_PORTFOLIO_H_
