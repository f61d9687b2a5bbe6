// GRASP (greedy randomized adaptive search procedure) over a flat ILP core
// — the constructive metaheuristic of the solver portfolio.
//
// Each restart builds a full assignment greedily with randomized choices:
// nodes are visited in a fixed order (descending degree, ties by id); each
// node's choices are conditioned on the already-assigned neighbors, a
// restricted candidate list keeps every choice within a fixed fraction of
// the conditioned cost range above its minimum, and one entry is sampled
// cost-weighted from the list. The construction is then polished by the
// shared dirty-worklist ICM local search (flat_core.h). Restart r draws
// from its own SplitMix64 stream seeded by (a fixed base + r), so the set
// of constructions is a pure function of (core, options) — independent of the thread pool the
// restarts fan out on, of execution order, and of every other engine in
// the portfolio. The reduce keeps the best (value, restart index) pair,
// first-wins on ties, matching the deterministic-reduce discipline of the
// flat branch & bound.
#ifndef SRC_SOLVER_GRASP_H_
#define SRC_SOLVER_GRASP_H_

#include <cstdint>
#include <vector>

#include "src/solver/flat_core.h"

namespace alpa {

class ThreadPool;

struct GraspOptions {
  // Number of randomized constructions. Each runs independently (fanned
  // out over `pool` when provided) and is deterministic in its index.
  int restarts = 16;
  // Optional pool for the restart fan-out. Results are identical with or
  // without it.
  ThreadPool* pool = nullptr;
};

struct GraspResult {
  std::vector<int> choice;  // Best polished construction (core-compact).
  double objective = kFlatLarge;  // Clamped-space value of `choice`.
  bool feasible = false;          // objective < kFlatInfeasible.
  int restarts_run = 0;
  // Arena lookups spent across all restarts (construction + ICM polish);
  // the portfolio charges these against its shared budget.
  int64_t evaluations = 0;
};

// Runs `options.restarts` randomized constructions over `f` (>= 1 node)
// and returns the best polished assignment. Deterministic.
GraspResult RunGrasp(const FlatCore& f, const GraspOptions& options);

}  // namespace alpa

#endif  // SRC_SOLVER_GRASP_H_
