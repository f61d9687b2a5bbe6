// Simulated annealing over per-node choice swaps — the refinement
// metaheuristic of the solver portfolio.
//
// Chains start from a caller-provided incumbent (the portfolio hands over
// the best GRASP construction) and walk single-node moves: pick a node,
// pick an alternative choice, compute the exact objective delta from the
// flat arenas (O(degree)), and accept downhill moves always and uphill
// moves with probability exp(-delta / T) under a geometric cooling
// schedule T_{k+1} = rate * T_k. The initial temperature is calibrated
// from the mean absolute delta of a deterministic pre-sample so the
// schedule adapts to the problem's cost scale. Chain c draws from its own
// SplitMix64 stream seeded by (a fixed base + c): every chain is a pure function
// of (core, start, options), the fan-out over the pool reduces in chain
// order (first-wins on value ties), and the result is bit-identical for
// any thread count.
#ifndef SRC_SOLVER_ANNEAL_H_
#define SRC_SOLVER_ANNEAL_H_

#include <cstdint>
#include <vector>

#include "src/solver/flat_core.h"

namespace alpa {

class ThreadPool;

struct AnnealOptions {
  // Independent chains, all seeded from the same start assignment but
  // with distinct random streams.
  int chains = 4;
  // Proposed moves per chain (accepted or not; each costs O(degree)).
  int64_t steps_per_chain = 20'000;
  // Optional pool for the chain fan-out. Results are identical with or
  // without it.
  ThreadPool* pool = nullptr;
};

struct AnnealResult {
  std::vector<int> choice;        // Best assignment seen by any chain.
  double objective = kFlatLarge;  // Clamped-space value of `choice`.
  bool feasible = false;          // objective < kFlatInfeasible.
  int64_t steps = 0;              // Total proposed moves across chains.
  int64_t accepted = 0;           // Total accepted moves across chains.
};

// Anneals from `start` (full-length core-compact assignment; every entry
// must be a valid choice index). Returns the best of (start, every chain's
// best). Deterministic.
AnnealResult RunAnneal(const FlatCore& f, const std::vector<int>& start,
                       const AnnealOptions& options);

}  // namespace alpa

#endif  // SRC_SOLVER_ANNEAL_H_
