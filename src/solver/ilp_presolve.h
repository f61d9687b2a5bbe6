// Presolve for the intra-op ILP (stage 1 of the staged solver pipeline).
//
// Alpa keeps its ILP tractable by shrinking the problem before handing it
// to a solver (operator merging, cost-matrix reductions, 4.2). This module
// is that shrink step for our node/edge formulation. Three reductions run
// to a fixpoint:
//   1. Parallel-edge merging: edges sharing an endpoint pair are summed
//      into one matrix (endpoint-pair hash map, O(E)).
//   2. Dominated-choice elimination: a choice whose best case (node cost
//      plus the sum of per-edge column minima) cannot beat another choice's
//      worst case (node cost plus per-edge column maxima) can never appear
//      in an optimal assignment and is dropped. Ties keep the lower index,
//      matching the first-wins argmin convention used everywhere else.
//   3. Degree-0/1/2 folding: an isolated node is decided by argmin; a leaf
//      is folded into its neighbor by adding, per neighbor choice, the best
//      (edge + leaf) cost into the neighbor's cost vector; a degree-2 node
//      is folded into a synthesized edge between its two neighbors (series
//      reduction: entry (i, j) is the best response over the node's choices
//      given the neighbors pick i and j), summed into an existing parallel
//      edge when one exists so the graph stays simple. Each fold records
//      the argmin for reconstruction. Repeated folding solves every
//      path/tree component exactly (the Viterbi forest DP is a special
//      case) and collapses all series-parallel structure — cycles, stage
//      chains with residual skips, ladders — so only a residual core of
//      treewidth >= 3 reaches branch & bound.
//
// All reductions are exact: the core's optimal objective equals the
// original's (up to floating-point reassociation; callers re-evaluate the
// reconstructed assignment on the original problem). Everything is
// deterministic: same input, same core, same reconstruction.
#ifndef SRC_SOLVER_ILP_PRESOLVE_H_
#define SRC_SOLVER_ILP_PRESOLVE_H_

#include <cstdint>
#include <vector>

#include "src/solver/ilp_solver.h"

namespace alpa {

struct PresolveStats {
  int64_t parallel_edges_merged = 0;  // Raw edges summed into an earlier one.
  int64_t choices_eliminated = 0;     // Dominated or infeasible choices dropped.
  int64_t nodes_folded = 0;           // Degree-0/1/2 nodes decided by presolve.
  int64_t edges_folded = 0;           // Net edges removed by folding.
};

// How one folded node is decided during reconstruction.
struct FoldRecord {
  int v = -1;      // Original node id.
  int into = -1;   // Original id of the neighbor it folded into; -1 = isolated.
  int into2 = -1;  // Second neighbor for a degree-2 (series) fold; -1 otherwise.
  // Leaf fold: pick[j] is v's choice when `into` ends up with original
  // choice j (-1 for j's that were already eliminated). Isolated node:
  // pick[0] is the decision.
  std::vector<int> pick;
  // Series fold: pick2[i * into2_choices + j] is v's choice when `into`
  // picks original choice i and `into2` picks original choice j.
  std::vector<int> pick2;
  int into2_choices = 0;
};

struct PresolvedProblem {
  // Residual core in compact node/choice numbering; empty when the whole
  // problem folded away. Simple graph (no parallel edges), every node has
  // degree >= 3 and >= 1 surviving choice.
  IlpProblem core;
  std::vector<int> core_nodes;         // Compact node -> original node id.
  std::vector<std::vector<int>> kept;  // Per original node: compact -> original choice.
  std::vector<FoldRecord> folds;       // In fold order.
  bool infeasible = false;             // Some node lost every choice.
  PresolveStats stats;

  // Expands a core assignment (compact choice indices, size
  // core.num_nodes()) into a full original-space assignment.
  std::vector<int> Reconstruct(const std::vector<int>& core_choice) const;
};

// Runs the reductions to a fixpoint. The input must pass Validate().
PresolvedProblem Presolve(const IlpProblem& problem);

// Order-sensitive structural fingerprint of a problem (node costs by bit
// pattern, edge endpoints and matrices). Identical problems hash equal, so
// the solver memoizes core solves on it across calls. One WordHash64 pass,
// each cost vector and matrix one four-chain span: the value is not stable
// across versions and must never be persisted.
uint64_t IlpProblemFingerprint(const IlpProblem& problem);

}  // namespace alpa

#endif  // SRC_SOLVER_ILP_PRESOLVE_H_
