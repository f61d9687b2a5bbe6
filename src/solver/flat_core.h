// Flat contiguous storage for a presolved ILP core, the input of the flat
// branch & bound (src/solver/flat_bnb).
//
// The core (output of Presolve) is loaded into contiguous arenas: one flat
// cost vector for all node choices and one arena holding every edge matrix
// twice (row-major from each endpoint, transpose materialized), so the
// search's hot loops are linear scans with no pointer chasing or branchy
// orientation checks. Node v's choice k lives at off[v] + k in
// every per-choice array; each Arc lookup is a single
// base + self * K(peer) + peer index.
//
// Infinities are clamped to kFlatLarge on load so bound and delta
// arithmetic never mixes inf into running sums; any objective >=
// kFlatInfeasible means "no feasible assignment found". Callers re-evaluate
// returned assignments on the original (unclamped) problem.
#ifndef SRC_SOLVER_FLAT_CORE_H_
#define SRC_SOLVER_FLAT_CORE_H_

#include <cstdint>
#include <vector>

#include "src/solver/ilp_solver.h"

namespace alpa {

// Stand-in for kInfCost inside the flat arenas, and the threshold above
// which a total is reported infeasible. Real costs are simulated seconds
// (<< 1e9), so the gap is comfortable.
inline constexpr double kFlatLarge = 1e30;
inline constexpr double kFlatInfeasible = 1e29;

struct FlatCore {
  int n = 0;
  std::vector<int> off;       // n + 1.
  std::vector<double> unary;  // Clamped node costs.

  struct Arc {
    int peer = 0;
    int edge = 0;      // Index into edge_min.
    int64_t base = 0;  // Arena offset of the row-major [self][peer] block.
  };
  std::vector<int> arc_off;  // n + 1, into arcs (grouped by node).
  std::vector<Arc> arcs;
  std::vector<double> arena;
  std::vector<double> edge_min;  // Clamped global minimum per edge.

  std::vector<std::vector<int>> comps;  // Connected components, ids ascending.

  int K(int v) const { return off[static_cast<size_t>(v) + 1] - off[static_cast<size_t>(v)]; }
  int degree(int v) const {
    return arc_off[static_cast<size_t>(v) + 1] - arc_off[static_cast<size_t>(v)];
  }
  int64_t total_choices() const { return static_cast<int64_t>(unary.size()); }

  // Pairwise cost between v (choosing i) and the peer of arc a (at its
  // current choice) — the hot lookup of the search and its ICM polish.
  double ArcCost(const Arc& a, int i, int peer_choice) const {
    return arena[static_cast<size_t>(a.base + static_cast<int64_t>(i) * K(a.peer) + peer_choice)];
  }
};

// Loads `p` (a simple graph; parallel edges must already be merged) into
// flat storage, then runs min-sum diffusion: it moves cost between the
// unary and edge tables without changing any full assignment's value, and
// tightens the per-node and per-edge minima that bound the search.
// Deterministic.
FlatCore BuildFlatCore(const IlpProblem& p);

// Per-node argmin start (first-wins on ties).
std::vector<int> ArgminStart(const FlatCore& f);

// Iterated conditional modes on the flat arrays: sweep until no single-node
// move improves (first-wins argmin per node, bounded sweeps). A node whose
// neighbors have not moved since its last evaluation is already at its
// conditional argmin, so a dirty worklist skips it while reproducing the
// full-sweep trajectory exactly. Branch & bound polishes its argmin start
// with it into the initial incumbent.
std::vector<int> FlatIcm(const FlatCore& f, std::vector<int> choice);

// Objective of a full assignment restricted to one component (clamped
// space; each edge counted once).
double ComponentValue(const FlatCore& f, const std::vector<int>& nodes,
                      const std::vector<int>& full);

}  // namespace alpa

#endif  // SRC_SOLVER_FLAT_CORE_H_
