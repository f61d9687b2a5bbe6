// The solver tests' shared reference: an exhaustive brute-force oracle for
// small ILPs and the random instance generator the randomized checks draw
// from. Header-only and free of gtest, so the sanitizer harnesses built
// from library sources can use it too.
#ifndef TESTS_ILP_ORACLE_H_
#define TESTS_ILP_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/solver/ilp_solver.h"
#include "src/support/rng.h"

namespace alpa {

// Exhaustive search over every assignment (odometer order, node 0
// fastest). Returns the optimal objective, kInfCost when no assignment is
// feasible; `best_choice`, when given, receives the first assignment that
// attains it (left untouched when none is feasible).
inline double BruteForce(const IlpProblem& problem, std::vector<int>* best_choice = nullptr) {
  std::vector<int> choice(static_cast<size_t>(problem.num_nodes()), 0);
  double best = kInfCost;
  while (true) {
    const double value = problem.Evaluate(choice);
    if (value < best) {
      best = value;
      if (best_choice != nullptr) {
        *best_choice = choice;
      }
    }
    int i = 0;
    while (i < problem.num_nodes()) {
      if (++choice[static_cast<size_t>(i)] < problem.num_choices(i)) {
        break;
      }
      choice[static_cast<size_t>(i)] = 0;
      ++i;
    }
    if (i == problem.num_nodes()) {
      break;
    }
  }
  return best;
}

// `nodes` nodes with 1..max_choices choices each, node costs in [0, 10).
inline IlpProblem RandomNodes(Rng& rng, int nodes, int max_choices) {
  IlpProblem problem;
  problem.node_costs.resize(static_cast<size_t>(nodes));
  for (int v = 0; v < nodes; ++v) {
    const int k = 1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(max_choices)));
    for (int i = 0; i < k; ++i) {
      problem.node_costs[static_cast<size_t>(v)].push_back(rng.NextDouble(0, 10));
    }
  }
  return problem;
}

// RandomNodes plus an edge on each node pair with probability `edge_prob`,
// costs in [0, 5); each edge cost is infeasible with probability
// `inf_prob` (no random draw is spent on that when it is 0).
inline IlpProblem RandomProblem(Rng& rng, int nodes, int max_choices, double edge_prob,
                                double inf_prob = 0.0) {
  IlpProblem problem = RandomNodes(rng, nodes, max_choices);
  for (int u = 0; u < nodes; ++u) {
    for (int v = u + 1; v < nodes; ++v) {
      if (rng.NextDouble() > edge_prob) {
        continue;
      }
      IlpProblem::Edge edge;
      edge.u = u;
      edge.v = v;
      edge.cost.resize(problem.node_costs[static_cast<size_t>(u)].size());
      for (auto& row : edge.cost) {
        for (size_t j = 0; j < problem.node_costs[static_cast<size_t>(v)].size(); ++j) {
          double c = rng.NextDouble(0, 5);
          if (inf_prob > 0 && rng.NextDouble() < inf_prob) {
            c = kInfCost;
          }
          row.push_back(c);
        }
      }
      problem.edges.push_back(std::move(edge));
    }
  }
  return problem;
}

}  // namespace alpa

#endif  // TESTS_ILP_ORACLE_H_
