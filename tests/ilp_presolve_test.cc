#include "src/solver/ilp_presolve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/solver/ilp_solver.h"
#include "src/support/rng.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

// End-to-end exactness harness: presolve, brute-force the residual core,
// reconstruct, and compare against brute force on the original problem.
void ExpectPresolveExact(const IlpProblem& problem) {
  const PresolvedProblem pre = Presolve(problem);
  ASSERT_FALSE(pre.infeasible);
  std::vector<int> core_choice(static_cast<size_t>(pre.core.num_nodes()), 0);
  if (pre.core.num_nodes() > 0) {
    BruteForce(pre.core, &core_choice);
  }
  const std::vector<int> full = pre.Reconstruct(core_choice);
  EXPECT_NEAR(problem.Evaluate(full), BruteForce(problem), 1e-9);
}

TEST(IlpPresolve, ParallelEdgesMergedByHashMap) {
  IlpProblem problem;
  problem.node_costs = {{0.0, 0.0}, {0.0, 0.0}};
  problem.edges.push_back(IlpProblem::Edge{0, 1, {{1.0, 0.0}, {0.0, 1.0}}});
  // Reversed orientation: must be transposed into the canonical matrix.
  problem.edges.push_back(IlpProblem::Edge{1, 0, {{0.0, 3.0}, {3.0, 0.0}}});
  const PresolvedProblem pre = Presolve(problem);
  EXPECT_EQ(pre.stats.parallel_edges_merged, 1);
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, ManyParallelEdgesStillOneMatrixPerPair) {
  Rng rng(17);
  IlpProblem problem = RandomNodes(rng, 3, 3);
  for (int copy = 0; copy < 3; ++copy) {
    for (int u = 0; u < 3; ++u) {
      for (int v = u + 1; v < 3; ++v) {
        // Alternate orientation per copy to exercise the transpose path.
        problem.edges.push_back(copy % 2 == 0 ? RandomEdge(rng, problem, u, v)
                                              : RandomEdge(rng, problem, v, u));
      }
    }
  }
  const PresolvedProblem pre = Presolve(problem);
  EXPECT_EQ(pre.stats.parallel_edges_merged, 6);  // 9 raw edges, 3 pairs.
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, DominatedChoiceEliminated) {
  // K4 (nothing peels: every degree is 3), node 0 has a choice whose best
  // case (100) cannot beat choice 0's worst case (0 + 5 + 5 + 5).
  IlpProblem problem;
  problem.node_costs = {{0.0, 100.0}, {1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0}};
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) {
      IlpProblem::Edge edge;
      edge.u = u;
      edge.v = v;
      edge.cost = {{5.0, 0.0}, {0.0, 5.0}};
      problem.edges.push_back(edge);
    }
  }
  const PresolvedProblem pre = Presolve(problem);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_GE(pre.stats.choices_eliminated, 1);
  ASSERT_EQ(pre.kept[0].size(), 1u);
  EXPECT_EQ(pre.kept[0][0], 0);
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, DominanceTieKeepsLowerIndex) {
  // Node 0's choices 0 and 1 are exactly identical (same unary, same flat
  // edge rows): the tie rule must keep index 0, matching first-wins argmin.
  // K4 so degree-2 series reduction cannot preempt the dominance pass.
  IlpProblem problem;
  problem.node_costs = {{2.0, 2.0, 9.0}, {1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0}};
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) {
      IlpProblem::Edge edge;
      edge.u = u;
      edge.v = v;
      if (u == 0) {
        // Flat rows so worst(0) == best(1): a pure tie between 0 and 1.
        edge.cost = {{1.0, 1.0}, {1.0, 1.0}, {0.0, 0.0}};
      } else {
        edge.cost = {{5.0, 0.0}, {0.0, 5.0}};
      }
      problem.edges.push_back(edge);
    }
  }
  const PresolvedProblem pre = Presolve(problem);
  ASSERT_FALSE(pre.infeasible);
  ASSERT_FALSE(pre.kept[0].empty());
  EXPECT_EQ(pre.kept[0][0], 0);
  // Index 1 is identical to 0 and must be the dropped one.
  for (int kept : pre.kept[0]) {
    EXPECT_NE(kept, 1);
  }
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, ChainFoldsAwayCompletely) {
  Rng rng(23);
  IlpProblem problem = RandomNodes(rng, 8, 4);
  for (int v = 0; v + 1 < 8; ++v) {
    problem.edges.push_back(RandomEdge(rng, problem, v, v + 1));
  }
  const PresolvedProblem pre = Presolve(problem);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.core.num_nodes(), 0);
  EXPECT_EQ(pre.stats.nodes_folded, 8);
  EXPECT_EQ(pre.stats.edges_folded, 7);
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, RandomTreesFoldAway) {
  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(7));
    IlpProblem problem = RandomNodes(rng, nodes, 4);
    for (int v = 1; v < nodes; ++v) {
      const int u = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(v)));
      problem.edges.push_back(RandomEdge(rng, problem, u, v));
    }
    const PresolvedProblem pre = Presolve(problem);
    ASSERT_FALSE(pre.infeasible) << trial;
    EXPECT_EQ(pre.core.num_nodes(), 0) << trial;
    ExpectPresolveExact(problem);
  }
}

TEST(IlpPresolve, CycleFoldsAwayBySeriesReduction) {
  // A 4-cycle with balanced costs: nothing dominates and nothing peels by
  // degree 0/1, but series reduction contracts the ring node by node until
  // nothing is left.
  IlpProblem problem;
  problem.node_costs = {{0.0, 1.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}};
  const int ring[4] = {0, 1, 2, 3};
  for (int k = 0; k < 4; ++k) {
    IlpProblem::Edge edge;
    edge.u = ring[k];
    edge.v = ring[(k + 1) % 4];
    if (edge.u > edge.v) std::swap(edge.u, edge.v);
    edge.cost = {{5.0, 0.0}, {0.0, 5.0}};
    problem.edges.push_back(edge);
  }
  const PresolvedProblem pre = Presolve(problem);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.core.num_nodes(), 0);
  EXPECT_EQ(pre.stats.nodes_folded, 4);
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, PendantAndTriangleFoldAwayCompletely) {
  // Triangle plus a pendant leaf: the leaf folds by degree 1, then series
  // reduction collapses the triangle.
  Rng rng(31);
  IlpProblem problem = RandomNodes(rng, 4, 3);
  problem.edges.push_back(RandomEdge(rng, problem, 0, 1));
  problem.edges.push_back(RandomEdge(rng, problem, 1, 2));
  problem.edges.push_back(RandomEdge(rng, problem, 0, 2));
  problem.edges.push_back(RandomEdge(rng, problem, 0, 3));  // Pendant.
  const PresolvedProblem pre = Presolve(problem);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.core.num_nodes(), 0);
  EXPECT_EQ(pre.stats.nodes_folded, 4);
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, CliqueLeavesResidualCore) {
  // K4 is treewidth 3: every node has degree 3, so series reduction cannot
  // fire and the core survives for branch & bound.
  IlpProblem problem;
  problem.node_costs = {{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}};
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) {
      IlpProblem::Edge edge;
      edge.u = u;
      edge.v = v;
      edge.cost = {{5.0, 0.0}, {0.0, 5.0}};
      problem.edges.push_back(edge);
    }
  }
  const PresolvedProblem pre = Presolve(problem);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.core.num_nodes(), 4);
  EXPECT_EQ(pre.core.edges.size(), 6u);
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, LadderFoldsAwayBySeriesReduction) {
  // A 2xN ladder (treewidth 2) with random costs: series reduction plus
  // leaf peeling must dissolve it entirely, and reconstruction must be
  // exact (brute-force comparison inside the harness).
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const int rungs = 3 + static_cast<int>(rng.NextBounded(3));
    IlpProblem problem = RandomNodes(rng, 2 * rungs, 3);
    for (int r = 0; r < rungs; ++r) {
      problem.edges.push_back(RandomEdge(rng, problem, 2 * r, 2 * r + 1));
      if (r + 1 < rungs) {
        problem.edges.push_back(RandomEdge(rng, problem, 2 * r, 2 * r + 2));
        problem.edges.push_back(RandomEdge(rng, problem, 2 * r + 1, 2 * r + 3));
      }
    }
    const PresolvedProblem pre = Presolve(problem);
    ASSERT_FALSE(pre.infeasible) << trial;
    EXPECT_EQ(pre.core.num_nodes(), 0) << trial;
    ExpectPresolveExact(problem);
  }
}

TEST(IlpPresolve, SeriesFoldHandlesInfeasiblePairs) {
  // A 4-cycle where one edge forbids the (0, 0) combination: the folded
  // matrix must carry the infinity through and the reconstructed optimum
  // must avoid it.
  IlpProblem problem;
  problem.node_costs = {{0.0, 2.0}, {0.0, 2.0}, {0.0, 2.0}, {0.0, 2.0}};
  auto ring_edge = [&](int u, int v, double block) {
    IlpProblem::Edge edge;
    edge.u = u;
    edge.v = v;
    edge.cost = {{block, 1.0}, {1.0, 0.5}};
    problem.edges.push_back(edge);
  };
  ring_edge(0, 1, kInfCost);
  ring_edge(1, 2, 0.25);
  ring_edge(2, 3, 0.25);
  ring_edge(0, 3, 0.25);
  ExpectPresolveExact(problem);
}

TEST(IlpPresolve, InfeasibleLeafFoldDetected) {
  IlpProblem problem;
  problem.node_costs = {{0.0}, {0.0}};
  problem.edges.push_back(IlpProblem::Edge{0, 1, {{kInfCost}}});
  const PresolvedProblem pre = Presolve(problem);
  EXPECT_TRUE(pre.infeasible);
  const IlpSolution solution = IlpSolver().Solve(problem);
  EXPECT_FALSE(solution.feasible);
}

TEST(IlpPresolve, RandomGraphsReconstructExactly) {
  Rng rng(37);
  for (int trial = 0; trial < 60; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(7));
    IlpProblem problem = RandomNodes(rng, nodes, 4);
    for (int u = 0; u < nodes; ++u) {
      for (int v = u + 1; v < nodes; ++v) {
        if (rng.NextDouble() < 0.45) {
          problem.edges.push_back(RandomEdge(rng, problem, u, v));
        }
      }
    }
    ExpectPresolveExact(problem);
  }
}

TEST(IlpPresolve, FingerprintSeparatesProblems) {
  Rng rng(41);
  IlpProblem a = RandomNodes(rng, 5, 3);
  for (int v = 0; v + 1 < 5; ++v) {
    a.edges.push_back(RandomEdge(rng, a, v, v + 1));
  }
  IlpProblem b = a;
  EXPECT_EQ(IlpProblemFingerprint(a), IlpProblemFingerprint(b));
  b.edges[2].cost.at(0, 0) += 1e-9;
  EXPECT_NE(IlpProblemFingerprint(a), IlpProblemFingerprint(b));
  IlpProblem c = a;
  c.node_costs[3][0] = -c.node_costs[3][0];
  EXPECT_NE(IlpProblemFingerprint(a), IlpProblemFingerprint(c));
  // Two sign flips. Each flips bit 63 of its word, which a word-wise
  // xor-multiply hash carries unchanged to the top bit of the result, so a
  // pair of flips would cancel there.
  IlpProblem d = a;
  d.node_costs[1][0] = -d.node_costs[1][0];
  d.node_costs[3][0] = -d.node_costs[3][0];
  EXPECT_NE(IlpProblemFingerprint(a), IlpProblemFingerprint(d));
  IlpProblem d2 = a;
  d2.edges[0].cost.at(0, 0) = -d2.edges[0].cost.at(0, 0);
  d2.edges[3].cost.at(0, 0) = -d2.edges[3].cost.at(0, 0);
  EXPECT_NE(IlpProblemFingerprint(a), IlpProblemFingerprint(d2));
  // The same edges in another order.
  IlpProblem g = a;
  std::swap(g.edges[0], g.edges[2]);
  EXPECT_NE(IlpProblemFingerprint(a), IlpProblemFingerprint(g));

  // Cost vectors and matrices of every length from 1 to 9, so words land
  // on each of the hasher's four chains and every span ends at each tail
  // position: node v has v + 1 choices (plus a second one-choice node),
  // and node 0's edges are 1 x 1 through 1 x 9 matrices.
  IlpProblem h;
  for (int k = 1; k <= 9; ++k) {
    h.node_costs.emplace_back();
    for (int i = 0; i < k; ++i) h.node_costs.back().push_back(rng.NextDouble(0, 10));
  }
  h.node_costs.push_back({rng.NextDouble(0, 10)});
  h.edges.push_back(RandomEdge(rng, h, 0, 9));
  for (int v = 1; v < 9; ++v) h.edges.push_back(RandomEdge(rng, h, 0, v));
  const uint64_t base = IlpProblemFingerprint(h);
  EXPECT_EQ(IlpProblemFingerprint(IlpProblem(h)), base);
  IlpProblem m = h;
  std::vector<std::pair<double*, size_t>> cost_lists;  // By node, then edge.
  for (auto& costs : m.node_costs) cost_lists.push_back({costs.data(), costs.size()});
  for (auto& e : m.edges) cost_lists.push_back({e.cost.data(), e.cost.size()});
  for (const auto& [costs, n] : cost_lists) {
    for (size_t k = 0; k < n; ++k) {
      const double original = costs[k];
      for (int bit = 0; bit < 64; ++bit) {
        uint64_t word = 0;
        std::memcpy(&word, &original, sizeof(word));
        word ^= uint64_t{1} << bit;
        std::memcpy(&costs[k], &word, sizeof(word));
        EXPECT_NE(IlpProblemFingerprint(m), base) << "cost bit " << bit;
      }
      costs[k] = original;
      if (k + 1 < n && costs[k] != costs[k + 1]) {
        std::swap(costs[k], costs[k + 1]);
        EXPECT_NE(IlpProblemFingerprint(m), base) << "swapped costs " << k << ", " << k + 1;
        std::swap(costs[k], costs[k + 1]);
      }
    }
  }
  ASSERT_EQ(IlpProblemFingerprint(m), base);
  for (IlpProblem::Edge& e : m.edges) {
    for (int* end : {&e.u, &e.v}) {
      const int original = *end;
      *end = original == 9 ? 8 : original + 1;
      EXPECT_NE(IlpProblemFingerprint(m), base) << "endpoint " << original;
      *end = original;
    }
  }
  // A size: the boundary between two nodes' lists moves by one cost, the
  // flattened cost stream stays the same.
  for (size_t v = 1; v + 1 < m.node_costs.size(); ++v) {
    std::vector<double>& left = m.node_costs[v];
    std::vector<double>& right = m.node_costs[v + 1];
    right.insert(right.begin(), left.back());
    left.pop_back();
    EXPECT_NE(IlpProblemFingerprint(m), base) << "sizes of nodes " << v << ", " << v + 1;
    left.push_back(right.front());
    right.erase(right.begin());
  }
  EXPECT_EQ(IlpProblemFingerprint(m), base);
}

TEST(IlpPresolve, FingerprintSeparatesReshapedCosts) {
  Rng rng(43);
  IlpProblem a;
  for (int v = 0; v < 3; ++v) {
    a.node_costs.push_back({rng.NextDouble(0, 10), rng.NextDouble(0, 10), rng.NextDouble(0, 10)});
  }
  a.edges.push_back(RandomEdge(rng, a, 0, 1));
  a.edges.push_back(RandomEdge(rng, a, 1, 2));
  // Swapping an edge's endpoints (with its matrix transposed) keeps every
  // objective, but it is another problem layout: the hash must see it.
  IlpProblem swapped = a;
  IlpProblem::Edge& e = swapped.edges[0];
  std::swap(e.u, e.v);
  const CostMatrix cost = e.cost;
  for (int i = 0; i < cost.rows(); ++i) {
    for (int j = 0; j < cost.cols(); ++j) e.cost.at(j, i) = cost.at(i, j);
  }
  swapped.Validate();
  EXPECT_EQ(a.Evaluate({0, 1, 2}), swapped.Evaluate({0, 1, 2}));
  EXPECT_NE(IlpProblemFingerprint(a), IlpProblemFingerprint(swapped));

  // One choice moved from node 0 to node 1: the flattened cost list is the
  // same, only the per-node sizes delimit it differently.
  IlpProblem b;
  b.node_costs = {{1.0, 2.0, 3.0}, {4.0, 5.0}};
  IlpProblem moved;
  moved.node_costs = {{1.0, 2.0}, {3.0, 4.0, 5.0}};
  EXPECT_NE(IlpProblemFingerprint(b), IlpProblemFingerprint(moved));
}

}  // namespace
}  // namespace alpa
