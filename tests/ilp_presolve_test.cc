#include "src/solver/ilp_presolve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/solver/ilp_solver.h"
#include "src/support/rng.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

IlpProblem::Edge RandomEdge(Rng& rng, const IlpProblem& problem, int u, int v) {
  IlpProblem::Edge edge;
  edge.u = u;
  edge.v = v;
  edge.cost.resize(problem.node_costs[static_cast<size_t>(u)].size());
  for (auto& row : edge.cost) {
    for (size_t j = 0; j < problem.node_costs[static_cast<size_t>(v)].size(); ++j) {
      row.push_back(rng.NextDouble(0, 5));
    }
  }
  return edge;
}

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
  b.edges[2].cost[0][0] += 1e-9;
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
  d2.edges[0].cost[0][0] = -d2.edges[0].cost[0][0];
  d2.edges[3].cost[0][0] = -d2.edges[3].cost[0][0];
  EXPECT_NE(IlpProblemFingerprint(a), IlpProblemFingerprint(d2));
  // The same edges in another order.
  IlpProblem g = a;
  std::swap(g.edges[0], g.edges[2]);
  EXPECT_NE(IlpProblemFingerprint(a), IlpProblemFingerprint(g));
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
  const std::vector<std::vector<double>> cost = e.cost;
  for (size_t i = 0; i < cost.size(); ++i) {
    for (size_t j = 0; j < cost[i].size(); ++j) e.cost[j][i] = cost[i][j];
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
