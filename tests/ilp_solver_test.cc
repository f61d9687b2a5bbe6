#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/solver/flat_bnb.h"
#include "src/solver/ilp_solver.h"
#include "src/support/rng.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

TEST(IlpSolver, EmptyProblem) {
  IlpProblem problem;
  const IlpSolution solution = IlpSolver().Solve(problem);
  EXPECT_TRUE(solution.optimal);
  EXPECT_DOUBLE_EQ(solution.objective, 0.0);
}

TEST(IlpSolver, SingleNode) {
  IlpProblem problem;
  problem.node_costs = {{3.0, 1.0, 2.0}};
  const IlpSolution solution = IlpSolver().Solve(problem);
  EXPECT_TRUE(solution.optimal);
  EXPECT_EQ(solution.choice[0], 1);
  EXPECT_DOUBLE_EQ(solution.objective, 1.0);
}

TEST(IlpSolver, ChainUsesForestDp) {
  IlpProblem problem;
  problem.node_costs = {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}};
  for (int v = 0; v + 1 < 3; ++v) {
    IlpProblem::Edge edge;
    edge.u = v;
    edge.v = v + 1;
    // Strongly prefers matching choices.
    edge.cost = {{0.0, 10.0}, {10.0, 0.0}};
    problem.edges.push_back(edge);
  }
  const IlpSolution solution = IlpSolver().Solve(problem);
  EXPECT_EQ(solution.method, "dp-forest");
  EXPECT_TRUE(solution.optimal);
  EXPECT_DOUBLE_EQ(solution.objective, 0.0);
  EXPECT_EQ(solution.choice[0], solution.choice[1]);
  EXPECT_EQ(solution.choice[1], solution.choice[2]);
}

TEST(IlpSolver, CycleFoldsAwayInPresolve) {
  IlpProblem problem;
  problem.node_costs = {{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}};
  // Triangle with anti-ferromagnetic couplings (frustrated). Series
  // reduction collapses any cycle, so this solves without search.
  for (int u = 0; u < 3; ++u) {
    for (int v = u + 1; v < 3; ++v) {
      IlpProblem::Edge edge;
      edge.u = u;
      edge.v = v;
      edge.cost = {{5.0, 0.0}, {0.0, 5.0}};
      problem.edges.push_back(edge);
    }
  }
  const IlpSolution solution = IlpSolver().Solve(problem);
  EXPECT_EQ(solution.method, "dp-forest");
  EXPECT_TRUE(solution.optimal);
  EXPECT_DOUBLE_EQ(solution.objective, BruteForce(problem));
}

IlpProblem FrustratedClique(int n) {
  IlpProblem problem;
  problem.node_costs.assign(static_cast<size_t>(n), {0.0, 1.0});
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      IlpProblem::Edge edge;
      edge.u = u;
      edge.v = v;
      edge.cost = {{5.0, 0.0}, {0.0, 5.0}};
      problem.edges.push_back(edge);
    }
  }
  return problem;
}

TEST(IlpSolver, CliqueUsesBranchAndBound) {
  // K4 has treewidth 3: degree-2 series reduction cannot touch it, so the
  // residual core reaches the branch & bound.
  const IlpProblem problem = FrustratedClique(4);
  const IlpSolution solution = IlpSolver().Solve(problem);
  EXPECT_EQ(solution.method, "search");
  EXPECT_TRUE(solution.optimal);
  EXPECT_DOUBLE_EQ(solution.objective, BruteForce(problem));
}

TEST(IlpSolver, InfeasibleEdges) {
  IlpProblem problem;
  problem.node_costs = {{0.0}, {0.0}, {0.0}};
  for (int u = 0; u < 3; ++u) {
    for (int v = u + 1; v < 3; ++v) {
      IlpProblem::Edge edge;
      edge.u = u;
      edge.v = v;
      edge.cost = {{kInfCost}};
      problem.edges.push_back(edge);
    }
  }
  const IlpSolution solution = IlpSolver().Solve(problem);
  EXPECT_FALSE(solution.feasible);
}

TEST(IlpSolver, ParallelEdgesAreSummed) {
  IlpProblem problem;
  problem.node_costs = {{0.0, 0.0}, {0.0, 0.0}};
  IlpProblem::Edge e1{0, 1, {{1.0, 0.0}, {0.0, 1.0}}};
  IlpProblem::Edge e2{1, 0, {{0.0, 3.0}, {3.0, 0.0}}};  // Reversed orientation.
  problem.edges = {e1, e2};
  const IlpSolution solution = IlpSolver().Solve(problem);
  // Diagonal costs 1+0 / mixed 0+3: best is matching (cost 1).
  EXPECT_DOUBLE_EQ(solution.objective, 1.0);
  EXPECT_DOUBLE_EQ(solution.objective, BruteForce(problem));
}

TEST(IlpSolver, MatchesBruteForceOnRandomTrees) {
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(6));
    IlpProblem problem = RandomProblem(rng, nodes, 4, 0.0);
    // Build a random spanning tree.
    for (int v = 1; v < nodes; ++v) {
      const int u = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(v)));
      problem.edges.push_back(RandomEdge(rng, problem, u, v));
    }
    const IlpSolution solution = IlpSolver().Solve(problem);
    EXPECT_EQ(solution.method, "dp-forest") << trial;
    EXPECT_NEAR(solution.objective, BruteForce(problem), 1e-9) << "trial " << trial;
  }
}

TEST(IlpSolver, MatchesBruteForceOnRandomGraphs) {
  Rng rng(42);
  for (int trial = 0; trial < 80; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(7));
    const IlpProblem problem = RandomProblem(rng, nodes, 4, 0.5);
    const IlpSolution solution = IlpSolver().Solve(problem);
    ASSERT_TRUE(solution.feasible) << trial;
    EXPECT_TRUE(solution.optimal) << trial;
    EXPECT_NEAR(solution.objective, BruteForce(problem), 1e-9) << "trial " << trial;
  }
}

TEST(IlpSolver, MatchesBruteForceWithInfeasibleEntries) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(6));
    const IlpProblem problem = RandomProblem(rng, nodes, 3, 0.6, /*inf_prob=*/0.1);
    const IlpSolution solution = IlpSolver().Solve(problem);
    const double brute = BruteForce(problem);
    if (std::isinf(brute)) {
      EXPECT_FALSE(solution.feasible) << trial;
    } else {
      ASSERT_TRUE(solution.feasible) << trial;
      EXPECT_NEAR(solution.objective, brute, 1e-9) << "trial " << trial;
    }
  }
}

TEST(IlpSolver, BudgetFallbackStaysFeasible) {
  Rng rng(5);
  IlpSolverOptions options;
  options.max_search_nodes = 20;   // Force the fallback path.
  // Dense enough that a treewidth >= 3 core survives series reduction.
  const IlpProblem problem = RandomProblem(rng, 12, 4, 0.9);
  const IlpSolution solution = IlpSolver(options).Solve(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_FALSE(solution.optimal);
  // Not necessarily optimal, but must be a valid assignment.
  EXPECT_NEAR(solution.objective, problem.Evaluate(solution.choice), 1e-12);
}

TEST(IlpSolver, LargeChainIsFast) {
  // 2000-node chain solved exactly by the forest DP.
  Rng rng(3);
  IlpProblem problem = RandomProblem(rng, 2000, 8, 0.0);
  for (int v = 0; v + 1 < 2000; ++v) {
    problem.edges.push_back(RandomEdge(rng, problem, v, v + 1));
  }
  const IlpSolution solution = IlpSolver().Solve(problem);
  EXPECT_TRUE(solution.optimal);
  EXPECT_EQ(solution.method, "dp-forest");
}

// The budget caps the expanded nodes: `explored` never exceeds it, the
// search aborts exactly when the budget is below the unbounded search's
// need, and a budget that covers the need returns the unbounded result.
TEST(FlatBnb, BudgetIsAHardCap) {
  Rng rng(45);
  const IlpProblem problem = RandomProblem(rng, 14, 5, 0.8);

  const FlatSearchResult full = SolveCore(problem, 100'000'000);
  ASSERT_FALSE(full.aborted);
  const int64_t need = full.explored;
  ASSERT_GT(need, 100);  // Non-trivial search: the small budgets abort.

  for (const int64_t budget : {int64_t{1}, int64_t{10}, int64_t{100}, need - 1, need,
                               int64_t{1'000}}) {
    const FlatSearchResult result = SolveCore(problem, budget);
    EXPECT_LE(result.explored, budget) << "budget " << budget;
    EXPECT_EQ(result.aborted, budget < need) << "budget " << budget;
    if (budget >= need) {
      EXPECT_EQ(result.objective, full.objective) << "budget " << budget;
      EXPECT_EQ(result.choice, full.choice) << "budget " << budget;
    }
  }
}

// The anytime contract at the flat level: an aborted search still reports
// a feasible incumbent plus a valid lower bound on the optimum.
TEST(FlatBnb, AbortReportsIncumbentAndLowerBound) {
  Rng rng(45);
  const IlpProblem problem = RandomProblem(rng, 14, 5, 0.8);
  const FlatSearchResult full = SolveCore(problem, 100'000'000);

  const FlatSearchResult anytime = SolveCore(problem, full.explored / 4);
  ASSERT_TRUE(anytime.aborted);
  ASSERT_TRUE(anytime.feasible);
  // The bound brackets the (known) optimum from below, the incumbent from
  // above, and the gap is real.
  EXPECT_LE(anytime.lower_bound, full.objective);
  EXPECT_GE(anytime.objective, full.objective);
  EXPECT_LT(anytime.lower_bound, anytime.objective);

  // A completed search closes the gap exactly.
  EXPECT_EQ(full.lower_bound, full.objective);
}

// An aborted search's reported objective must be the cost its stored
// choice actually achieves, and its bound must bracket the optimum.
TEST(FlatBnb, ObjectiveMatchesChoiceOnAbort) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const IlpProblem problem = RandomProblem(rng, 14, 5, 0.8);
    const FlatSearchResult full = SolveCore(problem, 100'000'000);
    ASSERT_TRUE(full.feasible) << "seed " << seed;
    // Budgets below the full search need cut the search off at different
    // depths of its tree.
    for (const int denom : {2, 3, 4, 6, 8}) {
      const FlatSearchResult result = SolveCore(problem, full.explored / denom);
      ASSERT_TRUE(result.feasible) << "seed " << seed << " denom " << denom;
      EXPECT_NEAR(result.objective, problem.Evaluate(result.choice), 1e-9)
          << "seed " << seed << " denom " << denom;
      EXPECT_LE(result.lower_bound, full.objective + 1e-9);
      EXPECT_LE(result.lower_bound, result.objective + 1e-9);
      EXPECT_GE(result.objective, full.objective - 1e-9);
    }
  }
}

// The anytime contract through IlpSolver: a budget-starved staged solve
// returns feasible + !optimal with lower_bound <= optimum <= objective
// and a positive relative gap.
TEST(IlpSolver, AnytimeLowerBoundOnAbort) {
  // Seed picked so the three-node budget genuinely aborts: the diffusion
  // bound built into the flat core proves many random instances outright.
  Rng rng(2);
  const IlpProblem problem = RandomProblem(rng, 10, 3, 0.9);
  const double brute = BruteForce(problem);

  IlpSolverOptions options;
  options.max_search_nodes = 3;  // Tighter than any proof tree for this core.
  ClearIlpCoreMemo();
  const IlpSolution solution = IlpSolver(options).Solve(problem);
  ASSERT_TRUE(solution.feasible);
  ASSERT_FALSE(solution.optimal);
  EXPECT_LE(solution.lower_bound, brute + 1e-9);
  EXPECT_GE(solution.objective, brute - 1e-9);
  EXPECT_LE(solution.lower_bound, solution.objective);
  EXPECT_GT(solution.optimality_gap(), 0.0);

  // An optimal solve has no gap.
  ClearIlpCoreMemo();
  const IlpSolution optimal = IlpSolver().Solve(problem);
  ASSERT_TRUE(optimal.optimal);
  EXPECT_NEAR(optimal.lower_bound, optimal.objective, 1e-12);
  EXPECT_EQ(optimal.optimality_gap(), 0.0);
}

// The relative gap is only meaningful for positive objectives: zero-cost
// plateaus and reward-shifted instances must report 0, never divide.
TEST(IlpSolution, OptimalityGapGuardsZeroAndNegativeObjectives) {
  IlpSolution aborted;
  aborted.feasible = true;
  aborted.optimal = false;

  aborted.objective = 0.0;  // All-zero communication plateau.
  aborted.lower_bound = -1.0;
  EXPECT_EQ(aborted.optimality_gap(), 0.0);

  aborted.objective = -2.0;  // Reward-shifted objective.
  aborted.lower_bound = -5.0;
  EXPECT_EQ(aborted.optimality_gap(), 0.0);

  // A lower bound above the objective (rounding slack) also clamps to 0.
  aborted.objective = 4.0;
  aborted.lower_bound = 4.0 + 1e-12;
  EXPECT_EQ(aborted.optimality_gap(), 0.0);

  // Ordinary positive objectives keep the usual ratio.
  aborted.objective = 10.0;
  aborted.lower_bound = 7.5;
  EXPECT_DOUBLE_EQ(aborted.optimality_gap(), 0.25);

  // Proven-optimal and infeasible solutions have no gap regardless.
  IlpSolution optimal;
  optimal.feasible = true;
  optimal.optimal = true;
  optimal.objective = 10.0;
  optimal.lower_bound = 0.0;
  EXPECT_EQ(optimal.optimality_gap(), 0.0);
  IlpSolution infeasible;
  EXPECT_EQ(infeasible.optimality_gap(), 0.0);
}

}  // namespace
}  // namespace alpa
