// Randomized cross-check of the solver pipeline (presolve + the branch &
// bound search) against the brute-force oracle
// (tests/ilp_oracle.h). The oracle is exact on every instance, so every
// proven-optimal solve must match its objective to rounding — and with
// continuous random costs the optimum is unique, so the full choice
// vectors must be bit-identical too. The solver must additionally be
// invariant to its process-wide core memo.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/solver/ilp_solver.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

// Solves with an empty core memo, so no compared solve can be a memo hit.
IlpSolution SolveWith(const IlpProblem& problem) {
  ClearIlpCoreMemo();
  return IlpSolver().Solve(problem);
}

TEST(SolverCrossCheck, MatchesBruteForceOnRandomProblems) {
  Rng rng(1234);
  int solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(9));
    const double edge_prob = rng.NextDouble(0.1, 0.8);
    const double inf_prob = trial % 4 == 0 ? 0.1 : 0.0;
    const IlpProblem problem =
        RandomProblem(rng, nodes, 4, edge_prob, inf_prob);
    const IlpSolution solution = SolveWith(problem);
    const double brute = BruteForce(problem);
    ASSERT_TRUE(solution.optimal || !solution.feasible) << trial;
    EXPECT_EQ(solution.feasible, std::isfinite(brute)) << trial;
    if (solution.feasible) {
      EXPECT_NEAR(solution.objective, brute, 1e-9) << "trial " << trial;
      // The returned assignment must actually produce the objective.
      EXPECT_NEAR(solution.objective, problem.Evaluate(solution.choice), 1e-9) << trial;
      ++solved;
    }
  }
  EXPECT_GT(solved, 100);  // The suite must mostly exercise the feasible path.
}

TEST(SolverCrossCheck, MatchesBruteForceOnDenserGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const int nodes = 8 + static_cast<int>(rng.NextBounded(6));
    const IlpProblem problem = RandomProblem(rng, nodes, 3, 0.35, 0.0);
    const IlpSolution solution = SolveWith(problem);
    const double brute = BruteForce(problem);
    if (solution.optimal) {
      EXPECT_NEAR(solution.objective, brute, 1e-9) << "trial " << trial;
    } else {
      // Aborted searches still return valid assignments, never below the
      // optimum.
      EXPECT_NEAR(solution.objective, problem.Evaluate(solution.choice), 1e-9) << trial;
      EXPECT_GE(solution.objective, brute - 1e-9) << trial;
    }
  }
}

TEST(SolverCrossCheck, OptimalPlansAreBitIdentical) {
  // Continuous random costs make the optimum unique (ties have measure
  // zero), so whenever the solver proves optimality its full choice
  // vector — the plan at this layer — must equal the oracle's argmin
  // exactly, not just the objective. Budget-aborted incumbents are
  // excluded: they carry no optimality proof.
  Rng rng(4242);
  int compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(10));
    const double edge_prob = rng.NextDouble(0.1, 0.7);
    const IlpProblem problem = RandomProblem(rng, nodes, 4, edge_prob, 0.0);
    const IlpSolution solution = SolveWith(problem);
    std::vector<int> argmin;
    BruteForce(problem, &argmin);
    if (solution.optimal) {
      EXPECT_EQ(solution.choice, argmin) << "trial " << trial;
      ++compared;
    }
  }
  EXPECT_GT(compared, 150);  // Nearly every trial must reach optimality.
}

TEST(SolverCrossCheck, CoreMemoHitReturnsIdenticalSolution) {
  Rng rng(777);
  int memoized = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int nodes = 5 + static_cast<int>(rng.NextBounded(6));
    const IlpProblem problem = RandomProblem(rng, nodes, 4, 0.5, 0.0);
    const int64_t misses = Metrics::Value("ilp/core_memo/misses");
    const int64_t hits = Metrics::Value("ilp/core_memo/hits");
    const IlpSolution miss = SolveWith(problem);
    const int64_t core_lookups = Metrics::Value("ilp/core_memo/misses") - misses;
    EXPECT_EQ(Metrics::Value("ilp/core_memo/hits"), hits) << trial;
    const IlpSolution hit = IlpSolver().Solve(problem);
    // Every core the first solve missed on, the second solve hits.
    EXPECT_EQ(Metrics::Value("ilp/core_memo/hits") - hits, core_lookups) << trial;
    EXPECT_EQ(Metrics::Value("ilp/core_memo/misses") - misses, core_lookups) << trial;
    memoized += core_lookups > 0 ? 1 : 0;
    EXPECT_EQ(miss.choice, hit.choice) << trial;
    EXPECT_EQ(miss.objective, hit.objective) << trial;
    EXPECT_EQ(miss.nodes_explored, hit.nodes_explored) << trial;
    // The key covers the node budget: the same cores under another budget
    // miss again.
    IlpSolverOptions other_budget;
    other_budget.max_search_nodes += 1;
    const int64_t hits_before = Metrics::Value("ilp/core_memo/hits");
    const int64_t misses_before = Metrics::Value("ilp/core_memo/misses");
    const IlpSolution other = IlpSolver(other_budget).Solve(problem);
    EXPECT_EQ(Metrics::Value("ilp/core_memo/hits"), hits_before) << trial;
    EXPECT_EQ(Metrics::Value("ilp/core_memo/misses") - misses_before, core_lookups) << trial;
    EXPECT_EQ(other.objective, miss.objective) << trial;
  }
  EXPECT_GT(memoized, 0);  // Some trials must leave a core past presolve.
  ClearIlpCoreMemo();
}

TEST(SolverCrossCheck, StagedSolvesDisconnectedComponentsExactly) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    // Two independent triangles plus an isolated chain: component
    // splitting must solve each piece and stitch the assignment together.
    IlpProblem problem = RandomProblem(rng, 9, 3, 0.0, 0.0);
    auto add_edge = [&](int u, int v) {
      problem.edges.push_back(RandomEdge(rng, problem, u, v));
    };
    add_edge(0, 1);
    add_edge(1, 2);
    add_edge(0, 2);
    add_edge(3, 4);
    add_edge(4, 5);
    add_edge(3, 5);
    add_edge(6, 7);
    add_edge(7, 8);
    const IlpSolution solution = SolveWith(problem);
    ASSERT_TRUE(solution.optimal) << trial;
    EXPECT_NEAR(solution.objective, BruteForce(problem), 1e-9) << trial;
  }
}

}  // namespace
}  // namespace alpa
