#include "src/solver/elimination.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/support/rng.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

TEST(Elimination, EmptyProblem) {
  IlpProblem problem;
  const auto choice = SolveByElimination(problem, 1 << 20);
  ASSERT_TRUE(choice.has_value());
  EXPECT_TRUE(choice->empty());
}

TEST(Elimination, SingleNode) {
  IlpProblem problem;
  problem.node_costs = {{3.0, 1.0, 2.0}};
  const auto choice = SolveByElimination(problem, 1 << 20);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ((*choice)[0], 1);
}

TEST(Elimination, ZeroCapDisables) {
  IlpProblem problem;
  problem.node_costs = {{3.0, 1.0}};
  EXPECT_FALSE(SolveByElimination(problem, 0).has_value());
}

TEST(Elimination, CapBailsOutOnWideClique) {
  // K6 with 4 choices per node: eliminating any node needs a table over the
  // 5 remaining neighbors, 4^5 = 1024 cells. A cap below that must refuse.
  Rng rng(13);
  IlpProblem problem = RandomProblem(rng, 6, 1, 1.1);
  for (auto& costs : problem.node_costs) {
    costs = {0.0, 1.0, 2.0, 3.0};
  }
  for (auto& edge : problem.edges) {
    edge.cost.assign(4, std::vector<double>(4, 0.0));
    for (auto& row : edge.cost) {
      for (double& c : row) {
        c = rng.NextDouble(0, 5);
      }
    }
  }
  EXPECT_FALSE(SolveByElimination(problem, 1000).has_value());
  const auto choice = SolveByElimination(problem, 1024);
  ASSERT_TRUE(choice.has_value());
  EXPECT_NEAR(problem.Evaluate(*choice), BruteForce(problem), 1e-9);
}

TEST(Elimination, MatchesBruteForceOnRandomGraphs) {
  Rng rng(29);
  for (int trial = 0; trial < 120; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(7));
    const IlpProblem problem = RandomProblem(rng, nodes, 4, 0.6);
    const auto choice = SolveByElimination(problem, 1 << 20);
    ASSERT_TRUE(choice.has_value()) << trial;
    EXPECT_NEAR(problem.Evaluate(*choice), BruteForce(problem), 1e-9)
        << "trial " << trial;
  }
}

TEST(Elimination, MatchesBruteForceWithInfeasibleEntries) {
  Rng rng(31);
  for (int trial = 0; trial < 80; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(6));
    const IlpProblem problem = RandomProblem(rng, nodes, 3, 0.7, /*inf_prob=*/0.1);
    const auto choice = SolveByElimination(problem, 1 << 20);
    ASSERT_TRUE(choice.has_value()) << trial;
    const double brute = BruteForce(problem);
    const double value = problem.Evaluate(*choice);
    if (std::isinf(brute)) {
      EXPECT_TRUE(std::isinf(value)) << trial;
    } else {
      EXPECT_NEAR(value, brute, 1e-9) << "trial " << trial;
    }
  }
}

TEST(Elimination, Deterministic) {
  Rng rng(37);
  const IlpProblem problem = RandomProblem(rng, 9, 4, 0.5);
  const auto a = SolveByElimination(problem, 1 << 20);
  const auto b = SolveByElimination(problem, 1 << 20);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

}  // namespace
}  // namespace alpa
