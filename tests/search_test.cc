// The search path (presolve, then the diffusion-bounded flat branch &
// bound on every residual core): exactness on small instances,
// determinism across reruns and compile thread counts, and the anytime
// abort contract end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/inter/inter_pass.h"
#include "src/intra/ilp_cache.h"
#include "src/models/gpt.h"
#include "src/solver/flat_bnb.h"
#include "src/solver/ilp_solver.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

// A dense instance from the flat branch & bound's budget tests. Its proof
// takes 776 nodes, so a 300-node budget aborts.
IlpProblem DenseProblem() {
  Rng rng(45);
  return RandomProblem(rng, 14, 5, 0.8);
}

TEST(Search, MatchesBruteForceOnSmallRandomInstances) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const IlpProblem problem = RandomProblem(rng, 8, 3, 0.5);
    ClearIlpCoreMemo();
    const IlpSolution solution = IlpSolver().Solve(problem);
    ASSERT_TRUE(solution.optimal) << "seed " << seed;
    EXPECT_DOUBLE_EQ(solution.objective, BruteForce(problem)) << "seed " << seed;
    EXPECT_DOUBLE_EQ(solution.lower_bound, solution.objective) << "seed " << seed;
  }
}

TEST(Search, DeterministicAcrossReruns) {
  const IlpProblem problem = DenseProblem();
  const FlatSearchResult first = SolveCore(problem, 300);
  ASSERT_TRUE(first.feasible);
  ASSERT_TRUE(first.aborted);
  EXPECT_LT(first.lower_bound, first.objective);

  const FlatSearchResult rerun = SolveCore(problem, 300);
  EXPECT_EQ(rerun.choice, first.choice);
  EXPECT_EQ(rerun.objective, first.objective);
  EXPECT_EQ(rerun.lower_bound, first.lower_bound);
  EXPECT_EQ(rerun.explored, first.explored);
}

// End-to-end anytime contract through IlpSolver: a starved search returns
// the best incumbent plus a real, bracketed optimality gap.
TEST(Search, AbortReturnsIncumbentAndGap) {
  const IlpProblem problem = DenseProblem();

  IlpSolverOptions unbounded;
  unbounded.max_search_nodes = 100'000'000;
  ClearIlpCoreMemo();
  const IlpSolution full = IlpSolver(unbounded).Solve(problem);
  ASSERT_TRUE(full.optimal);

  IlpSolverOptions starved;
  starved.max_search_nodes = full.nodes_explored / 8;
  ClearIlpCoreMemo();
  const IlpSolution anytime = IlpSolver(starved).Solve(problem);
  ASSERT_TRUE(anytime.feasible);
  if (anytime.optimal) {
    // A bound that meets the incumbent promotes the starved search to
    // optimal; then the gap must be closed exactly.
    EXPECT_EQ(anytime.method, "search");
    EXPECT_DOUBLE_EQ(anytime.objective, full.objective);
    EXPECT_DOUBLE_EQ(anytime.optimality_gap(), 0.0);
  } else {
    EXPECT_EQ(anytime.method, "search(budget)");
    EXPECT_LE(anytime.lower_bound, full.objective);
    EXPECT_GE(anytime.objective, full.objective);
    EXPECT_GE(anytime.optimality_gap(), 0.0);
    EXPECT_LT(anytime.optimality_gap(), 1.0);
  }
}

// Compile-level determinism: 1 and 4 compile threads must produce
// PlanEquals-identical plans, both under a reduced search budget and under
// a budget small enough that searches abort.
TEST(Search, CompiledPlanIdenticalAcrossThreadCounts) {
  GptConfig config;
  config.hidden = 128;
  config.num_layers = 2;
  config.num_heads = 4;
  config.microbatch = 2;
  config.seq_len = 64;
  config.vocab = 512;
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  InterOpOptions options;
  options.num_microbatches = 4;
  options.target_layers = 2;

  IlpSolverOptions reduced;
  reduced.max_search_nodes = 5'000;
  IlpSolverOptions aborting;
  aborting.max_search_nodes = 100;
  for (const IlpSolverOptions& solver : {reduced, aborting}) {
    const bool expect_aborts = solver.max_search_nodes == aborting.max_search_nodes;
    options.profiler.intra.solver = solver;
    CompiledPipeline plans[2];
    for (int run = 0; run < 2; ++run) {
      IlpMemoCache::Global().Clear();
      const int64_t aborted = Metrics::Value("ilp/outcome/aborted");
      Graph graph = BuildGpt(config);
      options.compile_threads = run == 0 ? 1 : 4;
      plans[run] = RunInterOpPass(graph, cluster, options);
      ASSERT_TRUE(plans[run].feasible) << options.compile_threads << " threads";
      if (expect_aborts) {
        EXPECT_GT(Metrics::Value("ilp/outcome/aborted") - aborted, 0)
            << options.compile_threads << " threads";
      }
    }
    EXPECT_TRUE(PlanEquals(plans[0], plans[1])) << "aborting budget: " << expect_aborts;
    EXPECT_EQ(plans[0].dp_latency, plans[1].dp_latency) << "aborting budget: " << expect_aborts;
  }
}

}  // namespace
}  // namespace alpa
