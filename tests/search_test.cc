// The search path (presolve, then the diffusion-bounded flat branch &
// bound on cores elimination cannot take): exactness on small instances,
// determinism for any thread count and across reruns, and the anytime
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
#include "src/support/thread_pool.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

// A dense instance from the flat branch & bound's budget redistribution
// tests. Its proof takes 1,036 nodes, so a 1,000-node budget aborts.
IlpProblem DenseProblem() {
  Rng rng(45);
  return RandomProblem(rng, 14, 5, 0.8);
}

TEST(Search, MatchesBruteForceOnSmallRandomInstances) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const IlpProblem problem = RandomProblem(rng, 8, 3, 0.5);
    IlpSolverOptions options;
    options.max_elimination_table = 0;  // Force the search path.
    ClearIlpCoreMemo();
    const IlpSolution solution = IlpSolver(options).Solve(problem);
    ASSERT_TRUE(solution.optimal) << "seed " << seed;
    EXPECT_DOUBLE_EQ(solution.objective, BruteForce(problem)) << "seed " << seed;
    EXPECT_DOUBLE_EQ(solution.lower_bound, solution.objective) << "seed " << seed;
  }
}

TEST(Search, DeterministicAcrossThreadCountsAndReruns) {
  const IlpProblem problem = DenseProblem();
  FlatSearchOptions options;
  options.budget = 1'000;  // Aborts, so the redistribution rounds run.
  const FlatSearchResult serial = SolveCore(problem, options);
  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(serial.aborted);
  EXPECT_LT(serial.lower_bound, serial.objective);

  const FlatSearchResult rerun = SolveCore(problem, options);
  EXPECT_EQ(rerun.choice, serial.choice);
  EXPECT_EQ(rerun.objective, serial.objective);
  EXPECT_EQ(rerun.lower_bound, serial.lower_bound);
  EXPECT_EQ(rerun.explored, serial.explored);

  for (const int threads : {2, 4}) {
    ThreadPool pool(threads);
    FlatSearchOptions pooled = options;
    pooled.pool = &pool;
    const FlatSearchResult parallel = SolveCore(problem, pooled);
    EXPECT_EQ(parallel.choice, serial.choice) << threads << " threads";
    EXPECT_EQ(parallel.objective, serial.objective) << threads << " threads";
    EXPECT_EQ(parallel.lower_bound, serial.lower_bound) << threads << " threads";
    EXPECT_EQ(parallel.explored, serial.explored) << threads << " threads";
    EXPECT_EQ(parallel.aborted, serial.aborted) << threads << " threads";
  }
}

// End-to-end anytime contract through IlpSolver: a starved search returns
// the best incumbent plus a real, bracketed optimality gap.
TEST(Search, AbortReturnsIncumbentAndGap) {
  const IlpProblem problem = DenseProblem();

  IlpSolverOptions unbounded;
  unbounded.max_elimination_table = 0;
  unbounded.max_search_nodes = 100'000'000;
  ClearIlpCoreMemo();
  const IlpSolution full = IlpSolver(unbounded).Solve(problem);
  ASSERT_TRUE(full.optimal);

  IlpSolverOptions starved;
  starved.max_elimination_table = 0;
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

// Compile-level determinism under a reduced search budget: 1 and 4 compile
// threads must produce PlanEquals-identical plans.
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
  options.profiler.intra.solver.max_search_nodes = 5'000;

  IlpMemoCache::Global().Clear();
  Graph serial_graph = BuildGpt(config);
  options.compile_threads = 1;
  const CompiledPipeline serial = RunInterOpPass(serial_graph, cluster, options);

  IlpMemoCache::Global().Clear();
  Graph parallel_graph = BuildGpt(config);
  options.compile_threads = 4;
  const CompiledPipeline parallel = RunInterOpPass(parallel_graph, cluster, options);

  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(parallel.feasible);
  EXPECT_TRUE(PlanEquals(serial, parallel));
  EXPECT_EQ(serial.dp_latency, parallel.dp_latency);
}

}  // namespace
}  // namespace alpa
