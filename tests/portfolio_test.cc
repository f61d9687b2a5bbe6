// The solver portfolio (GRASP + simulated annealing racing the flat branch
// & bound): exactness on small instances, determinism for any thread count
// and across reruns, and the anytime abort contract end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/inter/inter_pass.h"
#include "src/intra/ilp_cache.h"
#include "src/models/gpt.h"
#include "src/solver/anneal.h"
#include "src/solver/flat_bnb.h"
#include "src/solver/flat_core.h"
#include "src/solver/grasp.h"
#include "src/solver/ilp_solver.h"
#include "src/solver/portfolio.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

// The abort-prone instance from the flat branch & bound's budget
// redistribution tests: dense enough that tight budgets genuinely bind.
IlpProblem AbortProneProblem() {
  Rng rng(45);
  return RandomProblem(rng, 14, 5, 0.8);
}

TEST(Grasp, ConstructionsAreFeasibleAndDeterministic) {
  const IlpProblem problem = AbortProneProblem();
  const FlatCore f = BuildFlatCore(problem);
  GraspOptions options;
  options.restarts = 8;
  const GraspResult serial = RunGrasp(f, options);
  ASSERT_TRUE(serial.feasible);
  ASSERT_EQ(static_cast<int>(serial.choice.size()), f.n);
  EXPECT_EQ(serial.restarts_run, 8);
  EXPECT_GT(serial.evaluations, 0);
  // ICM-polished: no single-node move may improve the construction.
  EXPECT_EQ(FlatIcm(f, serial.choice), serial.choice);

  ThreadPool pool(4);
  GraspOptions pooled = options;
  pooled.pool = &pool;
  const GraspResult parallel = RunGrasp(f, pooled);
  EXPECT_EQ(parallel.choice, serial.choice);
  EXPECT_EQ(parallel.objective, serial.objective);
}

TEST(Anneal, NeverLosesToItsStartAndIsDeterministic) {
  const IlpProblem problem = AbortProneProblem();
  const FlatCore f = BuildFlatCore(problem);
  const std::vector<int> start = FlatIcm(f, ArgminStart(f));
  const double start_value = FlatValue(f, start);

  AnnealOptions options;
  options.chains = 4;
  options.steps_per_chain = 5'000;
  const AnnealResult serial = RunAnneal(f, start, options);
  ASSERT_TRUE(serial.feasible);
  EXPECT_LE(serial.objective, start_value);
  EXPECT_EQ(serial.steps, 4 * 5'000);
  // The recorded objective must be the exact value of the recorded
  // assignment (no incremental-delta drift).
  EXPECT_EQ(FlatValue(f, serial.choice), serial.objective);

  ThreadPool pool(4);
  AnnealOptions pooled = options;
  pooled.pool = &pool;
  const AnnealResult parallel = RunAnneal(f, start, pooled);
  EXPECT_EQ(parallel.choice, serial.choice);
  EXPECT_EQ(parallel.objective, serial.objective);
}

TEST(Portfolio, MatchesBruteForceOnSmallRandomInstances) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const IlpProblem problem = RandomProblem(rng, 8, 3, 0.5);
    IlpSolverOptions options;
    options.max_elimination_table = 0;  // Force the search path.
    options.use_core_memo = false;
    const IlpSolution solution = IlpSolver(options).Solve(problem);
    ASSERT_TRUE(solution.optimal) << "seed " << seed;
    EXPECT_DOUBLE_EQ(solution.objective, BruteForce(problem)) << "seed " << seed;
    EXPECT_DOUBLE_EQ(solution.lower_bound, solution.objective) << "seed " << seed;
  }
}

TEST(Portfolio, DeterministicAcrossThreadCountsAndReruns) {
  const IlpProblem problem = AbortProneProblem();
  PortfolioOptions options;
  options.budget = 20'000;  // Abort-prone: the full search needs more.
  const PortfolioResult serial = SolvePortfolio(problem, options);
  ASSERT_TRUE(serial.feasible);

  const PortfolioResult rerun = SolvePortfolio(problem, options);
  EXPECT_EQ(rerun.choice, serial.choice);
  EXPECT_EQ(rerun.objective, serial.objective);
  EXPECT_EQ(rerun.lower_bound, serial.lower_bound);
  EXPECT_EQ(rerun.explored, serial.explored);

  for (const int threads : {2, 4}) {
    ThreadPool pool(threads);
    PortfolioOptions pooled = options;
    pooled.pool = &pool;
    const PortfolioResult parallel = SolvePortfolio(problem, pooled);
    EXPECT_EQ(parallel.choice, serial.choice) << threads << " threads";
    EXPECT_EQ(parallel.objective, serial.objective) << threads << " threads";
    EXPECT_EQ(parallel.lower_bound, serial.lower_bound) << threads << " threads";
    EXPECT_EQ(parallel.explored, serial.explored) << threads << " threads";
    EXPECT_EQ(parallel.aborted, serial.aborted) << threads << " threads";
  }
}

// End-to-end anytime contract through IlpSolver: a starved portfolio solve
// returns the best incumbent plus a real, bracketed optimality gap.
TEST(Portfolio, AbortReturnsIncumbentAndGap) {
  const IlpProblem problem = AbortProneProblem();

  IlpSolverOptions unbounded;
  unbounded.max_elimination_table = 0;
  unbounded.use_core_memo = false;
  unbounded.max_search_nodes = 100'000'000;
  const IlpSolution full = IlpSolver(unbounded).Solve(problem);
  ASSERT_TRUE(full.optimal);

  IlpSolverOptions starved;
  starved.max_elimination_table = 0;
  starved.use_core_memo = false;
  starved.max_search_nodes = full.nodes_explored / 8;
  const IlpSolution anytime = IlpSolver(starved).Solve(problem);
  ASSERT_TRUE(anytime.feasible);
  if (anytime.optimal) {
    // The metaheuristic bound can let the starved search finish outright;
    // then the gap must be closed exactly.
    EXPECT_EQ(anytime.method, "portfolio");
    EXPECT_DOUBLE_EQ(anytime.objective, full.objective);
    EXPECT_DOUBLE_EQ(anytime.optimality_gap(), 0.0);
  } else {
    EXPECT_EQ(anytime.method, "portfolio(budget)");
    EXPECT_LE(anytime.lower_bound, full.objective);
    EXPECT_GE(anytime.objective, full.objective);
    EXPECT_GE(anytime.optimality_gap(), 0.0);
    EXPECT_LT(anytime.optimality_gap(), 1.0);
  }
}

// Compile-level determinism with a starved budget, so the metaheuristic
// rounds genuinely run: 1 and 4 compile threads must produce
// PlanEquals-identical plans.
TEST(Portfolio, CompiledPlanIdenticalAcrossThreadCounts) {
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
