// Microbenchmarks of the compiler's solvers (google-benchmark): the ILP
// engine (forest DP fast path vs branch & bound), the stage-slicing DP,
// operator clustering, and a full intra-op pass on one transformer layer.
#include <benchmark/benchmark.h>

#include "src/inter/stage_extraction.h"
#include "src/intra/intra_pass.h"
#include "src/mesh/submesh.h"
#include "src/models/gpt.h"
#include "src/solver/ilp_solver.h"
#include "src/solver/operator_clustering.h"
#include "src/solver/stage_dp.h"
#include "src/support/rng.h"

namespace alpa {
namespace {

// A choices x choices edge u -> v with costs in [0, 5), drawn row by row.
IlpProblem::Edge RandomEdge(Rng& rng, int u, int v, int choices) {
  IlpProblem::Edge edge{u, v, CostMatrix(choices, choices)};
  for (size_t c = 0; c < edge.cost.size(); ++c) {
    edge.cost.data()[c] = rng.NextDouble(0, 5);
  }
  return edge;
}

IlpProblem ChainProblem(int nodes, int choices, uint64_t seed) {
  Rng rng(seed);
  IlpProblem problem;
  problem.node_costs.resize(static_cast<size_t>(nodes));
  for (auto& costs : problem.node_costs) {
    for (int i = 0; i < choices; ++i) {
      costs.push_back(rng.NextDouble(0, 10));
    }
  }
  for (int v = 0; v + 1 < nodes; ++v) {
    problem.edges.push_back(RandomEdge(rng, v, v + 1, choices));
  }
  return problem;
}

void BM_IlpForestDp(benchmark::State& state) {
  const IlpProblem problem =
      ChainProblem(static_cast<int>(state.range(0)), 16, 42);
  IlpSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).objective);
  }
}
BENCHMARK(BM_IlpForestDp)->Arg(64)->Arg(512)->Arg(2048);

void BM_IlpBranchAndBound(benchmark::State& state) {
  // Chain plus chords -> cycles -> branch & bound path.
  IlpProblem problem = ChainProblem(static_cast<int>(state.range(0)), 8, 7);
  Rng rng(3);
  for (int v = 0; v + 4 < state.range(0); v += 4) {
    problem.edges.push_back(RandomEdge(rng, v, v + 4, 8));
  }
  IlpSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).objective);
  }
}
BENCHMARK(BM_IlpBranchAndBound)->Arg(16)->Arg(32);

void BM_StageDp(benchmark::State& state) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(8, 8);
  const std::vector<SubmeshShape> shapes = EnumerateSubmeshShapes(cluster);
  const int layers = static_cast<int>(state.range(0));
  const StageProfileFn profile = [&](int begin, int end, int shape_index) {
    StageProfile p;
    const int count = end - begin + 1;
    const int devices = shapes[static_cast<size_t>(shape_index)].num_devices();
    p.t_intra = 0.1 * count / devices;
    p.weight_bytes = 4e9 * count / devices;
    return p;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveStageDp(layers, 32, cluster, shapes, profile).total_latency);
  }
}
BENCHMARK(BM_StageDp)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_OperatorClustering(benchmark::State& state) {
  GptConfig config;
  config.hidden = 1024;
  config.num_layers = static_cast<int>(state.range(0));
  config.num_heads = 16;
  config.microbatch = 4;
  config.seq_len = 512;
  config.vocab = 8192;
  const Graph graph = BuildGpt(config);
  ClusteringOptions options;
  options.num_layers = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusterOperators(graph, options).feasible);
  }
}
BENCHMARK(BM_OperatorClustering)->Arg(8)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_IntraOpPassTransformerLayer(benchmark::State& state) {
  GptConfig config;
  config.hidden = 2048;
  config.num_layers = 2;
  config.num_heads = 32;
  config.microbatch = 8;
  Graph graph = BuildGpt(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  const StageSubgraph layer = ExtractStage(graph, 1, 1);
  const DeviceMesh mesh = DeviceMesh::CreateSimple(cluster, 1, 8);
  IntraOpOptions options;
  options.num_microbatches = 32;
  options.solver.max_search_nodes = 60'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveIntraOp(layer.graph, mesh, options).t_intra);
  }
}
BENCHMARK(BM_IntraOpPassTransformerLayer)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace alpa

BENCHMARK_MAIN();
