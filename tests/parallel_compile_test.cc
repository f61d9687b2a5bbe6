// Determinism and memoization of the parallel compilation pipeline: for
// any thread count the compiler must produce a plan satisfying PlanEquals
// with the serial one, and structurally identical layers must reuse ILP
// solves through the process-wide memo cache.
#include <gtest/gtest.h>

#include "src/core/api.h"
#include "src/inter/inter_pass.h"
#include "src/inter/stage_profiler.h"
#include "src/intra/ilp_cache.h"
#include "src/mesh/submesh.h"
#include "src/models/gpt.h"
#include "src/models/wide_resnet.h"

namespace alpa {
namespace {

GptConfig SmallGpt() {
  GptConfig config;
  config.hidden = 256;
  config.num_layers = 4;
  config.num_heads = 8;
  config.microbatch = 4;
  config.seq_len = 128;
  config.vocab = 1024;
  return config;
}

InterOpOptions FastOptions() {
  InterOpOptions options;
  options.num_microbatches = 8;
  options.target_layers = 4;
  options.profiler.intra.solver.max_search_nodes = 20'000;
  return options;
}

// Compiles the graph with the given thread count from a cold memo cache,
// so the two runs of a comparison do identical work.
CompiledPipeline CompileCold(Graph graph, const ClusterSpec& cluster, InterOpOptions options,
                             int threads) {
  IlpMemoCache::Global().Clear();
  options.compile_threads = threads;
  return RunInterOpPass(graph, cluster, options);
}

TEST(ParallelCompile, GptPlanIdenticalAcrossThreadCounts) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  const InterOpOptions options = FastOptions();
  Graph serial_graph = BuildGpt(SmallGpt());
  Graph parallel_graph = BuildGpt(SmallGpt());
  const CompiledPipeline serial = CompileCold(serial_graph, cluster, options, 1);
  const CompiledPipeline parallel = CompileCold(parallel_graph, cluster, options, 4);
  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(parallel.feasible);
  EXPECT_TRUE(PlanEquals(serial, parallel));
  EXPECT_EQ(serial.dp_latency, parallel.dp_latency);
  EXPECT_EQ(serial.max_stage_latency, parallel.max_stage_latency);
  EXPECT_EQ(serial.stats.ilp_solves, parallel.stats.ilp_solves);
  ASSERT_EQ(serial.stages.size(), parallel.stages.size());
  for (size_t s = 0; s < serial.stages.size(); ++s) {
    EXPECT_EQ(serial.stages[s].layer_begin, parallel.stages[s].layer_begin);
    EXPECT_EQ(serial.stages[s].layer_end, parallel.stages[s].layer_end);
    EXPECT_TRUE(serial.stages[s].placement == parallel.stages[s].placement);
  }
  EXPECT_EQ(serial.stats.threads_used, 1);
  EXPECT_EQ(parallel.stats.threads_used, 4);
}

TEST(ParallelCompile, WideResNetPlanIdenticalAcrossThreadCounts) {
  WideResNetConfig config;
  config.microbatch = 8;
  config.base_channels = 64;
  config.width_factor = 2;
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  InterOpOptions options = FastOptions();
  options.target_layers = 8;
  Graph serial_graph = BuildWideResNet(config);
  Graph parallel_graph = BuildWideResNet(config);
  const CompiledPipeline serial = CompileCold(serial_graph, cluster, options, 1);
  const CompiledPipeline parallel = CompileCold(parallel_graph, cluster, options, 3);
  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(parallel.feasible);
  EXPECT_TRUE(PlanEquals(serial, parallel));
}

TEST(ParallelCompile, EqualLayerSearchIdenticalAcrossThreadCounts) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  InterOpOptions options = FastOptions();
  options.equal_layer_stages = true;
  Graph serial_graph = BuildGpt(SmallGpt());
  Graph parallel_graph = BuildGpt(SmallGpt());
  const CompiledPipeline serial = CompileCold(serial_graph, cluster, options, 1);
  const CompiledPipeline parallel = CompileCold(parallel_graph, cluster, options, 4);
  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(parallel.feasible);
  EXPECT_TRUE(PlanEquals(serial, parallel));
}

// The constructor solves the whole (layer x mesh) grid, pool or not: the
// profiler is read-only afterwards, so no Profile call solves anything.
TEST(ParallelCompile, ProfilerSolvesTheWholeGridUpFront) {
  IlpMemoCache::Global().Clear();
  Graph graph = BuildGpt(SmallGpt());
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  StageProfilerOptions options;
  options.intra.solver.max_search_nodes = 20'000;
  StageProfiler profiler(graph, cluster, EnumerateSubmeshShapes(cluster), options,
                         /*pool=*/nullptr);
  const int64_t solves = profiler.num_ilp_solves();
  EXPECT_GT(solves, 0);
  EXPECT_EQ(profiler.cache_misses(), solves);
  EXPECT_EQ(profiler.cache_hits(), 0);

  const int num_variants = static_cast<int>(profiler.variants().size());
  for (int begin = 0; begin < profiler.num_layers(); ++begin) {
    for (int end = begin; end < profiler.num_layers(); ++end) {
      for (int v = 0; v < num_variants; ++v) {
        profiler.Profile(begin, end, v);
      }
    }
  }
  EXPECT_EQ(profiler.num_ilp_solves(), solves);
  EXPECT_EQ(profiler.cache_misses(), solves);
  EXPECT_EQ(profiler.cache_hits(), 0);
}

TEST(ParallelCompile, MemoCacheServesSecondProfiler) {
  IlpMemoCache::Global().Clear();
  Graph graph = BuildGpt(SmallGpt());
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  const std::vector<SubmeshShape> shapes = EnumerateSubmeshShapes(cluster);
  StageProfilerOptions options;
  options.intra.solver.max_search_nodes = 20'000;

  StageProfiler first(graph, cluster, shapes, options);
  const int num_variants = static_cast<int>(first.variants().size());
  for (int v = 0; v < num_variants; ++v) {
    first.Profile(0, first.num_layers() - 1, v);
  }
  EXPECT_GT(first.num_ilp_solves(), 0);
  EXPECT_EQ(first.cache_hits(), 0);
  EXPECT_EQ(first.cache_misses(), first.num_ilp_solves());

  // Same graph, fresh profiler: every solve is served from the cache.
  StageProfiler second(graph, cluster, shapes, options);
  for (int v = 0; v < num_variants; ++v) {
    second.Profile(0, second.num_layers() - 1, v);
  }
  EXPECT_EQ(second.num_ilp_solves(), 0);
  EXPECT_EQ(second.cache_hits(), first.num_ilp_solves());
  EXPECT_EQ(second.cache_misses(), 0);

  // And the results agree with the first profiler's.
  for (int v = 0; v < num_variants; ++v) {
    const StageProfile a = first.Profile(0, first.num_layers() - 1, v);
    const StageProfile b = second.Profile(0, second.num_layers() - 1, v);
    EXPECT_EQ(a.t_intra, b.t_intra);
    EXPECT_EQ(a.weight_bytes, b.weight_bytes);
  }
}

TEST(ParallelCompile, SolvesWithFiltersBypassCache) {
  IlpMemoCache::Global().Clear();
  Graph graph = BuildGpt(SmallGpt());
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  const std::vector<SubmeshShape> shapes = {SubmeshShape{1, 1}};
  StageProfilerOptions options;
  options.intra.solver.max_search_nodes = 20'000;
  // A caller-provided filter is an opaque closure: not hashable, so the
  // solve must not be cached (a later filterless run would otherwise pick
  // up filtered results).
  options.intra.filter = [](const Graph&, const DeviceMesh&, const Operator&,
                            const ParallelAlgorithm&) { return true; };
  StageProfiler profiler(graph, cluster, shapes, options);
  profiler.Profile(0, profiler.num_layers() - 1, 0);
  EXPECT_GT(profiler.num_ilp_solves(), 0);
  EXPECT_EQ(profiler.cache_misses(), 0);
  EXPECT_EQ(IlpMemoCache::Global().size(), 0u);
}

TEST(ParallelCompile, ApiMirrorsCompileThreads) {
  IlpMemoCache::Global().Clear();
  Graph graph = BuildGpt(SmallGpt());
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  ParallelizeOptions options;
  options.num_microbatches = 4;
  options.inter.compile_threads = 2;
  options.inter.target_layers = 2;
  options.inter.profiler.intra.solver.max_search_nodes = 20'000;
  const StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->compile_stats.threads_used, 2);
  EXPECT_GT(plan->compile_stats.profiling_wall_seconds, 0.0);
}

}  // namespace
}  // namespace alpa
