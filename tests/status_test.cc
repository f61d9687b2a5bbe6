// Status/StatusOr semantics and the structured failure modes of the public
// API: option conflicts (kInvalidArgument), infeasible searches
// (kInfeasible), and simulated OOM (kResourceExhausted).
#include <gtest/gtest.h>

#include "src/core/api.h"
#include "src/models/gpt.h"

namespace alpa {
namespace {

GptConfig TinyGpt() {
  GptConfig config;
  config.hidden = 256;
  config.num_layers = 4;
  config.num_heads = 8;
  config.microbatch = 4;
  config.seq_len = 128;
  config.vocab = 1024;
  return config;
}

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_EQ(status, Status::Ok());
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status status = Status::Infeasible("no plan");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInfeasible);
  EXPECT_EQ(status.message(), "no plan");
  EXPECT_EQ(status.ToString(), "INFEASIBLE: no plan");
  EXPECT_NE(status, Status::InvalidArgument("no plan"));
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(-1), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> result = Status::InvalidArgument("bad");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> result = std::string("payload");
  ASSERT_TRUE(result.ok());
  const std::string moved = *std::move(result);
  EXPECT_EQ(moved, "payload");
}

TEST(Finalize, MirrorConflictIsInvalidArgument) {
  ParallelizeOptions options;
  options.num_microbatches = 8;        // Mirror...
  options.inter.num_microbatches = 32; // ...and authoritative field disagree.
  const Status status = options.Finalize();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_microbatches"), std::string::npos);
}

TEST(Finalize, MirrorResolvesIntoInter) {
  ParallelizeOptions options;
  options.num_microbatches = 8;
  options.inter.compile_threads = 2;
  ASSERT_TRUE(options.Finalize().ok());
  EXPECT_EQ(options.inter.num_microbatches, 8);
  EXPECT_EQ(options.inter.compile_threads, 2);
  // Idempotent, and the resolved options stay usable as a template whose
  // inter fields are tweaked afterwards.
  options.inter.num_microbatches = 8;
  ASSERT_TRUE(options.Finalize().ok());
}

TEST(Finalize, RejectsOutOfRangeValues) {
  ParallelizeOptions negative_microbatches;
  negative_microbatches.num_microbatches = -3;
  EXPECT_EQ(negative_microbatches.Finalize().code(), StatusCode::kInvalidArgument);

  ParallelizeOptions zero_inter;
  zero_inter.inter.num_microbatches = 0;
  EXPECT_EQ(zero_inter.Finalize().code(), StatusCode::kInvalidArgument);

  ParallelizeOptions bad_threads;
  bad_threads.inter.compile_threads = -7;
  EXPECT_EQ(bad_threads.Finalize().code(), StatusCode::kInvalidArgument);
}

TEST(Builder, WritesAuthoritativeFields) {
  const ParallelizeOptions options = ParallelizeOptions::Builder()
                                         .microbatches(16)
                                         .schedule(PipelineScheduleType::kGpipe)
                                         .threads(3)
                                         .target_layers(6)
                                         .trace("trace.json")
                                         .Build();
  EXPECT_EQ(options.inter.num_microbatches, 16);
  EXPECT_EQ(options.inter.compile_threads, 3);
  EXPECT_EQ(options.inter.target_layers, 6);
  EXPECT_EQ(options.schedule, PipelineScheduleType::kGpipe);
  EXPECT_EQ(options.trace_path, "trace.json");
  // A built template tweaked through inter.* must re-finalize cleanly.
  ParallelizeOptions tweaked = options;
  tweaked.inter.num_microbatches = 64;
  EXPECT_TRUE(tweaked.Finalize().ok());
  EXPECT_EQ(tweaked.inter.num_microbatches, 64);
}

TEST(Api, InvalidOptionsSurfaceBeforeCompiling) {
  Graph graph = BuildGpt(TinyGpt());
  ParallelizeOptions options;
  options.num_microbatches = 8;
  options.inter.num_microbatches = 32;
  const StatusOr<ParallelPlan> plan = Parallelize(graph, ClusterSpec::AwsP3(1, 2), options);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(Api, MemoryConstrainedSearchIsInfeasible) {
  // With (almost) no device memory the stage DP's memory constraint rejects
  // every stage-mesh assignment: no feasible plan exists.
  Graph graph = BuildGpt(TinyGpt());
  ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  cluster.device.memory_bytes = 1;
  ParallelizeOptions options;
  options.inter.num_microbatches = 4;
  options.inter.target_layers = 2;
  const StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInfeasible) << plan.status().ToString();
  EXPECT_FALSE(plan.status().message().empty());
}

TEST(Api, SimulatedOomIsResourceExhausted) {
  Graph graph = BuildGpt(TinyGpt());
  ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  cluster.device.memory_bytes = 1;  // Nothing fits at execution time...
  ParallelizeOptions options;
  options.inter.num_microbatches = 4;
  options.inter.target_layers = 2;
  // ...but let the stage DP accept a plan, so the failure comes from the
  // simulator, carrying the stage and sizes in the message.
  options.inter.dp.device_memory_override = 1e15;
  ParallelPlan plan;
  const StatusOr<ExecutionStats> stats = CompileAndSimulate(graph, cluster, options, &plan);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted) << stats.status().ToString();
  EXPECT_NE(stats.status().message().find("exceeds device memory"), std::string::npos);
  // The compiled plan is still handed out for inspection.
  EXPECT_TRUE(plan.pipeline.feasible);
}

TEST(Api, SimulateRejectsUncompiledPlan) {
  Graph graph = BuildGpt(TinyGpt());
  const ParallelPlan empty;
  const StatusOr<ExecutionStats> stats = Simulate(empty, graph, ClusterSpec::AwsP3(1, 2));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace alpa
