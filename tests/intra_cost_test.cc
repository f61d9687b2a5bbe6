// Semantics of the intra-op cost model: gradient-accumulation
// amortization, rematerialization, memory accounting, and solver seeding.
#include <gtest/gtest.h>

#include "src/graph/backward.h"
#include "src/intra/intra_pass.h"
#include "src/models/gpt.h"
#include "src/models/mlp.h"

namespace alpa {
namespace {

GptConfig SmallGpt() {
  GptConfig config;
  config.hidden = 512;
  config.num_layers = 2;
  config.num_heads = 8;
  config.microbatch = 8;
  config.seq_len = 256;
  config.vocab = 2048;
  return config;
}

DeviceMesh Mesh(const ClusterSpec& cluster, int d0, int d1) {
  MeshPlacement placement;
  placement.shape = SubmeshShape{1, d0 * d1};
  return DeviceMesh::Create(cluster, placement, {d0, d1});
}

TEST(IntraCost, PerIterationSplitCoversGradSync) {
  // Under data parallelism, the gradient all-reduce is per-iteration; the
  // forward/backward communication should be ~zero.
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  Graph graph = BuildGpt(SmallGpt());
  IntraOpOptions options;
  options.num_microbatches = 16;
  const IntraOpResult result = SolveIntraOp(graph, Mesh(cluster, 1, 8), options);
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.t_per_iteration, 0.0);
}

TEST(IntraCost, AmortizationShiftsPlanTowardsDataParallel) {
  // With B=1, gradient sync is expensive and the ILP balances against it;
  // with large B it amortizes away. The per-microbatch latency with large B
  // must be <= the B=1 latency (the plan space is identical).
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  Graph graph = BuildGpt(SmallGpt());
  IntraOpOptions b1;
  b1.num_microbatches = 1;
  IntraOpOptions b64;
  b64.num_microbatches = 64;
  const IntraOpResult r1 = SolveIntraOp(graph, Mesh(cluster, 1, 8), b1);
  const IntraOpResult r64 = SolveIntraOp(graph, Mesh(cluster, 1, 8), b64);
  ASSERT_TRUE(r1.feasible);
  ASSERT_TRUE(r64.feasible);
  // Objective under large-B amortization: t_intra + t_iter/64 <= t_intra(B=1) + t_iter(B=1).
  EXPECT_LE(r64.t_intra + r64.t_per_iteration / 64.0,
            r1.t_intra + r1.t_per_iteration + 1e-9);
}

TEST(IntraCost, RematerializationTradesTimeForMemory) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  Graph graph = BuildGpt(SmallGpt());
  IntraOpOptions with_remat;
  with_remat.rematerialize = true;
  IntraOpOptions without;
  without.rematerialize = false;
  const IntraOpResult remat = SolveIntraOp(graph, Mesh(cluster, 1, 8), with_remat);
  const IntraOpResult full = SolveIntraOp(graph, Mesh(cluster, 1, 8), without);
  ASSERT_TRUE(remat.feasible);
  ASSERT_TRUE(full.feasible);
  EXPECT_LT(remat.act_bytes_per_microbatch, full.act_bytes_per_microbatch);
  EXPECT_GT(remat.t_intra, full.t_intra);  // Recompute costs a forward pass.
}

TEST(IntraCost, MemoryScalesDownWithDevices) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  Graph graph = BuildGpt(SmallGpt());
  IntraOpOptions options;
  options.num_microbatches = 8;
  const IntraOpResult r2 = SolveIntraOp(graph, Mesh(cluster, 1, 2), options);
  const IntraOpResult r8 = SolveIntraOp(graph, Mesh(cluster, 1, 8), options);
  ASSERT_TRUE(r2.feasible);
  ASSERT_TRUE(r8.feasible);
  EXPECT_LE(r8.weight_bytes, r2.weight_bytes * 1.05);
}

TEST(IntraCost, ForcedChoiceEvaluatesWithoutSolving) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  MlpConfig config;
  config.batch = 64;
  Graph graph = BuildMlp(config);
  const DeviceMesh mesh = Mesh(cluster, 1, 4);
  IntraOpOptions options;
  const IntraOpProblem problem = BuildIntraOpProblem(graph, mesh, options);
  // All-zeros is a valid (if arbitrary) choice vector.
  std::vector<int> choice(problem.algorithms.size(), 0);
  const IntraOpResult result = EvaluateChoice(graph, mesh, problem, options, choice, false);
  if (result.feasible) {
    EXPECT_GE(result.objective, 0.0);
    // The solved optimum can only be better.
    const IntraOpResult solved = SolveIntraOp(graph, mesh, options);
    ASSERT_TRUE(solved.feasible);
    EXPECT_LE(solved.t_intra, result.t_intra + 1e-12);
  }
}

TEST(IntraCost, OpComputeTimeRoofline) {
  DeviceSpec device;
  Operator matmul;
  matmul.type = OpType::kEinsum;
  matmul.flops = 2e12;
  matmul.shape = TensorShape({1024, 1024});
  matmul.dtype = DType::kF16;
  // Flops-bound: halves with twice the shards.
  EXPECT_NEAR(OpComputeTime(matmul, 2, device, Precision::kFloat16),
              OpComputeTime(matmul, 1, device, Precision::kFloat16) / 2, 1e-12);
  // fp32 is slower than fp16 on tensor cores.
  EXPECT_GT(OpComputeTime(matmul, 1, device, Precision::kFloat32),
            OpComputeTime(matmul, 1, device, Precision::kFloat16));
  Operator relu;
  relu.type = OpType::kElementwise;
  relu.flops = 1e6;
  relu.shape = TensorShape({1024, 1024});
  relu.dtype = DType::kF32;
  // Bytes-bound: time = 3 * bytes / bw.
  EXPECT_NEAR(OpComputeTime(relu, 1, device, Precision::kFloat32),
              3.0 * 1024 * 1024 * 4 / device.memory_bandwidth, 1e-12);
}

}  // namespace
}  // namespace alpa
