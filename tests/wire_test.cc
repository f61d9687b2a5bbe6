// Wire-format unit tests: primitive and envelope round-trips on
// hand-assembled artifacts, plus the adversarial decode suite (truncation
// at every byte boundary, deterministic bit flips, version skew) that
// locks in the never-crash Status contract. Everything here is built by
// hand — no compiler passes — so the ASan twin (asan_wire_test) can link
// from a small source list. Compiled-plan PlanEquals round-trips live in
// plan_roundtrip_test.cc.
#include "src/serve/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

namespace alpa {
namespace serve {
namespace {

// --- Hand-assembled artifacts ---

Graph TestGraph() {
  Graph graph;
  Operator input;
  input.type = OpType::kInput;
  input.name = "x";
  input.shape = TensorShape({8, 16});
  input.dtype = DType::kF16;
  input.layer = 0;
  const int x = graph.Append(input);

  Operator weight;
  weight.type = OpType::kParameter;
  weight.name = "w";
  weight.shape = TensorShape({16, 32});
  weight.dtype = DType::kF16;
  weight.layer = 0;
  const int w = graph.Append(weight);

  Operator matmul;
  matmul.type = OpType::kEinsum;
  matmul.role = OpRole::kForward;
  matmul.name = "matmul";
  matmul.operands = {x, w};
  matmul.shape = TensorShape({8, 32});
  matmul.dtype = DType::kF16;
  matmul.einsum.output = "bf";
  matmul.einsum.operands = {"bm", "mf"};
  matmul.einsum.extents = {{'b', 8}, {'m', 16}, {'f', 32}};
  matmul.flops = 2.0 * 8 * 16 * 32;
  matmul.layer = 0;
  graph.Append(matmul);
  return graph;
}

ClusterSpec TestCluster() {
  ClusterSpec cluster = ClusterSpec::AwsP3(2, 4);
  // Mixed generations: per-host overrides must survive the wire (v3).
  cluster.host_devices = {DeviceSpec::V100(), DeviceSpec::A100()};
  cluster.faults.device_failures.push_back({3, 1.5});
  cluster.faults.stragglers.push_back({1, 2.0});
  cluster.faults.link_degradations.push_back({0, 1, 0.25});
  cluster.faults.transient_send_failure_rate = 0.01;
  cluster.faults.seed = 0xabcdef;
  return cluster;
}

ParallelPlan TestPlan() {
  ParallelPlan plan;
  plan.pipeline.feasible = true;
  plan.pipeline.num_microbatches = 4;
  plan.pipeline.dp_latency = 0.125;
  plan.pipeline.max_stage_latency = 0.0625;
  plan.pipeline.stats.total_seconds = 1.75;
  plan.pipeline.stats.ilp_solves = 12;

  CompiledStage stage;
  stage.layer_begin = 0;
  stage.layer_end = 1;
  stage.placement.host_begin = 0;
  stage.placement.shape = {1, 4};
  stage.logical_shape = {2, 2};
  stage.device_ids = {0, 1, 2, 3};
  stage.t_intra = 0.011;
  stage.t_forward = 0.004;
  stage.t_backward = 0.007;
  stage.t_per_iteration = 0.002;
  stage.weight_bytes = 1 << 20;
  stage.act_bytes_per_microbatch = 1 << 18;
  stage.work_bytes = 1 << 19;
  CrossStageTensor tensor;
  tensor.shape = TensorShape({8, 32});
  tensor.dtype_bytes = 2;
  tensor.src_spec = ShardingSpec::Make({DimSharding::kS0, DimSharding::kR});
  tensor.dst_spec = ShardingSpec::Make({DimSharding::kR, DimSharding::kS1});
  tensor.forward = true;
  tensor.producer_op = 2;
  stage.sends_to_next.push_back(tensor);
  stage.op_spec_summary = {{"matmul", "S0R"}};
  plan.pipeline.stages.push_back(stage);

  plan.sim_input.stages.push_back({0.004, 0.007, 0.002, 0.001, 1 << 20, 1 << 18, 1 << 19});
  plan.sim_input.num_microbatches = 4;
  plan.sim_input.schedule = PipelineScheduleType::k1F1B;
  plan.sim_input.device_memory_bytes = 16e9;
  plan.sim_input.stage_devices = {{0, 1, 2, 3}};
  plan.sim_input.devices_per_host = 4;

  plan.compile_stats = plan.pipeline.stats;
  return plan;
}

// Bit-identity proxy: two values whose encodings are byte-equal hold
// exactly the same field bits (the encoding covers every field).
template <typename T, typename EncodeFn>
std::string EncodedBytes(const T& value, EncodeFn encode) {
  WireWriter w;
  encode(value, &w);
  return w.Take();
}

// --- Primitives ---

TEST(WirePrimitives, RoundTrip) {
  WireWriter w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I32(-42);
  w.I64(-1);
  w.F64(-0.3333333333333333);
  w.Bool(true);
  w.Str("hello");
  WireReader r(w.data());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1);
  EXPECT_EQ(r.F64(), -0.3333333333333333);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WirePrimitives, DoubleBitPattern) {
  // NaN payloads and signed zero must survive bit-exactly.
  const double values[] = {0.0, -0.0, 1e300, -1e-300,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()};
  for (double v : values) {
    WireWriter w;
    w.F64(v);
    WireReader r(w.data());
    const double back = r.F64();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0);
  }
}

TEST(WirePrimitives, ReaderLatchesFirstError) {
  WireWriter w;
  w.U16(7);
  WireReader r(w.data());
  EXPECT_EQ(r.U32(), 0u);  // Out of bounds.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);  // Still latched, still zero.
  const Status status = r.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("byte 0"), std::string::npos);
}

TEST(WirePrimitives, CountRejectsOversizedClaims) {
  WireWriter w;
  w.U32(0xffffff);  // Claims 16M elements...
  w.U32(0);         // ...with 4 bytes of actual data.
  WireReader r(w.data());
  EXPECT_EQ(r.Count(8), 0u);
  EXPECT_FALSE(r.ok());
}

// --- Envelope ---

TEST(WireEnvelope, PackUnpack) {
  const std::string blob = WirePack(WireKind::kGraph, "payload-bytes");
  std::string_view payload;
  ASSERT_TRUE(WireUnpack(blob, WireKind::kGraph, &payload).ok());
  EXPECT_EQ(payload, "payload-bytes");
}

TEST(WireEnvelope, WrongKindRejected) {
  const std::string blob = WirePack(WireKind::kGraph, "payload");
  std::string_view payload;
  const Status status = WireUnpack(blob, WireKind::kPlan, &payload);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(WireEnvelope, WrongMagicRejected) {
  std::string blob = WirePack(WireKind::kGraph, "payload");
  blob[0] = 'X';
  std::string_view payload;
  const Status status = WireUnpack(blob, WireKind::kGraph, &payload);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(WireEnvelope, VersionSkewRejected) {
  // A blob from the previous build and one from a future build.
  for (const int version : {kWireVersion - 1, kWireVersion + 1}) {
    std::string blob = WirePack(WireKind::kGraph, "payload");
    blob[4] = static_cast<char>(version);
    std::string_view payload;
    const Status status = WireUnpack(blob, WireKind::kGraph, &payload);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "version " << version;
    EXPECT_NE(status.message().find("version"), std::string::npos) << "version " << version;
  }
}

// --- Round-trips on hand-assembled artifacts (byte-identity) ---

TEST(WireRoundTrip, Graph) {
  const Graph graph = TestGraph();
  const std::string blob = SerializeGraph(graph);
  const StatusOr<Graph> back = DeserializeGraph(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), graph.size());
  EXPECT_EQ(EncodedBytes(*back, EncodeGraph), EncodedBytes(graph, EncodeGraph));
}

TEST(WireRoundTrip, ClusterSpec) {
  const ClusterSpec cluster = TestCluster();
  const StatusOr<ClusterSpec> back = DeserializeClusterSpec(SerializeClusterSpec(cluster));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodedBytes(*back, EncodeClusterSpec), EncodedBytes(cluster, EncodeClusterSpec));
  EXPECT_EQ(back->num_hosts, 2);
  ASSERT_EQ(back->host_devices.size(), 2u);
  EXPECT_TRUE(back->heterogeneous());
  EXPECT_EQ(back->host_devices[1].memory_bytes, DeviceSpec::A100().memory_bytes);
  EXPECT_EQ(back->faults.device_failures.size(), 1u);
  EXPECT_EQ(back->faults.seed, 0xabcdefu);
}

TEST(WireRoundTrip, Plan) {
  const ParallelPlan plan = TestPlan();
  const StatusOr<ParallelPlan> back = DeserializePlan(SerializePlan(plan));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodedBytes(*back, EncodePlan), EncodedBytes(plan, EncodePlan));
  EXPECT_EQ(back->pipeline.stages.size(), 1u);
  EXPECT_EQ(back->pipeline.stages[0].sends_to_next[0].src_spec.ToString(),
            plan.pipeline.stages[0].sends_to_next[0].src_spec.ToString());
}

TEST(WireRoundTrip, ExecutionStats) {
  ExecutionStats stats;
  stats.latency = 0.125;
  stats.total_flops = 1e15;
  stats.pflops = 8.0;
  stats.bubble_fraction = 0.0625;
  stats.peak_memory_bytes = 12e9;
  const StatusOr<ExecutionStats> back =
      DeserializeExecutionStats(SerializeExecutionStats(stats));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodedBytes(*back, EncodeExecutionStats), EncodedBytes(stats, EncodeExecutionStats));
}

TEST(WireRoundTrip, StageTimings) {
  std::vector<exec::StageTiming> timings(2);
  timings[0].stage = 0;
  timings[0].phase_seconds[0] = 0.004;
  timings[0].phase_seconds[1] = 0.007;
  timings[0].num_devices = 4;
  timings[1].stage = 1;
  timings[1].phase_seconds[4] = 0.001;
  timings[1].num_devices = 2;
  const auto back = DeserializeStageTimings(SerializeStageTimings(timings));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodedBytes(*back, EncodeStageTimings), EncodedBytes(timings, EncodeStageTimings));
}

// --- Adversarial decodes: Status, never a crash ---

TEST(WireAdversarial, PlanTruncatedAtEveryByte) {
  const std::string blob = SerializePlan(TestPlan());
  for (size_t len = 0; len < blob.size(); ++len) {
    const StatusOr<ParallelPlan> result = DeserializePlan(blob.substr(0, len));
    EXPECT_FALSE(result.ok()) << "truncation to " << len << " bytes decoded successfully";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireAdversarial, GraphTruncatedAtEveryByte) {
  const std::string blob = SerializeGraph(TestGraph());
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(DeserializeGraph(blob.substr(0, len)).ok());
  }
}

TEST(WireAdversarial, EveryBitFlipDetected) {
  const std::string blob = SerializePlan(TestPlan());
  // Deterministic SplitMix64 position sampling (covers the whole blob
  // given enough samples; headers, payload, and checksum all get hit).
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (int trial = 0; trial < 512; ++trial) {
    const uint64_t r = next();
    const size_t byte = r % blob.size();
    const int bit = static_cast<int>((r >> 32) % 8);
    std::string corrupted = blob;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
    const StatusOr<ParallelPlan> result = DeserializePlan(corrupted);
    EXPECT_FALSE(result.ok()) << "bit " << bit << " of byte " << byte << " flipped undetected";
  }
}

TEST(WireAdversarial, GraphWithForwardOperandRejected) {
  // An operand referencing a not-yet-appended op would CHECK-crash
  // Graph::Append; the decoder must pre-validate instead.
  WireWriter w;
  w.U32(1);                       // One op...
  w.U8(static_cast<uint8_t>(OpType::kElementwise));
  w.U8(static_cast<uint8_t>(OpRole::kForward));
  w.Str("bad");
  w.U32(1);
  w.I32(5);                       // ...whose operand is op 5.
  w.U32(0);                       // Scalar shape.
  w.U8(static_cast<uint8_t>(DType::kF32));
  w.Str("");                      // Einsum: empty output...
  w.U32(0);                       // ...no operands...
  w.U32(0);
  w.U32(0);                       // ...no extents/halo.
  w.F64(0);
  w.I32(-1);
  w.I32(-1);
  w.I32(-1);
  w.Bool(false);
  const StatusOr<Graph> result = DeserializeGraph(WirePack(WireKind::kGraph, w.Take()));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("topological"), std::string::npos);
}

TEST(WireAdversarial, ShardingSpecAxisReuseRejected) {
  // A spec sharding mesh axis 0 across two dims would CHECK-crash
  // ShardingSpec::Make; the decoder must pre-validate. Corrupt the
  // payload BEFORE packing so the checksum passes and the corruption
  // reaches the field decoder.
  WireWriter w;
  EncodePlan(TestPlan(), &w);
  std::string raw = w.Take();
  // The encoded src_spec of the stage's boundary tensor: rank 2 (u32),
  // then dims {kS0, kR}.
  const char pattern[] = {2, 0, 0, 0, static_cast<char>(DimSharding::kS0),
                          static_cast<char>(DimSharding::kR)};
  const size_t pos = raw.find(std::string(pattern, sizeof(pattern)));
  ASSERT_NE(pos, std::string::npos);
  raw[pos + 5] = static_cast<char>(DimSharding::kS0);
  const StatusOr<ParallelPlan> result = DeserializePlan(WirePack(WireKind::kPlan, raw));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("mesh axis"), std::string::npos);
}

TEST(WireAdversarial, HostDeviceCountMismatchRejected) {
  // A per-host override list must cover every host or no host; encoding a
  // deliberately inconsistent spec produces the malformed payload.
  ClusterSpec cluster = ClusterSpec::AwsP3(2, 4);
  cluster.host_devices = {DeviceSpec::A100()};  // 1 entry, 2 hosts.
  const StatusOr<ClusterSpec> result = DeserializeClusterSpec(SerializeClusterSpec(cluster));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("host_devices"), std::string::npos);
}

TEST(WireAdversarial, TrailingBytesRejected) {
  WireWriter w;
  EncodeClusterSpec(TestCluster(), &w);
  w.U32(0xdeadbeef);  // Garbage after a valid payload.
  const StatusOr<ClusterSpec> result =
      DeserializeClusterSpec(WirePack(WireKind::kClusterSpec, w.Take()));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace alpa
