// Liveness analysis, arena offset assignment, and the end-to-end memory
// accounting contract: on real compiled plans the runtime-measured per-device
// peak must stay inside both the arena plan and the analytical model
// (with rematerialization disabled, so the model counts every activation
// the executor actually stores).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/core/api.h"
#include "src/exec/arena.h"
#include "src/exec/executor.h"
#include "src/exec/liveness.h"
#include "src/models/gpt.h"
#include "src/models/moe.h"
#include "src/models/wide_resnet.h"

namespace alpa {
namespace exec {
namespace {

TensorRef Ref(int op, int mb = 0, bool transit = false) { return TensorRef{op, mb, transit}; }

const LiveInterval* Find(const std::vector<LiveInterval>& intervals, const TensorRef& ref) {
  for (const LiveInterval& iv : intervals) {
    if (iv.ref == ref) {
      return &iv;
    }
  }
  return nullptr;
}

TEST(Liveness, IntervalsFromDefUseStream) {
  // inst0: def A; inst1: def B, use A; inst2: use A, use B;
  // inst3: def C; inst4: use C.
  std::vector<InstructionAccess> accesses(5);
  accesses[0].defs = {{Ref(0), 100}};
  accesses[1].defs = {{Ref(1), 50}};
  accesses[1].uses = {Ref(0)};
  accesses[2].uses = {Ref(0), Ref(1)};
  accesses[3].defs = {{Ref(2), 200}};
  accesses[4].uses = {Ref(2)};

  const std::vector<LiveInterval> intervals = ComputeLiveness(accesses);
  ASSERT_EQ(intervals.size(), 3u);
  const LiveInterval* a = Find(intervals, Ref(0));
  const LiveInterval* b = Find(intervals, Ref(1));
  const LiveInterval* c = Find(intervals, Ref(2));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(a->def, 0);
  EXPECT_EQ(a->last_use, 2);
  EXPECT_EQ(a->bytes, 100);
  EXPECT_EQ(b->def, 1);
  EXPECT_EQ(b->last_use, 2);
  EXPECT_EQ(c->def, 3);
  EXPECT_EQ(c->last_use, 4);

  // Peak: A+B live at inst2 (150) < C alone at 3..4 (200).
  EXPECT_EQ(PeakLiveBytes(intervals), 200);

  const std::vector<std::vector<TensorRef>> release = ReleaseLists(intervals, 5);
  ASSERT_EQ(release.size(), 5u);
  EXPECT_TRUE(release[0].empty());
  EXPECT_TRUE(release[1].empty());
  EXPECT_EQ(release[2].size(), 2u);  // A and B die after inst2.
  EXPECT_TRUE(release[3].empty());
  EXPECT_EQ(release[4], std::vector<TensorRef>{Ref(2)});
}

TEST(Liveness, UseBeforeDefOpensAtTheUse) {
  std::vector<InstructionAccess> accesses(4);
  accesses[0].uses = {Ref(7)};
  accesses[2].defs = {{Ref(7), 64}};
  accesses[3].uses = {Ref(7)};
  const std::vector<LiveInterval> intervals = ComputeLiveness(accesses);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].def, 0);
  EXPECT_EQ(intervals[0].last_use, 3);
  EXPECT_EQ(intervals[0].bytes, 64);
}

TEST(Liveness, RedefinitionExtendsAndKeepsMaxBytes) {
  std::vector<InstructionAccess> accesses(5);
  accesses[0].defs = {{Ref(3), 100}};
  accesses[2].defs = {{Ref(3), 40}};
  accesses[4].uses = {Ref(3)};
  const std::vector<LiveInterval> intervals = ComputeLiveness(accesses);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].def, 0);
  EXPECT_EQ(intervals[0].last_use, 4);
  EXPECT_EQ(intervals[0].bytes, 100);
}

TEST(Liveness, SameInstructionDefAndUseIsLiveOnlyThere) {
  std::vector<InstructionAccess> accesses(3);
  accesses[1].defs = {{Ref(9, -1), 32}};
  accesses[1].uses = {Ref(9, -1)};
  const std::vector<LiveInterval> intervals = ComputeLiveness(accesses);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].def, 1);
  EXPECT_EQ(intervals[0].last_use, 1);
}

TEST(Liveness, TransitAndValueRefsAreDistinct) {
  std::vector<InstructionAccess> accesses(2);
  accesses[0].defs = {{Ref(4, 0, false), 10}, {Ref(4, 0, true), 20}};
  accesses[1].uses = {Ref(4, 0, false), Ref(4, 0, true)};
  const std::vector<LiveInterval> intervals = ComputeLiveness(accesses);
  EXPECT_EQ(intervals.size(), 2u);
}

// --- Arena offset assignment ---------------------------------------------

bool Overlap(const ArenaAssignment& a, const ArenaAssignment& b) {
  return a.def <= b.last_use && b.def <= a.last_use && a.offset < b.offset + b.bytes &&
         b.offset < a.offset + a.bytes;
}

TEST(ArenaPlanTest, OverlappingIntervalsNeverAlias) {
  // A deterministic pseudo-random pile of intervals with heavy overlap.
  std::vector<LiveInterval> intervals;
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < 60; ++i) {
    LiveInterval iv;
    iv.ref = Ref(i, static_cast<int>(next() % 4));
    iv.def = static_cast<int>(next() % 40);
    iv.last_use = iv.def + static_cast<int>(next() % 15);
    iv.bytes = static_cast<int64_t>(next() % 5000) + 1;
    intervals.push_back(iv);
  }
  const ArenaPlan plan = PlanArena(intervals);
  EXPECT_TRUE(PlanIsValid(plan));
  ASSERT_EQ(plan.assignments.size(), intervals.size());
  int64_t total = 0;
  for (const ArenaAssignment& a : plan.assignments) {
    EXPECT_EQ(a.offset % 64, 0);
    EXPECT_LE(a.offset + a.bytes, plan.arena_bytes);
    total += (a.bytes + 63) / 64 * 64;
  }
  // Pairwise non-aliasing, independently of PlanIsValid.
  for (size_t i = 0; i < plan.assignments.size(); ++i) {
    for (size_t j = i + 1; j < plan.assignments.size(); ++j) {
      EXPECT_FALSE(Overlap(plan.assignments[i], plan.assignments[j])) << i << " vs " << j;
    }
  }
  EXPECT_GE(plan.arena_bytes, plan.peak_live_bytes);
  EXPECT_LE(plan.arena_bytes, total);
  EXPECT_EQ(plan.peak_live_bytes, PeakLiveBytes(intervals));
}

TEST(ArenaPlanTest, DisjointLifetimesReuseAddresses) {
  // Ten same-sized buffers, each dead before the next is born: the slab
  // should hold exactly one of them.
  std::vector<LiveInterval> intervals;
  for (int i = 0; i < 10; ++i) {
    intervals.push_back(LiveInterval{Ref(i), 2 * i, 2 * i + 1, 1024});
  }
  const ArenaPlan plan = PlanArena(intervals);
  EXPECT_TRUE(PlanIsValid(plan));
  EXPECT_EQ(plan.arena_bytes, 1024);
  for (const ArenaAssignment& a : plan.assignments) {
    EXPECT_EQ(a.offset, 0);
  }
}

TEST(ArenaPlanTest, ZeroByteIntervalsTakeNoSpace) {
  std::vector<LiveInterval> intervals = {LiveInterval{Ref(0), 0, 5, 0},
                                         LiveInterval{Ref(1), 0, 5, 256}};
  const ArenaPlan plan = PlanArena(intervals);
  EXPECT_TRUE(PlanIsValid(plan));
  EXPECT_EQ(plan.arena_bytes, 256);
}

TEST(ArenaRuntime, BumpAllocationAlignsReusesAndGrows) {
  Arena arena;
  float* f = arena.AllocFloats(10);
  double* d = arena.AllocDoubles(10);
  ASSERT_NE(f, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(f) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % 64, 0u);
  // Both views are writable across their full extent (ASan-checked).
  for (int i = 0; i < 10; ++i) {
    f[i] = 1.0f;
    d[i] = 2.0;
  }
  const int64_t high = arena.high_water_bytes();
  EXPECT_GE(high, static_cast<int64_t>(10 * sizeof(float) + 10 * sizeof(double)));

  // The doubles overflowed the first slab, so this Reset regrows it to the
  // high water; from then on every Reset recycles it from the start.
  arena.Reset();
  EXPECT_GE(arena.capacity_bytes(), high);
  float* again = arena.AllocFloats(10);
  arena.Reset();
  EXPECT_EQ(arena.AllocFloats(10), again);
  EXPECT_EQ(arena.high_water_bytes(), high);

  // A round that outgrows the slab mid-way: 4 KiB, then a 1 MiB overflow
  // block. Reset drops the block and grows the slab, so the next round's
  // 1 MiB view lies inside it.
  arena.Reset();
  constexpr int64_t kSmall = 4 << 10;
  constexpr int64_t kLarge = 1 << 20;
  arena.AllocFloats(kSmall / 4);
  float* overflow = arena.AllocFloats(kLarge / 4);
  overflow[kLarge / 4 - 1] = 5.0f;
  arena.Reset();
  EXPECT_GE(arena.capacity_bytes(), arena.high_water_bytes());
  const uintptr_t slab = reinterpret_cast<uintptr_t>(arena.AllocFloats(kSmall / 4));
  const uintptr_t large = reinterpret_cast<uintptr_t>(arena.AllocFloats(kLarge / 4));
  EXPECT_GE(large, slab);
  EXPECT_LE(large + kLarge, slab + static_cast<uintptr_t>(arena.capacity_bytes()));

  arena.Reset();
  float* big = arena.AllocFloats(1 << 20);
  ASSERT_NE(big, nullptr);
  big[0] = 3.0f;
  big[(1 << 20) - 1] = 4.0f;
  EXPECT_GE(arena.capacity_bytes(), static_cast<int64_t>(sizeof(float)) * (1 << 20));
}

// --- End-to-end: measured peak vs plan vs model --------------------------

// Compiles on a 4-GPU host as a pipeline of 1x2 meshes with
// rematerialization off, executes deterministically, and checks every
// device's memory accounting chain.
void CheckMemoryAccounting(Graph& graph, int num_microbatches) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  ParallelizeOptions options;
  options.num_microbatches = num_microbatches;
  options.inter.submesh_shapes = {SubmeshShape{1, 2}};
  // The analytical model only bounds the runtime when it counts every
  // internal activation the executor stores.
  options.inter.profiler.intra.rematerialize = false;
  StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  ExecOptions exec_options;
  exec_options.reduction = ReductionMode::kDeterministic;
  StatusOr<ExecResult> result = ExecutePlan(*plan, graph, cluster, exec_options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result->device_memory.size(), 4u);
  std::set<std::pair<int, int>> seen;
  for (const DeviceMemoryStats& dm : result->device_memory) {
    seen.insert({dm.stage, dm.rank});
    EXPECT_GT(dm.measured_peak_bytes, 0) << "stage " << dm.stage << " rank " << dm.rank;
    // The arena plan can only pad (alignment) on top of the sum-of-live
    // lower bound, never undershoot it.
    EXPECT_GE(dm.planned_bytes, dm.planned_peak_live_bytes);
    // The runtime stores exactly the buffers the static plan modelled, so
    // its high water can never exceed the plan's.
    EXPECT_LE(dm.measured_peak_bytes, dm.planned_peak_live_bytes);
    // ...and the analytical model (weights + in-flight activations +
    // working set) upper-bounds the sharded runtime footprint.
    EXPECT_LE(dm.measured_peak_bytes, dm.modeled_bytes);
    EXPECT_GT(dm.oracle_peak_bytes, 0);
  }
  EXPECT_EQ(seen.size(), 4u) << "duplicate (stage, rank) entries";

  ASSERT_FALSE(result->stage_timings.empty());
  for (const StageTiming& t : result->stage_timings) {
    EXPECT_GT(t.num_devices, 0);
    EXPECT_GT(t.compute_seconds(), 0.0) << "stage " << t.stage;
  }
}

TEST(ExecMemory, GptMeasuredWithinPlanAndModel) {
  GptConfig config;
  config.hidden = 32;
  config.num_layers = 2;
  config.num_heads = 2;
  config.microbatch = 2;
  config.seq_len = 8;
  config.vocab = 64;
  Graph graph = BuildGpt(config);
  CheckMemoryAccounting(graph, 3);
}

TEST(ExecMemory, MoeMeasuredWithinPlanAndModel) {
  MoeConfig config;
  config.hidden = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.num_experts = 2;
  config.ffn_mult = 2;
  config.microbatch = 2;
  config.seq_len = 8;
  config.vocab = 32;
  Graph graph = BuildMoe(config);
  CheckMemoryAccounting(graph, 2);
}

TEST(ExecMemory, WideResNetMeasuredWithinPlanAndModel) {
  WideResNetConfig config;
  config.microbatch = 1;
  config.base_channels = 8;
  config.width_factor = 1;
  config.num_classes = 16;
  Graph graph = BuildWideResNet(config);
  CheckMemoryAccounting(graph, 2);
}

}  // namespace
}  // namespace exec
}  // namespace alpa
