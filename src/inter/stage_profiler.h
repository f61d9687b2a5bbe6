// Memoized stage-mesh profiling for the inter-op DP (5.2, 7.4).
//
// The paper profiles every (layer interval, submesh shape) pair, accelerated
// by a cost model at the XLA instruction level (Table 4 discussion). We do
// the analogue: the intra-op ILP is built once per layer and mesh — a
// (physical submesh shape, logical mesh shape) pair — and solved once per
// *variant* of that mesh, one per memory mode: the time-optimal problem is
// the full build, and the ZeRO-2 and ZeRO-3 problems are derived from it by
// in-place restriction (RestrictIntraOpProblem), byte-identical to
// filtered builds. An interval's profile composes the per-layer results of
// one variant additively (adjacent layers of one interval agree on boundary
// specs in the optimum for the models we study, so the composition error is
// negligible and the profiling cost drops from O(L^2) to O(L) ILP solves).
// The stage DP iterates over the expanded variant space, which lets it
// trade execution time for memory (ZeRO-style sharding variants) per stage.
//
// Concurrency: the constructor solves every dedup-canonical (layer, mesh
// group) cell up front — across a ThreadPool's workers when one is given,
// inline otherwise — and the profiler is read-only afterwards, so Profile()
// and LayerResult() are const and safe to call from any thread. The stage
// DP reads every cell (each single-layer interval on each variant), so
// solving the whole grid first does exactly the work the DP would ask for.
// Solve results are independent of thread count and solve order — the ILP
// solver is deterministic — so parallel and serial compilation produce
// bit-identical profiles. Solves are further memoized per variant,
// process-wide, in IlpMemoCache so structurally identical layers across
// profiler instances (benchmark sweeps, repeated compilations) reuse each
// other's work; a cell builds its problem only when some mode misses that
// cache.
#ifndef SRC_INTER_STAGE_PROFILER_H_
#define SRC_INTER_STAGE_PROFILER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/inter/stage_extraction.h"
#include "src/intra/intra_pass.h"
#include "src/mesh/cluster_spec.h"
#include "src/mesh/submesh.h"
#include "src/solver/stage_dp.h"

namespace alpa {

class ThreadPool;

// Plan-space restriction of one profiled variant. The time-optimal ILP
// replicates weights when gradient accumulation amortizes their
// synchronization; the sharded variants trade time for memory (weight-update
// sharding / ZeRO), and the stage DP picks per stage.
enum class MemoryMode {
  kTimeOptimal,
  kShardOptimizer,  // ZeRO-2-like.
  kShardWeights,    // ZeRO-3-like.
};

// The plan-space restriction realizing `mode`: the sharded modes drop the
// replicated layouts of weight updates over 1024 elements (ZeRO-2) and,
// under kShardWeights, of such parameters too (ZeRO-3). Null for
// kTimeOptimal, which keeps every choice. kShardWeights keeps a subset of
// what kShardOptimizer keeps.
AlgorithmFilter MemoryModeFilter(MemoryMode mode);

// Structurally identical layers always share one solve (all transformer
// blocks of a homogeneous model), and every solve without a custom
// intra.filter goes through the process-wide IlpMemoCache.
struct StageProfilerOptions {
  IntraOpOptions intra;
  // Include the memory-saving variants.
  bool memory_modes = true;
};

// One point of the expanded profiling space.
struct StageVariant {
  SubmeshShape physical;
  std::array<int, 2> logical = {1, 1};
  MemoryMode mode = MemoryMode::kTimeOptimal;
  std::string ToString() const;
};

class StageProfiler {
 public:
  // Solves the full dedup-canonical (layer x mesh group) grid before
  // returning: one ParallelFor iteration per cell, on `pool` when it is
  // non-null (and has >1 thread), inline otherwise. Profile() calls then
  // only compose the stored per-layer results.
  StageProfiler(const Graph& graph, const ClusterSpec& cluster,
                const std::vector<SubmeshShape>& shapes, StageProfilerOptions options,
                ThreadPool* pool = nullptr);

  // Profile of layers [begin, end] (inclusive) under variant
  // `variant_index`.
  StageProfile Profile(int begin, int end, int variant_index) const;

  // Per-layer intra-op solution of a variant (plan reporting / final stage
  // compilation). Infeasible result if the variant cannot run the layer.
  // The reference stays valid for the profiler's lifetime.
  const IntraOpResult& LayerResult(int layer, int variant_index) const;
  const StageSubgraph& LayerSubgraph(int layer) const;

  const std::vector<StageVariant>& variants() const { return variants_; }
  // The DP's "shapes" view: the physical submesh of each variant.
  const std::vector<SubmeshShape>& dp_shapes() const { return dp_shapes_; }
  int num_layers() const { return num_layers_; }
  // ILP solves actually run by this instance (memo-cache hits excluded).
  int64_t num_ilp_solves() const { return num_ilp_solves_; }
  // Solve time summed over cells; under a pool this exceeds the elapsed
  // wall time of the constructor.
  double profiling_seconds() const { return profiling_seconds_; }
  // Process-wide memo cache traffic from this instance.
  int64_t cache_hits() const { return cache_hits_; }
  int64_t cache_misses() const { return cache_misses_; }

 private:
  // One dedup-canonical (layer, mesh group) slot: one build, one result
  // per memory mode, and the cell's share of the profiler's counters
  // (summed in cell order once the grid is solved).
  struct GroupCell {
    std::vector<IntraOpResult> results;  // Indexed like modes_.
    int64_t solves = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    double seconds = 0.0;
  };

  void SolveGroup(int canonical, int group, GroupCell* cell) const;

  const ClusterSpec& cluster_;
  std::vector<MemoryMode> modes_;  // Of every mesh group, time-optimal first.
  std::vector<StageVariant> variants_;
  std::vector<SubmeshShape> dp_shapes_;
  std::vector<int> dedup_layer_;  // layer -> first structurally equal layer.
  std::vector<uint64_t> layer_hashes_;  // StructuralHash per layer subgraph.
  StageProfilerOptions options_;
  int num_layers_ = 0;
  std::vector<StageSubgraph> layer_subgraphs_;
  std::vector<std::vector<GroupCell>> layer_cache_;  // [canonical layer][mesh group]
  int64_t num_ilp_solves_ = 0;
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
  double profiling_seconds_ = 0.0;
};

}  // namespace alpa

#endif  // SRC_INTER_STAGE_PROFILER_H_
