// The inter-operator compilation pass (5).
//
// Clusters the graph's forward operators into layers (Eq. 5), profiles
// layer intervals on every candidate submesh shape via the intra-op pass,
// runs the stage-slicing DP (Eqs. 2-4), and materializes the chosen stages:
// concrete placements covering the cluster (Theorem 1), logical mesh
// shapes, per-stage latencies/memory, and cross-stage boundary tensors.
#ifndef SRC_INTER_INTER_PASS_H_
#define SRC_INTER_INTER_PASS_H_

#include <optional>
#include <string>
#include <vector>

#include "src/inter/profile_feedback.h"
#include "src/inter/stage_profiler.h"
#include "src/mesh/submesh.h"
#include "src/solver/operator_clustering.h"
#include "src/solver/stage_dp.h"
#include "src/spec/sharding_spec.h"

namespace alpa {

struct InterOpOptions {
  int num_microbatches = 16;
  // Operator clustering (Eq. 5). 0 keeps the builder-assigned layer tags.
  int target_layers = 8;
  ClusteringMethod clustering = ClusteringMethod::kDpCommBalanced;
  // "Equal layer" ablation (7.3): all stages get the same number of layers.
  bool equal_layer_stages = false;
  StageDpOptions dp;
  StageProfilerOptions profiler;
  // Restrict the submesh shapes (e.g. only (1,1) for the inter-op-only
  // baseline); empty = the full 5.2 space.
  std::vector<SubmeshShape> submesh_shapes;
  // Worker threads for the profiler's (layer x mesh) ILP sweep, the pass's
  // one parallel phase; clustering, the stage DP and materialization run
  // on the calling thread. 1 = fully serial (no pool is created); 0 =
  // hardware concurrency. Results are bit-identical for any thread count:
  // each cell writes its own slot and counters merge in cell order.
  int compile_threads = 1;
  // When non-null, every profile the stage DP and the stage
  // materialization fetch passes through this hook — measured execution
  // times override the analytical costs (see profile_feedback.h). Not
  // owned; must outlive the pass. Called only from the compiling thread.
  const ProfileSource* profile_source = nullptr;
  // Heterogeneity-aware stage assignment. On mixed-generation clusters
  // (ClusterSpec::host_devices), same-shape placements are interchangeable;
  // when true, materialization matches the slowest stages to the fastest
  // meshes (rearrangement inequality: it minimizes both the sum and the max
  // of the scaled stage latencies in Eq. 2). When false, placements keep
  // the DP's naive in-order assignment. Either way stage latencies are
  // scaled by the placement's actual generation (PlacementTimeScale) and
  // memory feasibility is re-checked against the placement's real capacity,
  // so the false setting prices the uniform-assumption plan honestly.
  // No effect on homogeneous clusters.
  bool hetero_aware = true;
};

// A tensor crossing a stage boundary, with the layouts on both sides.
struct CrossStageTensor {
  TensorShape shape;
  int64_t dtype_bytes = 2;
  ShardingSpec src_spec;
  ShardingSpec dst_spec;
  bool forward = true;  // Activation (fwd) or gradient (bwd).
  // Full-graph id of the op producing this tensor — the key the executor
  // uses to bind instruction-list sends/recvs to concrete buffers.
  int producer_op = -1;
};

struct CompiledStage {
  int layer_begin = 0;
  int layer_end = 0;
  MeshPlacement placement;
  std::array<int, 2> logical_shape = {1, 1};
  // Global ids of the devices backing this stage (derived from `placement`;
  // the simulator's fault model resolves per-device faults through these).
  std::vector<int> device_ids;
  // Per-microbatch forward+backward latency and its split.
  double t_intra = 0.0;
  double t_forward = 0.0;
  double t_backward = 0.0;
  // Once-per-iteration gradient sync + optimizer latency.
  double t_per_iteration = 0.0;
  // Per-device memory profile.
  double weight_bytes = 0.0;
  double act_bytes_per_microbatch = 0.0;
  double work_bytes = 0.0;
  // Tensors sent to the next stage (per microbatch, forward direction).
  // Backward gradients flow along the same tensors in reverse.
  std::vector<CrossStageTensor> sends_to_next;
  // (op name, chosen sharding spec) of the stage's forward contraction ops
  // and parameters — the Fig. 13 visualization data.
  std::vector<std::pair<std::string, std::string>> op_spec_summary;
};

struct CompileStats {
  double clustering_seconds = 0.0;
  // Intra-op ILP solve time (compilation + profiling analogue), summed
  // across worker threads; exceeds wall time under a pool.
  double profiling_seconds = 0.0;
  // Elapsed wall time of the profiling phase: the profiler's construction,
  // which extracts the layers and solves the whole (layer x mesh) grid.
  double profiling_wall_seconds = 0.0;
  // Wall time of the stage DP alone (it only reads solved profiles).
  double dp_seconds = 0.0;
  double other_seconds = 0.0;
  double total_seconds = 0.0;
  int64_t ilp_solves = 0;
  int64_t ilp_cache_hits = 0;    // Process-wide memo cache hits.
  int64_t ilp_cache_misses = 0;  // Cacheable solves that missed.
  int num_tmax_tried = 0;
  int threads_used = 1;
  // Anytime accounting over the layers of the CHOSEN stages only: how many
  // of their intra-op solves hit the search budget, and the worst relative
  // optimality gap among them. 0/0.0 means every chosen solve is proven
  // optimal; a positive gap is the anytime contract's quality report (the
  // plan is feasible and at most this far from the intra-op optimum).
  int64_t ilp_aborts = 0;
  double max_optimality_gap = 0.0;
  // Sum of the aborted solves' gaps (mean = sum / ilp_aborts); lets
  // reporting distinguish one bad stage from uniformly loose stages.
  double sum_optimality_gap = 0.0;
};

struct CompiledPipeline {
  bool feasible = false;
  // Human-readable cause when !feasible (which pass failed and why); the
  // public API surfaces it as Status::Infeasible.
  std::string infeasible_reason;
  std::vector<CompiledStage> stages;
  int num_microbatches = 1;
  // Eq. 2 estimate from the DP (the simulator refines this).
  double dp_latency = kInfCost;
  double max_stage_latency = 0.0;
  CompileStats stats;
  std::string ToString() const;
};

CompiledPipeline RunInterOpPass(Graph& graph, const ClusterSpec& cluster,
                                const InterOpOptions& options);

// Exact (bit-level) equality of two compiled pipelines: stage slicing,
// placements, logical shapes, every latency/memory double, boundary
// tensors, and op spec summaries. Timing stats are deliberately excluded.
// The parallel compiler's determinism guarantee is stated in terms of this
// predicate: compiling with 1 and N threads must satisfy PlanEquals.
bool PlanEquals(const CompiledPipeline& a, const CompiledPipeline& b);

}  // namespace alpa

#endif  // SRC_INTER_INTER_PASS_H_
