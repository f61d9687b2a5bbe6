// Inter-operator stage-slicing dynamic program (5.2, Eqs. 2-4).
//
// Given L (clustered) forward layers, B pipeline microbatches, and the set
// of candidate submesh shapes, finds the slicing of layers into stages and
// the submesh shape per stage minimizing
//     T = sum_i t_i + (B - 1) * max_j t_j                            (Eq. 2)
// subject to submeshes exactly covering the cluster and per-stage memory
// fitting the device. The DP enumerates t_max candidates ascending with
// epsilon pruning and early termination (performance optimization #1) and
// evaluates F(s, k, d; t_max) per Eq. 3.
#ifndef SRC_SOLVER_STAGE_DP_H_
#define SRC_SOLVER_STAGE_DP_H_

#include <functional>
#include <vector>

#include "src/mesh/cluster_spec.h"
#include "src/mesh/device_mesh.h"
#include "src/solver/ilp_solver.h"  // for kInfCost

namespace alpa {

// Cost and memory profile of executing layers [begin, end] on a submesh
// shape (already minimized over logical mesh shapes and intra-op plans by
// the caller). All byte quantities are per device.
struct StageProfile {
  double t_intra = kInfCost;            // Forward+backward latency per microbatch.
  double t_per_iteration = 0.0;         // Gradient sync + optimizer, once per iteration.
  double weight_bytes = 0.0;            // Parameters + optimizer state.
  double act_bytes_per_microbatch = 0.0;  // Stored activations for one in-flight microbatch.
  double work_bytes = 0.0;              // Transient working memory.
};

// profile(begin, end, shape_index): begin/end are inclusive layer indices;
// shape_index indexes the `shapes` vector passed to SolveStageDp.
using StageProfileFn = std::function<StageProfile(int begin, int end, int shape_index)>;

struct StageAssignment {
  int layer_begin = 0;  // Inclusive.
  int layer_end = 0;    // Inclusive.
  int shape_index = 0;
  double t_intra = 0.0;
};

struct StageDpOptions {
  // Override the per-device memory capacity used for feasibility (0 = the
  // cluster's). Benchmarks set this to infinity to let plans compile and
  // report OOM from the simulator instead (the "x" marks of Fig. 8/9).
  double device_memory_override = 0.0;
  // Subsample the sorted t_max candidates to at most this many (0 = all).
  // With subsampling the B*epsilon optimality bound of 5.2 widens to the
  // candidate spacing; 64 candidates keep the gap under 2% in practice.
  int max_tmax_candidates = 64;
};

struct StageDpResult {
  bool feasible = false;
  double total_latency = kInfCost;  // Eq. 2 for the returned slicing.
  double stage_latency_sum = 0.0;
  double max_stage_latency = 0.0;
  std::vector<StageAssignment> stages;
  int num_tmax_tried = 0;
  int64_t dp_transitions = 0;
};

StageDpResult SolveStageDp(int num_layers, int num_microbatches, const ClusterSpec& cluster,
                           const std::vector<SubmeshShape>& shapes, const StageProfileFn& profile,
                           const StageDpOptions& options = {});

}  // namespace alpa

#endif  // SRC_SOLVER_STAGE_DP_H_
