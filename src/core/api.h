// Public entry points of alpa-cpp.
//
// Parallelize() is the analogue of the paper's @parallelize decorator
// (Fig. 4): given a training graph and a cluster, it runs the three
// compilation passes (inter-op DP, intra-op ILP, runtime orchestration) and
// returns an executable parallel plan. Simulate() executes the plan on the
// analytical cluster model and reports iteration latency, aggregate PFLOPS
// (the paper's weak-scaling metric, 7.1), memory, and pipeline bubbles.
//
// The PRIMARY client API is alpa::serve::PlanService (src/serve/service.h):
// the same three operations as a request/response surface that runs
// in-process (InProcessPlanService, layered over the persistent plan cache)
// or against an alpa_serve daemon (RemotePlanService) without the caller
// changing. The free functions below remain as documented thin shims for
// one-shot compiles that want neither request plumbing nor caching.
//
// Failures are structured (src/support/status.h) rather than flag pairs:
//   kInvalidArgument   — a malformed cluster, or contradictory or
//                        out-of-range options
//   kInfeasible        — clustering/stage-DP found no plan under the budget
//   kResourceExhausted — the plan executes but a stage exceeds device memory
#ifndef SRC_CORE_API_H_
#define SRC_CORE_API_H_

#include <string>

#include "src/exec/executor.h"
#include "src/graph/graph.h"
#include "src/inter/inter_pass.h"
#include "src/mesh/cluster_spec.h"
#include "src/runtime/cross_mesh.h"
#include "src/runtime/simulator.h"
#include "src/support/status.h"

namespace alpa {

struct ParallelizeOptions {
  // Convenience mirror of inter.num_microbatches (the single source of
  // truth). 0 = inherit from `inter`; Finalize() rejects a conflict when
  // both are set explicitly.
  int num_microbatches = 0;
  PipelineScheduleType schedule = PipelineScheduleType::k1F1B;
  // false: the whole cluster is one mesh (the "intra-op only" baseline).
  bool enable_interop = true;
  // false: stages run on single devices without partitioning (the
  // "inter-op only" baseline).
  bool enable_intraop = true;
  ReshardStrategy reshard = ReshardStrategy::kLocalAllGather;
  // Non-empty: enable the process-wide trace for this compilation and write
  // the accumulated Chrome-trace JSON here after each entry point returns
  // (Parallelize after compiling, CompileAndSimulate again after
  // simulating, so the final file holds the unified timeline).
  std::string trace_path;
  InterOpOptions inter;

  // Resolves the mirror field into `inter` and validates everything.
  // kInvalidArgument when the mirror and an explicitly-set inter field
  // disagree, or a value is out of range. Idempotent; the entry points call
  // it on their private copy, so callers only need it to pre-validate.
  Status Finalize();

  class Builder;
};

// Fluent construction for the common call sites:
//   ParallelizeOptions::Builder().microbatches(16).threads(0).trace(path).Build()
// Setters write the authoritative InterOpOptions fields directly, so built
// options can never hit a mirror conflict. Build() CHECKs validity —
// builder misuse is a programming error, not an input error.
class ParallelizeOptions::Builder {
 public:
  Builder& microbatches(int n) {
    options_.inter.num_microbatches = n;
    return *this;
  }
  Builder& schedule(PipelineScheduleType s) {
    options_.schedule = s;
    return *this;
  }
  // Compilation worker threads (1 = serial, 0 = hardware concurrency).
  Builder& threads(int n) {
    options_.inter.compile_threads = n;
    return *this;
  }
  // Chrome-trace JSON output path; "" = tracing stays off.
  Builder& trace(std::string path) {
    options_.trace_path = std::move(path);
    return *this;
  }
  Builder& target_layers(int n) {
    options_.inter.target_layers = n;
    return *this;
  }
  Builder& interop(bool on) {
    options_.enable_interop = on;
    return *this;
  }
  Builder& intraop(bool on) {
    options_.enable_intraop = on;
    return *this;
  }
  Builder& reshard(ReshardStrategy s) {
    options_.reshard = s;
    return *this;
  }
  Builder& equal_layers(bool on) {
    options_.inter.equal_layer_stages = on;
    return *this;
  }
  // Node budget for each intra-op ILP solve (benchmark knob).
  Builder& search_budget(int64_t max_search_nodes) {
    options_.inter.profiler.intra.solver.max_search_nodes = max_search_nodes;
    return *this;
  }
  ParallelizeOptions Build() const;

 private:
  ParallelizeOptions options_;
};

struct ExecutionStats {
  double latency = 0.0;          // One training iteration.
  double total_flops = 0.0;      // Across the cluster, per iteration.
  double pflops = 0.0;           // Aggregate throughput (the Fig. 8 metric).
  double bubble_fraction = 0.0;  // Pipeline idle share.
  double peak_memory_bytes = 0.0;
  std::string ToString() const;
};

struct ParallelPlan {
  CompiledPipeline pipeline;
  PipelineSimInput sim_input;
  CompileStats compile_stats;
};

// Assembles the simulator/executor input from a compiled pipeline: stage
// execution profiles, cross-mesh transfer costs under `reshard`, the
// schedule, device placements, and the cluster's fault scenario. This is
// the ONLY construction path — Parallelize() calls it, and ExecutePlan()
// consumes its output — so stage_devices and fault specs cannot drift
// between the simulated and the executed pipeline.
PipelineSimInput BuildPipelineSimInput(const CompiledPipeline& pipeline,
                                       const ClusterSpec& cluster,
                                       PipelineScheduleType schedule, ReshardStrategy reshard);

// Runs the full compiler stack. `graph` is re-tagged in place by operator
// clustering. Errors: kInvalidArgument (a cluster that fails
// ClusterSpec::Validate, or bad options), kInfeasible (no plan). Every
// compile path (the service, the daemon, RepairPlan, the elastic loop)
// comes through here.
StatusOr<ParallelPlan> Parallelize(Graph& graph, const ClusterSpec& cluster,
                                   const ParallelizeOptions& options);

// Builds a measured-profile override from an executed plan: each stage's
// measured per-microbatch compute time (forward+backward, max across the
// stage's devices) keyed by its layer interval and submesh shape, with the
// median measured/analytical ratio calibrating every unmeasured candidate.
// Point InterOpOptions::profile_source at the returned object (it must
// outlive the pass) and re-run Parallelize to fold real execution times
// back into the stage-slicing DP.
MeasuredProfileSource BuildMeasuredProfileSource(const ParallelPlan& plan,
                                                 const exec::ExecResult& result);

// Executes the plan on the simulated cluster. Errors: kInvalidArgument
// (plan did not come from a successful Parallelize), kResourceExhausted
// (a stage's working set exceeds device memory; the message names the
// stage and the sizes).
StatusOr<ExecutionStats> Simulate(const ParallelPlan& plan, const Graph& graph,
                                  const ClusterSpec& cluster);

// One-call convenience used by the benchmarks. On kResourceExhausted the
// compiled plan is still stored to `plan_out`.
StatusOr<ExecutionStats> CompileAndSimulate(Graph& graph, const ClusterSpec& cluster,
                                            const ParallelizeOptions& options,
                                            ParallelPlan* plan_out = nullptr);

// Really executes the plan: one worker thread per logical device runs the
// static instruction lists over real float tensors (src/exec), consuming
// the plan's own sim_input so schedule and placements match the simulator
// by construction. Deterministic reduction mode reproduces the reference
// interpreter bit for bit. Errors: kInvalidArgument (plan did not come from
// a successful Parallelize, or kSignalOnly resharding).
StatusOr<exec::ExecResult> ExecutePlan(const ParallelPlan& plan, const Graph& graph,
                                       const ClusterSpec& cluster,
                                       const exec::ExecOptions& options = {});

// --- Plan repair after a permanent host failure -------------------------
//
// The paper compiles for a static healthy cluster. When the simulated
// runtime reports an unrecoverable device loss, RepairPlan() answers "what
// happens next": drop the failed host, recompile for the shrunk cluster
// (the process-wide ILP memo cache makes this a warm recompile — submesh
// profiles are keyed by shape, not placement, so most solves hit), and
// price the recovery against an MTBF model to get the goodput the job
// retains under recurring failures.

// Exponential-failure recovery model: how often a host dies and what one
// recovery costs beyond the recompile itself.
struct MtbfModel {
  // Mean time between failures for the whole cluster, in seconds.
  // <= 0 means "no recurring failures": goodput_fraction is 1.
  double mtbf_seconds = 0.0;
  // Checkpoint cadence; on average half an interval of work is lost.
  double checkpoint_interval_seconds = 600.0;
  // Time to load the last checkpoint onto the repaired cluster.
  double checkpoint_restore_seconds = 30.0;
};

struct RepairOptions {
  int failed_host = 0;  // Host to remove, in [0, cluster.num_hosts).
  MtbfModel mtbf;
};

struct RepairResult {
  ClusterSpec shrunk_cluster;  // Original minus one host, faults cleared.
  ParallelPlan plan;           // Compiled for the shrunk cluster.
  ExecutionStats stats;        // Simulated on the shrunk cluster.
  // Wall-clock cost of the recompile, and how warm the ILP cache was.
  double recompile_seconds = 0.0;
  int64_t ilp_cache_hits = 0;
  int64_t ilp_cache_misses = 0;
  // Downtime of one recovery: detection + recompile + checkpoint restore +
  // recomputing the work lost since the last checkpoint.
  double expected_downtime_seconds = 0.0;
  // Fraction of wall-clock time spent on useful training under the MTBF
  // model: mtbf / (mtbf + expected_downtime). 1 when mtbf_seconds <= 0.
  double goodput_fraction = 1.0;
  // stats.pflops scaled by goodput_fraction (the Fig. 8 metric under
  // failures).
  double goodput_pflops = 0.0;
  std::string ToString() const;
};

// Drops `options.failed_host` — plus every host named (via its devices)
// by `cluster.faults.device_failures` — from `cluster`, recompiles `graph`
// for the remaining hosts, and prices the recovery. Surviving hosts keep
// their per-host device overrides. Errors: kInvalidArgument (failed_host
// or a fault device out of range, or the fault scenario leaves ZERO
// feasible submeshes — every host lost), kInfeasible (single-host cluster,
// or no plan fits the shrunk cluster), kResourceExhausted (the shrunk
// plan OOMs).
StatusOr<RepairResult> RepairPlan(Graph& graph, const ClusterSpec& cluster,
                                  const ParallelizeOptions& parallelize_options,
                                  const RepairOptions& options);

}  // namespace alpa

#endif  // SRC_CORE_API_H_
