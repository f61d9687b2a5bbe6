// The transport-agnostic plan service interface.
//
// PlanService is the primary client API of alpa-cpp: a request/response
// surface over the compiler (Parallelize), the analytical simulator
// (Simulate), and plan repair (Repair). Two implementations exist:
//
//   InProcessPlanService — runs the passes in this process, layered over
//     the process-wide plan cache (src/serve/plan_cache) and ILP memo.
//     This is what the free functions in src/core/api.h now delegate their
//     service-shaped siblings to; the free functions remain as thin shims
//     for callers that want a one-shot compile without request plumbing.
//
//   RemotePlanService (src/serve/client.h) — speaks the wire format
//     (src/serve/wire.h) to an alpa_serve daemon over a unix socket.
//     Requests carry only the serializable subset of options; local-only
//     fields (profile_source, trace_path, compile_threads) are ignored.
//
// Code written against PlanService runs unchanged in both modes — the
// bench/example `--server <socket>` flag swaps the implementation, nothing
// else (bench_util::MakePlanService).
#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/api.h"
#include "src/serve/plan_cache.h"
#include "src/support/status.h"

namespace alpa {
namespace serve {

// The options a plan request carries. The serialized fields are exactly
// what crosses the wire to a remote server; the local-only fields apply
// only in-process and silently do nothing remotely (a remote server picks
// its own thread budget and cannot dereference a caller's closure).
struct PlanRequestOptions {
  // --- Serialized ---
  int num_microbatches = 0;  // 0 = library default.
  int target_layers = 0;     // 0 = library default.
  PipelineScheduleType schedule = PipelineScheduleType::k1F1B;
  bool enable_interop = true;
  bool enable_intraop = true;
  bool equal_layer_stages = false;
  ReshardStrategy reshard = ReshardStrategy::kLocalAllGather;
  int64_t max_search_nodes = 0;  // Per-ILP node budget; 0 = library default.
  // Soft compute deadline. 0 = none. In-process (and on the server) the
  // remaining deadline scales the ILP search budget down so the compile
  // lands inside it; a request that is already past its deadline when a
  // worker picks it up fails with kDeadlineExceeded without compiling.
  double deadline_seconds = 0.0;
  // Admission-control identity. The server schedules tenants round-robin
  // and bounds each tenant's queue, so one chatty tenant cannot starve the
  // rest. Purely informational in-process.
  std::string tenant = "default";
  // Consult/populate the process-wide (and, if configured, disk-backed)
  // plan cache.
  bool use_plan_cache = true;

  // --- Local-only (never serialized) ---
  // Compilation worker threads (1 = serial, 0 = hardware concurrency);
  // lowers into inter.compile_threads. Plans are identical for any value.
  int compile_threads = 1;
  // Measured-profile override (see src/inter/profile_feedback.h). Not
  // owned; must outlive the call. A source without a stable Fingerprint()
  // makes the request uncacheable.
  const ProfileSource* profile_source = nullptr;
  // Chrome-trace JSON output path ("" = off).
  std::string trace_path;

  // Lowers to the legacy options struct (resolving 0-means-default
  // fields). kInvalidArgument on out-of-range values.
  StatusOr<ParallelizeOptions> ToParallelizeOptions() const;
};

struct PlanRequest {
  Graph graph;
  ClusterSpec cluster;
  PlanRequestOptions options;
};

class PlanService {
 public:
  virtual ~PlanService() = default;

  // Compiles a parallel plan for the request's graph/cluster.
  virtual StatusOr<ParallelPlan> Parallelize(const PlanRequest& request) = 0;
  // Prices `plan` on the request's cluster with the analytical simulator.
  virtual StatusOr<ExecutionStats> Simulate(const PlanRequest& request,
                                            const ParallelPlan& plan) = 0;
  // Drops `repair.failed_host`, recompiles for the shrunk cluster, prices
  // the recovery.
  virtual StatusOr<RepairResult> Repair(const PlanRequest& request,
                                        const RepairOptions& repair) = 0;

  // Parallelize + Simulate. On kResourceExhausted the compiled plan is
  // still stored to `plan_out` (mirrors core CompileAndSimulate).
  StatusOr<ExecutionStats> CompileAndSimulate(const PlanRequest& request,
                                              ParallelPlan* plan_out = nullptr);

  // Implementation name for logs/benchmark tables ("in-process",
  // "remote(<socket>)").
  virtual std::string name() const = 0;
};

// Outcome annotations of the last Parallelize on an InProcessPlanService
// (observability for benches and the server's metrics lanes).
struct CompileOutcome {
  bool plan_cache_hit = false;
  bool plan_cache_eligible = false;
  // The request's plan-cache key, valid when plan_cache_eligible. The
  // --elastic daemon records the served plan under it in its speculation
  // ledger instead of hashing the request a second time.
  PlanCacheKey key;
  // This call ran the compiler (single-flight leader or uncacheable
  // request) rather than riding a cache hit or another caller's compile.
  bool compiled = false;
  // This call blocked on a concurrent compile of the same key and
  // received the leader's result (or its error).
  bool flight_follower = false;
  double seconds = 0.0;
};

class InProcessPlanService : public PlanService {
 public:
  InProcessPlanService() = default;

  StatusOr<ParallelPlan> Parallelize(const PlanRequest& request) override;
  StatusOr<ExecutionStats> Simulate(const PlanRequest& request,
                                    const ParallelPlan& plan) override;
  StatusOr<RepairResult> Repair(const PlanRequest& request, const RepairOptions& repair) override;
  std::string name() const override { return "in-process"; }

  // Stats of the most recent Parallelize (not thread-safe; the server
  // keeps one service per worker).
  const CompileOutcome& last_outcome() const { return last_outcome_; }

 private:
  CompileOutcome last_outcome_;
};

// Nodes-per-second heuristic converting a remaining deadline into an ILP
// search-node budget (deliberately conservative so deadline-capped
// compiles finish early, not late).
inline constexpr double kSearchNodesPerSecond = 2e5;

}  // namespace serve
}  // namespace alpa

#endif  // SRC_SERVE_SERVICE_H_
