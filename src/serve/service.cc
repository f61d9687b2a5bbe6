#include "src/serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/serve/plan_cache.h"
#include "src/serve/plan_db.h"
#include "src/serve/wire.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace alpa {
namespace serve {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StatusOr<ParallelizeOptions> PlanRequestOptions::ToParallelizeOptions() const {
  if (!std::isfinite(deadline_seconds)) {
    return Status::InvalidArgument("plan request: deadline_seconds is not finite");
  }
  if (num_microbatches < 0 || target_layers < 0 || max_search_nodes < 0 ||
      deadline_seconds < 0) {
    return Status::InvalidArgument("plan request: negative option field");
  }
  ParallelizeOptions options;
  options.schedule = schedule;
  options.enable_interop = enable_interop;
  options.enable_intraop = enable_intraop;
  options.reshard = reshard;
  options.inter.compile_threads = compile_threads;
  options.trace_path = trace_path;
  if (num_microbatches > 0) {
    options.inter.num_microbatches = num_microbatches;
  }
  if (target_layers > 0) {
    options.inter.target_layers = target_layers;
  }
  options.inter.equal_layer_stages = equal_layer_stages;
  options.inter.profile_source = profile_source;
  int64_t budget = max_search_nodes > 0
                       ? max_search_nodes
                       : options.inter.profiler.intra.solver.max_search_nodes;
  if (deadline_seconds > 0) {
    // Cap the per-solve budget so the whole compile has a chance of
    // landing inside the deadline, above a 1000-node floor. Capped budgets
    // are where searches abort; an aborted solve still returns the
    // search's best incumbent with a proven gap. Compared in double: a
    // long deadline's node count can exceed int64, and a deadline may
    // only lower the budget.
    const double deadline_budget = std::max(1000.0, deadline_seconds * kSearchNodesPerSecond);
    if (deadline_budget < static_cast<double>(budget)) {
      budget = static_cast<int64_t>(deadline_budget);
    }
  }
  options.inter.profiler.intra.solver.max_search_nodes = budget;
  ALPA_RETURN_IF_ERROR(options.Finalize());
  return options;
}

StatusOr<ExecutionStats> PlanService::CompileAndSimulate(const PlanRequest& request,
                                                         ParallelPlan* plan_out) {
  auto plan = Parallelize(request);
  if (!plan.ok()) {
    return plan.status();
  }
  if (plan_out != nullptr) {
    *plan_out = plan.value();
  }
  return Simulate(request, plan.value());
}

StatusOr<ParallelPlan> InProcessPlanService::Parallelize(const PlanRequest& request) {
  const double start = NowSeconds();
  last_outcome_ = CompileOutcome();

  auto options = request.options.ToParallelizeOptions();
  if (!options.ok()) {
    return options.status();
  }

  static Metric* compiles_metric = Metrics::Get("serve/compiles");

  PlanCacheKey key;
  const bool cacheable =
      request.options.use_plan_cache &&
      ComputePlanCacheKey(request.graph, request.cluster, options.value(), &key);
  last_outcome_.plan_cache_eligible = cacheable;
  last_outcome_.key = key;
  if (cacheable) {
    // Single-flight: hit the cache, ride a concurrent compile of the same
    // key, or get elected leader. Only the leader runs the compiler. A
    // follower waits at most its own deadline: riding a leader whose
    // compile outlives it would return far past the deadline instead of
    // failing fast.
    ParallelPlan cached;
    Status flight_status = Status::Ok();
    const FlightOutcome outcome = PlanCache::Global().JoinFlight(
        key, &cached, &flight_status, request.options.deadline_seconds);
    if (outcome == FlightOutcome::kHit) {
      last_outcome_.plan_cache_hit = true;
      last_outcome_.seconds = NowSeconds() - start;
      return cached;
    }
    if (outcome == FlightOutcome::kFailed) {
      last_outcome_.flight_follower = true;
      last_outcome_.seconds = NowSeconds() - start;
      return flight_status;
    }
  }

  // Parallelize re-tags layers in place; the service keeps the caller's
  // request immutable, so compile a private copy.
  last_outcome_.compiled = true;
  compiles_metric->Add(1);
  Graph graph = request.graph;
  auto plan = alpa::Parallelize(graph, request.cluster, options.value());
  last_outcome_.seconds = NowSeconds() - start;
  if (cacheable) {
    // Publish (insert + wake followers) on success, propagate the error
    // to followers on failure.
    PlanCache::Global().FinishFlight(key, plan);
  }
  if (plan.ok() && cacheable) {
    // Results-database record: one per real compile, keyed like the cache.
    const CompileStats& stats = plan.value().compile_stats;
    PlanRecord record;
    record.key = key;
    record.tenant = request.options.tenant;
    record.profile_fingerprint = request.options.profile_source != nullptr
                                     ? request.options.profile_source->Fingerprint()
                                     : 0;
    record.num_ops = static_cast<int32_t>(request.graph.ops().size());
    record.num_hosts = request.cluster.num_hosts;
    record.devices_per_host = request.cluster.devices_per_host;
    record.num_stages = static_cast<int32_t>(plan.value().pipeline.stages.size());
    record.compile_seconds = last_outcome_.seconds;
    record.objective = plan.value().pipeline.dp_latency;
    record.optimality_gap = stats.max_optimality_gap;
    record.ilp_aborts = stats.ilp_aborts;
    record.plan_bytes = static_cast<int64_t>(SerializePlan(plan.value()).size());
    PlanDb::Global().Put(record);
  }
  return plan;
}

StatusOr<ExecutionStats> InProcessPlanService::Simulate(const PlanRequest& request,
                                                        const ParallelPlan& plan) {
  return alpa::Simulate(plan, request.graph, request.cluster);
}

StatusOr<RepairResult> InProcessPlanService::Repair(const PlanRequest& request,
                                                    const RepairOptions& repair) {
  auto options = request.options.ToParallelizeOptions();
  if (!options.ok()) {
    return options.status();
  }
  Graph graph = request.graph;
  return alpa::RepairPlan(graph, request.cluster, options.value(), repair);
}

}  // namespace serve
}  // namespace alpa
