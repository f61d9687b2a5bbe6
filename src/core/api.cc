#include "src/core/api.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/support/logging.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace alpa {

namespace {

// Flushes the accumulated trace to options.trace_path, if requested. Each
// entry point flushes on exit, so the last call in a
// Parallelize-then-Simulate sequence overwrites with the full timeline.
void MaybeWriteTrace(const ParallelizeOptions& options) {
  if (options.trace_path.empty()) {
    return;
  }
  const Status status = Trace::WriteJson(options.trace_path);
  if (!status.ok()) {
    ALPA_LOG(WARNING) << "trace export failed: " << status.ToString();
  }
}

}  // namespace

Status ParallelizeOptions::Finalize() {
  static const InterOpOptions kInterDefaults;
  if (num_microbatches < 0) {
    return Status::InvalidArgument(
        StrFormat("num_microbatches must be positive (or 0 = inherit), got %d",
                  num_microbatches));
  }
  if (num_microbatches > 0) {
    if (inter.num_microbatches != kInterDefaults.num_microbatches &&
        inter.num_microbatches != num_microbatches) {
      return Status::InvalidArgument(StrFormat(
          "num_microbatches set on both ParallelizeOptions (%d) and "
          "InterOpOptions (%d); set it once — InterOpOptions is authoritative",
          num_microbatches, inter.num_microbatches));
    }
    inter.num_microbatches = num_microbatches;
  }
  if (inter.num_microbatches <= 0) {
    return Status::InvalidArgument(StrFormat("inter.num_microbatches must be positive, got %d",
                                             inter.num_microbatches));
  }

  if (inter.compile_threads < 0) {
    return Status::InvalidArgument(
        StrFormat("inter.compile_threads must be >= 0, got %d", inter.compile_threads));
  }
  // The mirror keeps its sentinel/user value: a finalized options object
  // can be used as a template whose inter.* fields are tweaked and
  // re-finalized (the benchmarks' BaselineOptionTemplate pattern).
  return Status::Ok();
}

ParallelizeOptions ParallelizeOptions::Builder::Build() const {
  ParallelizeOptions options = options_;
  const Status status = options.Finalize();
  ALPA_CHECK(status.ok()) << "invalid builder configuration: " << status.ToString();
  return options;
}

StatusOr<ParallelPlan> Parallelize(Graph& graph, const ClusterSpec& cluster,
                                   const ParallelizeOptions& options) {
  ALPA_RETURN_IF_ERROR(cluster.Validate());
  ParallelizeOptions opts = options;
  ALPA_RETURN_IF_ERROR(opts.Finalize());
  if (!opts.trace_path.empty()) {
    Trace::Enable();
    Trace::SetThreadName("main");  // The lane driving compilation.
  }
  TraceSpan span("parallelize");

  ParallelPlan plan;
  InterOpOptions inter = opts.inter;

  // Infer the training precision from the parameters (fp16 models use
  // tensor cores; fp32 models like Wide-ResNet do not).
  bool any_f32_param = false;
  for (int id : graph.ParameterIds()) {
    any_f32_param |= graph.op(id).dtype == DType::kF32;
  }
  inter.profiler.intra.precision =
      any_f32_param ? Precision::kFloat32 : Precision::kFloat16;

  if (!opts.enable_interop) {
    // The whole cluster is a single mesh; the DP degenerates to one stage.
    inter.submesh_shapes = {SubmeshShape{cluster.num_hosts, cluster.devices_per_host}};
    if (inter.target_layers == 0 && graph.NumLayers() == 0) {
      inter.target_layers = 1;
    }
  }
  if (!opts.enable_intraop) {
    // Stages execute unpartitioned: single-device submeshes only, and the
    // intra-op pass restricted to fully replicated layouts.
    inter.submesh_shapes = {SubmeshShape{1, 1}};
    inter.profiler.intra.filter = [](const Graph&, const DeviceMesh&, const Operator&,
                                     const ParallelAlgorithm& a) {
      return a.output_spec.IsFullyReplicated() &&
             std::all_of(a.input_specs.begin(), a.input_specs.end(),
                         [](const ShardingSpec& s) { return s.IsFullyReplicated(); });
    };
  }

  plan.pipeline = RunInterOpPass(graph, cluster, inter);
  plan.compile_stats = plan.pipeline.stats;
  if (!plan.pipeline.feasible) {
    MaybeWriteTrace(opts);
    return Status::Infeasible(plan.pipeline.infeasible_reason.empty()
                                  ? "inter-op pass found no feasible plan"
                                  : plan.pipeline.infeasible_reason);
  }

  // Orchestration: assemble per-stage execution profiles and cross-mesh
  // transfer costs for the simulator and the executor.
  TraceSpan orchestration_span("orchestrate");
  plan.sim_input = BuildPipelineSimInput(plan.pipeline, cluster, opts.schedule, opts.reshard);
  MaybeWriteTrace(opts);
  return plan;
}

PipelineSimInput BuildPipelineSimInput(const CompiledPipeline& pipeline,
                                       const ClusterSpec& cluster,
                                       PipelineScheduleType schedule, ReshardStrategy reshard) {
  PipelineSimInput input;
  const auto& stages = pipeline.stages;
  input.num_microbatches = pipeline.num_microbatches;
  input.schedule = schedule;
  input.device_memory_bytes = cluster.device.memory_bytes;
  // The compiler assumes a healthy cluster; the fault scenario only affects
  // the simulated execution of the finished plan.
  input.faults = cluster.faults;
  input.devices_per_host = cluster.devices_per_host;
  const bool hetero = cluster.heterogeneous();
  for (size_t s = 0; s < stages.size(); ++s) {
    const CompiledStage& stage = stages[s];
    input.stage_devices.push_back(stage.device_ids);
    if (hetero) {
      // Mixed generations: each stage is bounded by the tightest device its
      // placement spans, not the reference capacity.
      input.stage_memory_bytes.push_back(PlacementMemoryBytes(cluster, stage.placement));
    }
    StageExecProfile profile;
    profile.t_forward = stage.t_forward;
    profile.t_backward = stage.t_backward;
    profile.t_update = stage.t_per_iteration;
    profile.weight_bytes = stage.weight_bytes;
    profile.act_bytes_per_microbatch = stage.act_bytes_per_microbatch;
    profile.work_bytes = stage.work_bytes;
    if (s + 1 < stages.size()) {
      const DeviceMesh src = DeviceMesh::Create(cluster, stage.placement, stage.logical_shape);
      const DeviceMesh dst = DeviceMesh::Create(cluster, stages[s + 1].placement,
                                                stages[s + 1].logical_shape);
      double transfer = 0.0;
      for (const CrossStageTensor& tensor : stage.sends_to_next) {
        transfer += CrossMeshReshardTime(src, tensor.src_spec, dst, tensor.dst_spec,
                                         tensor.shape, tensor.dtype_bytes, reshard);
      }
      profile.t_send_next = transfer;
    }
    input.stages.push_back(profile);
  }
  return input;
}

StatusOr<exec::ExecResult> ExecutePlan(const ParallelPlan& plan, const Graph& graph,
                                       const ClusterSpec& cluster,
                                       const exec::ExecOptions& options) {
  if (!plan.pipeline.feasible) {
    return Status::InvalidArgument(
        "ExecutePlan() needs a plan from a successful Parallelize() call");
  }
  TraceSpan span("execute_plan", "exec");
  return exec::ExecutePipeline(graph, plan.pipeline, cluster, plan.sim_input, options);
}

MeasuredProfileSource BuildMeasuredProfileSource(const ParallelPlan& plan,
                                                 const exec::ExecResult& result) {
  MeasuredProfileSource source;
  const int microbatches = std::max(1, plan.pipeline.num_microbatches);
  for (const exec::StageTiming& timing : result.stage_timings) {
    if (timing.stage < 0 ||
        timing.stage >= static_cast<int>(plan.pipeline.stages.size())) {
      continue;
    }
    const CompiledStage& stage = plan.pipeline.stages[static_cast<size_t>(timing.stage)];
    source.AddMeasurement(stage.layer_begin, stage.layer_end, stage.placement.shape,
                          timing.compute_seconds() / microbatches, stage.t_intra);
  }
  source.Finalize();
  return source;
}

StatusOr<ExecutionStats> Simulate(const ParallelPlan& plan, const Graph& graph,
                                  const ClusterSpec& cluster) {
  if (!plan.pipeline.feasible) {
    return Status::InvalidArgument(
        "Simulate() needs a plan from a successful Parallelize() call");
  }
  TraceSpan span("simulate");
  PipelineSimInput sim_input = plan.sim_input;
  if (Trace::enabled()) {
    sim_input.record_timeline = true;
  }
  const PipelineSimResult sim = SimulatePipeline(sim_input);
  ExportTimelineToTrace(sim_input, sim, "train_iteration");

  ExecutionStats stats;
  stats.latency = sim.latency;
  stats.bubble_fraction = sim.bubble_fraction;
  for (double peak : sim.stage_peak_bytes) {
    stats.peak_memory_bytes = std::max(stats.peak_memory_bytes, peak);
  }
  const double per_microbatch =
      graph.FlopsForRole(OpRole::kForward) + graph.FlopsForRole(OpRole::kBackward);
  stats.total_flops = per_microbatch * plan.sim_input.num_microbatches +
                      graph.FlopsForRole(OpRole::kUpdate);
  stats.pflops = stats.latency > 0.0 ? stats.total_flops / stats.latency / 1e15 : 0.0;
  if (sim.oom) {
    const double peak = sim.first_oom_stage >= 0
                            ? sim.stage_peak_bytes[static_cast<size_t>(sim.first_oom_stage)]
                            : stats.peak_memory_bytes;
    const size_t oom_stage = static_cast<size_t>(std::max(sim.first_oom_stage, 0));
    const double capacity = oom_stage < plan.sim_input.stage_memory_bytes.size()
                                ? plan.sim_input.stage_memory_bytes[oom_stage]
                                : plan.sim_input.device_memory_bytes;
    return Status::ResourceExhausted(
        StrFormat("stage %d exceeds device memory: peak %s > capacity %s",
                  sim.first_oom_stage, HumanBytes(peak).c_str(),
                  HumanBytes(capacity).c_str()));
  }
  return stats;
}

StatusOr<ExecutionStats> CompileAndSimulate(Graph& graph, const ClusterSpec& cluster,
                                            const ParallelizeOptions& options,
                                            ParallelPlan* plan_out) {
  StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
  if (!plan.ok()) {
    return plan.status();
  }
  StatusOr<ExecutionStats> stats = Simulate(*plan, graph, cluster);
  if (plan_out != nullptr) {
    *plan_out = std::move(*plan);
  }
  MaybeWriteTrace(options);
  return stats;
}

StatusOr<RepairResult> RepairPlan(Graph& graph, const ClusterSpec& cluster,
                                  const ParallelizeOptions& parallelize_options,
                                  const RepairOptions& options) {
  if (options.failed_host < 0 || options.failed_host >= cluster.num_hosts) {
    return Status::InvalidArgument(StrFormat("failed_host %d out of range [0, %d)",
                                             options.failed_host, cluster.num_hosts));
  }
  // Repair requests arrive over the wire; a non-finite or negative model
  // field would be priced into a negative or NaN goodput.
  const MtbfModel& mtbf = options.mtbf;
  if (!std::isfinite(mtbf.mtbf_seconds) || !std::isfinite(mtbf.checkpoint_interval_seconds) ||
      !std::isfinite(mtbf.checkpoint_restore_seconds) ||
      mtbf.checkpoint_interval_seconds < 0.0 || mtbf.checkpoint_restore_seconds < 0.0) {
    return Status::InvalidArgument(
        StrFormat("MTBF model needs finite fields and a non-negative checkpoint interval and "
                  "restore (got mtbf=%g interval=%g restore=%g)",
                  mtbf.mtbf_seconds, mtbf.checkpoint_interval_seconds,
                  mtbf.checkpoint_restore_seconds));
  }
  if (cluster.num_hosts <= 1) {
    return Status::Infeasible(
        "cannot repair a single-host cluster: no hosts remain after dropping "
        "the failed one");
  }
  TraceSpan span("repair_plan");

  // Every host carrying a permanent device failure is as gone as the failed
  // host — a submesh containing one can never finish an iteration, and
  // submeshes span whole hosts (5.2), so dead hosts drop at host
  // granularity. A scenario that kills every host leaves zero feasible
  // submeshes and must be rejected, not compiled for a phantom cluster.
  std::set<int> dead_hosts = {options.failed_host};
  for (const DeviceFailure& failure : cluster.faults.device_failures) {
    // Range-check the device itself: division truncates toward zero, so a
    // small negative device would otherwise map to host 0.
    if (failure.device < 0 || failure.device >= cluster.num_devices()) {
      return Status::InvalidArgument(
          StrFormat("fault scenario names device %d outside the cluster's %d devices",
                    failure.device, cluster.num_devices()));
    }
    dead_hosts.insert(failure.device / cluster.devices_per_host);
  }
  if (static_cast<int>(dead_hosts.size()) == cluster.num_hosts) {
    return Status::InvalidArgument(
        "fault scenario leaves zero feasible submeshes: every host is lost "
        "(failed_host plus permanent device failures cover the whole cluster)");
  }

  RepairResult result;
  // The repaired job runs on the survivors with the fault scenario consumed
  // (the failures already happened; transient-fault fields would
  // double-charge the repaired run).
  result.shrunk_cluster = cluster.WithoutHosts(dead_hosts);
  result.shrunk_cluster.faults = FaultSpec{};

  ParallelizeOptions opts = parallelize_options;
  opts.trace_path.clear();  // The caller's trace flushes once, at the end.
  StatusOr<ParallelPlan> plan = Parallelize(graph, result.shrunk_cluster, opts);
  if (!plan.ok()) {
    return plan.status();
  }
  result.recompile_seconds = plan->compile_stats.total_seconds;
  result.ilp_cache_hits = plan->compile_stats.ilp_cache_hits;
  result.ilp_cache_misses = plan->compile_stats.ilp_cache_misses;
  StatusOr<ExecutionStats> stats = Simulate(*plan, graph, result.shrunk_cluster);
  if (!stats.ok()) {
    return stats.status();
  }
  result.plan = std::move(*plan);
  result.stats = *stats;

  result.expected_downtime_seconds = cluster.faults.detection_timeout +
                                     result.recompile_seconds +
                                     mtbf.checkpoint_restore_seconds +
                                     0.5 * mtbf.checkpoint_interval_seconds;
  if (mtbf.mtbf_seconds > 0.0) {
    result.goodput_fraction =
        mtbf.mtbf_seconds / (mtbf.mtbf_seconds + result.expected_downtime_seconds);
  }
  result.goodput_pflops = result.stats.pflops * result.goodput_fraction;
  return result;
}

std::string RepairResult::ToString() const {
  return StrFormat(
      "RepairResult: %d hosts remain, %s, recompile=%s (ilp cache %lld hit / "
      "%lld miss), downtime=%s, goodput=%.1f%% (%.3f pflops)",
      shrunk_cluster.num_hosts, stats.ToString().c_str(),
      HumanSeconds(recompile_seconds).c_str(), static_cast<long long>(ilp_cache_hits),
      static_cast<long long>(ilp_cache_misses),
      HumanSeconds(expected_downtime_seconds).c_str(), goodput_fraction * 100.0,
      goodput_pflops);
}

std::string ExecutionStats::ToString() const {
  return StrFormat("latency=%s pflops=%.3f bubble=%.1f%% peak_mem=%s",
                   HumanSeconds(latency).c_str(), pflops, bubble_fraction * 100.0,
                   HumanBytes(peak_memory_bytes).c_str());
}

}  // namespace alpa
