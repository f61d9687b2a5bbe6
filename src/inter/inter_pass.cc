#include "src/inter/inter_pass.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "src/mesh/device_mesh.h"
#include "src/support/logging.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alpa {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One candidate stage count of the equal-layer search: DP over
// stages x remaining devices with fixed stage boundaries.
StageDpResult SolveEqualLayerForCount(int num_stages, int num_layers, int num_microbatches,
                                      const std::vector<SubmeshShape>& shapes,
                                      const StageProfileFn& profile, int total_devices,
                                      double memory) {
  StageDpResult result;
  const int span = num_layers / num_stages;
  const size_t num_shapes = shapes.size();
  // Profiles are fetched once per (stage, shape) and reused by both the DP
  // and the reconstruction below. Re-invoking profile() while
  // reconstructing — as an earlier version did — repeats profiler work and
  // lets the reconstructed plan silently diverge from the DP's costs if
  // the profile function is not a pure cache.
  std::vector<StageProfile> stage_profiles(static_cast<size_t>(num_stages) * num_shapes);
  const auto profile_at = [&](int s, size_t shape_index) -> const StageProfile& {
    return stage_profiles[static_cast<size_t>(s) * num_shapes + shape_index];
  };
  for (int s = 0; s < num_stages; ++s) {
    const int begin = s * span;
    for (size_t shape_index = 0; shape_index < num_shapes; ++shape_index) {
      stage_profiles[static_cast<size_t>(s) * num_shapes + shape_index] =
          profile(begin, begin + span - 1, static_cast<int>(shape_index));
    }
  }
  const auto effective = [num_microbatches](const StageProfile& p) {
    return p.t_intra + p.t_per_iteration / static_cast<double>(num_microbatches) +
           1e-18 * (p.weight_bytes + p.act_bytes_per_microbatch);
  };
  // dp[s][d]: min sum of stage latencies covering stages [s, num_stages)
  // with d devices. Track sum and reconstruct; the max is derived from the
  // reconstruction.
  const size_t width = static_cast<size_t>(total_devices) + 1;
  std::vector<double> dp(static_cast<size_t>(num_stages + 1) * width, kInfCost);
  std::vector<int> choice(static_cast<size_t>(num_stages + 1) * width, -1);
  dp[static_cast<size_t>(num_stages) * width + 0] = 0.0;
  for (int s = num_stages - 1; s >= 0; --s) {
    const int in_flight = num_stages - s;
    for (size_t shape_index = 0; shape_index < num_shapes; ++shape_index) {
      const StageProfile& p = profile_at(s, shape_index);
      if (!std::isfinite(p.t_intra)) {
        continue;
      }
      if (p.weight_bytes + in_flight * p.act_bytes_per_microbatch + p.work_bytes > memory) {
        continue;
      }
      const double t_eff = effective(p);
      const int used = shapes[shape_index].num_devices();
      for (int d = used; d <= total_devices; ++d) {
        const double rest = dp[static_cast<size_t>(s + 1) * width + static_cast<size_t>(d - used)];
        if (!std::isfinite(rest)) {
          continue;
        }
        const size_t idx = static_cast<size_t>(s) * width + static_cast<size_t>(d);
        if (t_eff + rest < dp[idx]) {
          dp[idx] = t_eff + rest;
          choice[idx] = static_cast<int>(shape_index);
        }
      }
    }
  }
  const double sum = dp[static_cast<size_t>(total_devices)];
  if (!std::isfinite(sum)) {
    return result;
  }
  // Reconstruct from the cached profiles the DP scored.
  std::vector<StageAssignment> stages;
  double max_latency = 0.0;
  double reconstructed_sum = 0.0;
  int d = total_devices;
  for (int s = 0; s < num_stages; ++s) {
    const int shape_index = choice[static_cast<size_t>(s) * width + static_cast<size_t>(d)];
    if (shape_index < 0) {
      return result;
    }
    const int begin = s * span;
    const StageProfile& p = profile_at(s, static_cast<size_t>(shape_index));
    stages.push_back(StageAssignment{begin, begin + span - 1, shape_index, p.t_intra});
    max_latency = std::max(
        max_latency, p.t_intra + p.t_per_iteration / static_cast<double>(num_microbatches));
    reconstructed_sum += effective(p);
    d -= shapes[static_cast<size_t>(shape_index)].num_devices();
  }
  if (d != 0) {
    return result;
  }
  ALPA_CHECK(std::abs(reconstructed_sum - sum) <=
             1e-9 * std::max(1.0, std::abs(sum)))
      << "Equal-layer reconstruction latency " << reconstructed_sum
      << " diverged from DP value " << sum;
  result.feasible = true;
  result.total_latency = sum + (num_microbatches - 1) * max_latency;
  result.stage_latency_sum = sum;
  result.max_stage_latency = max_latency;
  result.stages = std::move(stages);
  return result;
}

// Restricted stage search for the "Equal layer" ablation (7.3): stage
// boundaries are fixed to equal layer counts; only the device assignment is
// optimized. Stage counts are tried in ascending order and only a strict
// improvement replaces the incumbent.
StageDpResult SolveEqualLayer(int num_layers, int num_microbatches, const ClusterSpec& cluster,
                              const std::vector<SubmeshShape>& shapes,
                              const StageProfileFn& profile, const StageDpOptions& options) {
  const int total_devices = cluster.num_devices();
  const double memory = options.device_memory_override > 0.0
                            ? options.device_memory_override
                            : cluster.device.memory_bytes;
  StageDpResult best;
  for (int num_stages = 1; num_stages <= std::min(num_layers, total_devices); ++num_stages) {
    if (num_layers % num_stages != 0) {
      continue;
    }
    StageDpResult candidate = SolveEqualLayerForCount(
        num_stages, num_layers, num_microbatches, shapes, profile, total_devices, memory);
    if (candidate.feasible && candidate.total_latency < best.total_latency) {
      best = std::move(candidate);
    }
  }
  return best;
}

// The Eq. 2 effective cost of a stage: per-microbatch latency plus the
// amortized once-per-iteration work.
double EffectiveLatency(const StageProfile& p, int num_microbatches) {
  return p.t_intra + p.t_per_iteration / static_cast<double>(num_microbatches);
}

// Per-device bytes stage `s` (0-based, of `num_stages`) holds at the 1F1B
// peak: weights + (num_stages - s) in-flight activations + workspace.
double StagePeakBytes(const StageProfile& p, int s, int num_stages) {
  return p.weight_bytes + (num_stages - s) * p.act_bytes_per_microbatch + p.work_bytes;
}

// True when every stage fits its placement's ACTUAL device memory (the DP
// checked against the reference generation only).
bool PlacementsMemoryFeasible(const ClusterSpec& cluster,
                              const std::vector<StageProfile>& profiles,
                              const std::vector<MeshPlacement>& placements) {
  const int num_stages = static_cast<int>(placements.size());
  for (int s = 0; s < num_stages; ++s) {
    const StageProfile& p = profiles[static_cast<size_t>(s)];
    if (StagePeakBytes(p, s, num_stages) >
        PlacementMemoryBytes(cluster, placements[static_cast<size_t>(s)])) {
      return false;
    }
  }
  return true;
}

// Reassigns placements among the stages that share a submesh shape (such
// placements are interchangeable under Theorem 1's covering): the stage
// with the largest `stage_key` gets the placement with the smallest
// `placement_key` within each shape group. Fully deterministic: stable
// sorts keyed on values derived from the (deterministic) DP output, with
// placement ties broken by cluster position.
void MatchPlacements(const std::vector<SubmeshShape>& chosen_shapes,
                     const std::function<double(size_t)>& stage_key,
                     const std::function<double(const MeshPlacement&)>& placement_key,
                     std::vector<MeshPlacement>* placements) {
  std::map<std::pair<int, int>, std::vector<size_t>> groups;
  for (size_t s = 0; s < chosen_shapes.size(); ++s) {
    const SubmeshShape& shape = chosen_shapes[s];
    groups[{shape.num_hosts, shape.devices_per_host}].push_back(s);
  }
  for (auto& [shape, members] : groups) {
    if (members.size() < 2) {
      continue;
    }
    std::vector<size_t> order = members;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return stage_key(a) > stage_key(b); });
    std::vector<MeshPlacement> slots;
    slots.reserve(members.size());
    for (size_t s : members) {
      slots.push_back((*placements)[s]);
    }
    std::stable_sort(slots.begin(), slots.end(),
                     [&](const MeshPlacement& a, const MeshPlacement& b) {
                       const double ka = placement_key(a);
                       const double kb = placement_key(b);
                       if (ka != kb) {
                         return ka < kb;
                       }
                       if (a.host_begin != b.host_begin) {
                         return a.host_begin < b.host_begin;
                       }
                       return a.device_begin < b.device_begin;
                     });
    for (size_t i = 0; i < order.size(); ++i) {
      (*placements)[order[i]] = slots[i];
    }
  }
}

}  // namespace

CompiledPipeline RunInterOpPass(Graph& graph, const ClusterSpec& cluster,
                                const InterOpOptions& options) {
  CompiledPipeline pipeline;
  pipeline.num_microbatches = options.num_microbatches;
  TraceSpan pass_span("inter_op_pass");
  const double t_start = NowSeconds();

  // --- 1. Operator clustering (Eq. 5). ---
  double t0 = NowSeconds();
  if (options.target_layers > 0) {
    TraceSpan clustering_span("operator_clustering");
    ClusteringOptions copts;
    copts.num_layers = options.target_layers;
    copts.method = options.clustering;
    const ClusteringResult clustering = ClusterOperators(graph, copts);
    if (clustering_span.active()) {
      clustering_span.set_args(StrFormat("\"target_layers\":%d,\"feasible\":%s",
                                         options.target_layers,
                                         clustering.feasible ? "true" : "false"));
    }
    if (!clustering.feasible) {
      pipeline.infeasible_reason = StrFormat(
          "operator clustering found no split of the graph into %d layers",
          options.target_layers);
      return pipeline;
    }
    AssignLayers(graph, clustering);
  }
  const int num_layers = graph.NumLayers();
  ALPA_CHECK_GT(num_layers, 0);
  pipeline.stats.clustering_seconds = NowSeconds() - t0;

  // --- 2. Profile stage-mesh pairs: the pass's one parallel phase. ---
  const int threads =
      options.compile_threads == 0 ? ThreadPool::DefaultThreads() : options.compile_threads;
  pipeline.stats.threads_used = std::max(threads, 1);
  const std::vector<SubmeshShape> physical_shapes =
      options.submesh_shapes.empty() ? EnumerateSubmeshShapes(cluster) : options.submesh_shapes;
  StageProfilerOptions profiler_options = options.profiler;
  profiler_options.intra.num_microbatches = options.num_microbatches;
  t0 = NowSeconds();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
  }
  const StageProfiler profiler(graph, cluster, physical_shapes, profiler_options, pool.get());
  pool.reset();
  pipeline.stats.profiling_wall_seconds = NowSeconds() - t0;
  pipeline.stats.profiling_seconds = profiler.profiling_seconds();
  pipeline.stats.ilp_solves = profiler.num_ilp_solves();
  pipeline.stats.ilp_cache_hits = profiler.cache_hits();
  pipeline.stats.ilp_cache_misses = profiler.cache_misses();
  // The DP iterates the profiler's expanded variant space (physical shape x
  // logical shape x memory mode); it only needs the physical device counts.
  const std::vector<SubmeshShape>& shapes = profiler.dp_shapes();
  const StageProfileFn profile_fn = [&](int begin, int end, int shape_index) {
    StageProfile profile = profiler.Profile(begin, end, shape_index);
    if (options.profile_source != nullptr) {
      options.profile_source->Apply(begin, end, shapes[static_cast<size_t>(shape_index)],
                                    &profile);
    }
    return profile;
  };

  // --- 3. Stage-slicing DP (Eqs. 2-4). ---
  t0 = NowSeconds();
  StageDpResult dp;
  {
    TraceSpan dp_span("stage_dp");
    dp = options.equal_layer_stages
             ? SolveEqualLayer(num_layers, options.num_microbatches, cluster, shapes,
                               profile_fn, options.dp)
             : SolveStageDp(num_layers, options.num_microbatches, cluster, shapes, profile_fn,
                            options.dp);
    if (dp_span.active()) {
      dp_span.set_args(StrFormat("\"num_layers\":%d,\"num_shapes\":%zu,\"feasible\":%s",
                                 num_layers, shapes.size(), dp.feasible ? "true" : "false"));
    }
  }
  pipeline.stats.dp_seconds = NowSeconds() - t0;
  pipeline.stats.num_tmax_tried = dp.num_tmax_tried;
  if (!dp.feasible) {
    pipeline.stats.total_seconds = NowSeconds() - t_start;
    pipeline.infeasible_reason = StrFormat(
        "stage DP found no feasible stage assignment (%d layers, %zu submesh "
        "variants, %d microbatches) under the device memory budget",
        num_layers, shapes.size(), options.num_microbatches);
    return pipeline;
  }

  // --- 4. Materialize stages: placements (Theorem 1) + logical shapes. ---
  t0 = NowSeconds();
  TraceSpan materialize_span("materialize_stages");
  std::vector<SubmeshShape> chosen_shapes;
  chosen_shapes.reserve(dp.stages.size());
  for (const StageAssignment& stage : dp.stages) {
    chosen_shapes.push_back(shapes[static_cast<size_t>(stage.shape_index)]);
  }
  auto placements = CoverCluster(cluster, chosen_shapes);
  ALPA_CHECK(placements.has_value()) << "Theorem 1 violated by DP output";

  // Fetch the chosen stages' profiles once; the heterogeneity permutation
  // and the materialization below must read identical numbers.
  std::vector<StageProfile> stage_profiles;
  stage_profiles.reserve(dp.stages.size());
  for (const StageAssignment& assignment : dp.stages) {
    stage_profiles.push_back(
        profile_fn(assignment.layer_begin, assignment.layer_end, assignment.shape_index));
  }

  // --- Heterogeneity-aware placement assignment. The DP priced every stage
  // on the REFERENCE generation; on a mixed-generation cluster the covering
  // placements differ in actual speed, so reassign same-shape placements
  // to put the slowest stages on the fastest meshes (rearrangement
  // inequality: minimizes both the Eq. 2 sum and its max term). ---
  const bool hetero = cluster.heterogeneous();
  const Precision precision = profiler_options.intra.precision;
  const int num_stages = static_cast<int>(dp.stages.size());
  if (hetero && options.hetero_aware) {
    MatchPlacements(
        chosen_shapes,
        [&](size_t s) { return EffectiveLatency(stage_profiles[s], options.num_microbatches); },
        [&](const MeshPlacement& p) { return PlacementTimeScale(cluster, p, precision); },
        &*placements);
    if (!PlacementsMemoryFeasible(cluster, stage_profiles, *placements)) {
      // Feasibility beats speed: biggest stages onto the roomiest meshes.
      MatchPlacements(
          chosen_shapes,
          [&](size_t s) {
            return StagePeakBytes(stage_profiles[s], static_cast<int>(s), num_stages);
          },
          [&](const MeshPlacement& p) { return -PlacementMemoryBytes(cluster, p); },
          &*placements);
    }
  }
  if (hetero && !PlacementsMemoryFeasible(cluster, stage_profiles, *placements)) {
    pipeline.stats.total_seconds = NowSeconds() - t_start;
    pipeline.infeasible_reason = StrFormat(
        "no placement assignment fits the mixed-generation cluster's per-host "
        "device memory (%d stages; the DP sized stages for the reference "
        "generation's %s)",
        num_stages, HumanBytes(cluster.device.memory_bytes).c_str());
    return pipeline;
  }

  // Per-stage: logical shape, latency split, memory, boundary tensors.
  std::vector<int> stage_of_layer(static_cast<size_t>(num_layers), -1);
  for (size_t s = 0; s < dp.stages.size(); ++s) {
    const StageAssignment& assignment = dp.stages[s];
    CompiledStage stage;
    stage.layer_begin = assignment.layer_begin;
    stage.layer_end = assignment.layer_end;
    stage.placement = (*placements)[s];
    for (int h = 0; h < stage.placement.shape.num_hosts; ++h) {
      for (int d = 0; d < stage.placement.shape.devices_per_host; ++d) {
        stage.device_ids.push_back((stage.placement.host_begin + h) * cluster.devices_per_host +
                                   stage.placement.device_begin + d);
      }
    }
    stage.logical_shape = profiler.variants()[static_cast<size_t>(assignment.shape_index)].logical;
    // Prefetched through profile_fn — not profiler.Profile directly — so a
    // ProfileSource override shapes the materialized stage exactly as it
    // shaped the DP's costs.
    const StageProfile& profile = stage_profiles[s];
    // Profiles price the reference generation; stretch (or shrink) compute
    // by the placement's actual generation. Gradient sync rides the
    // interconnect, which heterogeneity leaves untouched.
    const double time_scale =
        hetero ? PlacementTimeScale(cluster, stage.placement, precision) : 1.0;
    stage.t_intra = profile.t_intra * time_scale;
    stage.t_per_iteration = profile.t_per_iteration;
    stage.weight_bytes = profile.weight_bytes;
    stage.act_bytes_per_microbatch = profile.act_bytes_per_microbatch;
    stage.work_bytes = profile.work_bytes;
    // Forward/backward split by role FLOPs of the stage's layers.
    double fwd_flops = 0.0;
    double bwd_flops = 0.0;
    for (const Operator& op : graph.ops()) {
      if (op.layer >= stage.layer_begin && op.layer <= stage.layer_end) {
        if (op.role == OpRole::kForward) {
          fwd_flops += op.flops;
        } else if (op.role == OpRole::kBackward) {
          bwd_flops += op.flops;
        }
      }
    }
    const double denom = std::max(fwd_flops + bwd_flops, 1.0);
    stage.t_forward = stage.t_intra * fwd_flops / denom;
    stage.t_backward = stage.t_intra - stage.t_forward;
    for (int l = stage.layer_begin; l <= stage.layer_end; ++l) {
      stage_of_layer[static_cast<size_t>(l)] = static_cast<int>(s);
    }
    // Plan summary for visualization: specs of heavy forward ops and params.
    for (int l = stage.layer_begin; l <= stage.layer_end; ++l) {
      const IntraOpResult& result = profiler.LayerResult(l, assignment.shape_index);
      if (!result.feasible) {
        continue;
      }
      // Anytime accounting over the chosen stages' solves.
      if (!result.optimal) {
        ++pipeline.stats.ilp_aborts;
        pipeline.stats.max_optimality_gap =
            std::max(pipeline.stats.max_optimality_gap, result.optimality_gap);
        pipeline.stats.sum_optimality_gap += result.optimality_gap;
      }
      const StageSubgraph& subgraph = profiler.LayerSubgraph(l);
      for (const Operator& op : subgraph.graph.ops()) {
        const bool interesting =
            op.role == OpRole::kForward &&
            (op.type == OpType::kEinsum || op.type == OpType::kEmbedding ||
             op.type == OpType::kMoeDispatch || op.type == OpType::kParameter);
        if (interesting) {
          stage.op_spec_summary.emplace_back(
              op.name, result.op_specs[static_cast<size_t>(op.id)].ToString());
        }
      }
    }
    pipeline.stages.push_back(std::move(stage));
  }

  // Boundary tensors: forward activations produced in stage s and consumed
  // in a later stage. Skip connections crossing several stages are relayed
  // hop by hop (attached to every stage boundary they cross).
  const auto consumers = graph.Consumers();
  for (int producer = 0; producer < graph.size(); ++producer) {
    const Operator& op = graph.op(producer);
    if (op.role != OpRole::kForward || op.type == OpType::kParameter ||
        op.type == OpType::kInput) {
      continue;
    }
    const int src_stage = stage_of_layer[static_cast<size_t>(op.layer)];
    int max_dst_stage = src_stage;
    int first_dst_layer = -1;
    for (int consumer : consumers[static_cast<size_t>(producer)]) {
      const Operator& c = graph.op(consumer);
      if (c.role != OpRole::kForward) {
        continue;
      }
      const int dst_stage = stage_of_layer[static_cast<size_t>(c.layer)];
      if (dst_stage > src_stage) {
        if (dst_stage > max_dst_stage) {
          max_dst_stage = dst_stage;
        }
        if (first_dst_layer < 0 || c.layer < first_dst_layer) {
          first_dst_layer = c.layer;
        }
      }
    }
    if (max_dst_stage == src_stage) {
      continue;
    }
    // Source spec: from the producer layer's solution on its stage.
    const StageAssignment& src_assignment = dp.stages[static_cast<size_t>(src_stage)];
    const IntraOpResult& src_result =
        profiler.LayerResult(op.layer, src_assignment.shape_index);
    const StageSubgraph& src_subgraph = profiler.LayerSubgraph(op.layer);
    ShardingSpec src_spec = ShardingSpec::Replicated(op.shape.rank());
    if (src_result.feasible) {
      const int mapped = src_subgraph.op_map[static_cast<size_t>(producer)];
      if (mapped >= 0) {
        src_spec = src_result.op_specs[static_cast<size_t>(mapped)];
      }
    }
    // Destination spec: the placeholder's spec in the first consuming layer.
    ShardingSpec dst_spec = ShardingSpec::Replicated(op.shape.rank());
    if (first_dst_layer >= 0) {
      const int dst_stage = stage_of_layer[static_cast<size_t>(first_dst_layer)];
      const StageAssignment& dst_assignment = dp.stages[static_cast<size_t>(dst_stage)];
      const IntraOpResult& dst_result =
          profiler.LayerResult(first_dst_layer, dst_assignment.shape_index);
      const StageSubgraph& dst_subgraph = profiler.LayerSubgraph(first_dst_layer);
      if (dst_result.feasible) {
        const int mapped = dst_subgraph.op_map[static_cast<size_t>(producer)];
        if (mapped >= 0) {
          dst_spec = dst_result.op_specs[static_cast<size_t>(mapped)];
        }
      }
    }
    CrossStageTensor tensor;
    tensor.shape = op.shape;
    tensor.dtype_bytes = DTypeBytes(op.dtype);
    tensor.src_spec = src_spec;
    tensor.dst_spec = dst_spec;
    tensor.producer_op = producer;
    // Relay across every boundary this tensor crosses.
    for (int s = src_stage; s < max_dst_stage; ++s) {
      pipeline.stages[static_cast<size_t>(s)].sends_to_next.push_back(tensor);
    }
  }

  pipeline.feasible = true;
  if (hetero) {
    // Re-derive Eq. 2 from the scaled stage latencies: the DP's value
    // priced every stage on the reference generation.
    double latency_sum = 0.0;
    double max_latency = 0.0;
    for (const CompiledStage& stage : pipeline.stages) {
      const double t_eff =
          stage.t_intra + stage.t_per_iteration / static_cast<double>(options.num_microbatches);
      latency_sum += t_eff;
      max_latency = std::max(max_latency, t_eff);
    }
    dp.total_latency = latency_sum + (options.num_microbatches - 1) * max_latency;
    dp.max_stage_latency = max_latency;
  }
  pipeline.dp_latency = dp.total_latency;
  pipeline.max_stage_latency = dp.max_stage_latency;
  pipeline.stats.other_seconds = NowSeconds() - t0;
  pipeline.stats.total_seconds = NowSeconds() - t_start;
  return pipeline;
}

bool PlanEquals(const CompiledPipeline& a, const CompiledPipeline& b) {
  if (a.feasible != b.feasible || a.num_microbatches != b.num_microbatches ||
      a.dp_latency != b.dp_latency || a.max_stage_latency != b.max_stage_latency ||
      a.stages.size() != b.stages.size()) {
    return false;
  }
  for (size_t s = 0; s < a.stages.size(); ++s) {
    const CompiledStage& x = a.stages[s];
    const CompiledStage& y = b.stages[s];
    if (x.layer_begin != y.layer_begin || x.layer_end != y.layer_end ||
        !(x.placement == y.placement) || x.logical_shape != y.logical_shape ||
        x.t_intra != y.t_intra || x.t_forward != y.t_forward || x.t_backward != y.t_backward ||
        x.t_per_iteration != y.t_per_iteration || x.weight_bytes != y.weight_bytes ||
        x.act_bytes_per_microbatch != y.act_bytes_per_microbatch ||
        x.work_bytes != y.work_bytes || x.op_spec_summary != y.op_spec_summary ||
        x.sends_to_next.size() != y.sends_to_next.size()) {
      return false;
    }
    for (size_t t = 0; t < x.sends_to_next.size(); ++t) {
      const CrossStageTensor& u = x.sends_to_next[t];
      const CrossStageTensor& v = y.sends_to_next[t];
      if (u.shape.dims() != v.shape.dims() || u.dtype_bytes != v.dtype_bytes ||
          !(u.src_spec == v.src_spec) || !(u.dst_spec == v.dst_spec) ||
          u.forward != v.forward || u.producer_op != v.producer_op) {
        return false;
      }
    }
  }
  return true;
}

std::string CompiledPipeline::ToString() const {
  if (!feasible) {
    return "CompiledPipeline(infeasible)";
  }
  std::string out = StrFormat("CompiledPipeline: %zu stages, B=%d, T=%s\n", stages.size(),
                              num_microbatches, HumanSeconds(dp_latency).c_str());
  for (size_t s = 0; s < stages.size(); ++s) {
    const CompiledStage& stage = stages[s];
    out += StrFormat(
        "  stage %zu: layers [%d,%d] submesh %s logical (%d,%d) t=%s mem=%s+%s/mb\n", s,
        stage.layer_begin, stage.layer_end, stage.placement.shape.ToString().c_str(),
        stage.logical_shape[0], stage.logical_shape[1], HumanSeconds(stage.t_intra).c_str(),
        HumanBytes(stage.weight_bytes).c_str(),
        HumanBytes(stage.act_bytes_per_microbatch).c_str());
  }
  return out;
}

}  // namespace alpa
