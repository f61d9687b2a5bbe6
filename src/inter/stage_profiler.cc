#include "src/inter/stage_profiler.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "src/intra/ilp_cache.h"
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

#ifndef NDEBUG
// Full structural signature of a layer subgraph; only used to cross-check
// the 64-bit StructuralHash for collisions in debug builds.
std::string LayerSignature(const Graph& graph) {
  std::string sig;
  for (const Operator& op : graph.ops()) {
    sig += OpTypeName(op.type);
    sig += static_cast<char>('0' + static_cast<int>(op.role));
    sig += op.shape.ToString();
    sig += DTypeName(op.dtype);
    if (op.einsum.valid()) {
      sig += op.einsum.ToString();
    }
    for (int operand : op.operands) {
      sig += ",";
      sig += std::to_string(operand);
    }
    sig += ";";
  }
  return sig;
}
#endif

// "<physical> log(<a>,<b>)": the mesh of a variant, without its mode.
std::string MeshName(const StageVariant& variant) {
  return StrFormat("%s log(%d,%d)", variant.physical.ToString().c_str(), variant.logical[0],
                   variant.logical[1]);
}

}  // namespace

AlgorithmFilter MemoryModeFilter(MemoryMode mode) {
  if (mode == MemoryMode::kTimeOptimal) {
    return nullptr;
  }
  return [mode](const Graph&, const DeviceMesh&, const Operator& op,
                const ParallelAlgorithm& a) {
    if (op.type == OpType::kUpdate && op.shape.elements() > 1024) {
      return !a.output_spec.IsFullyReplicated();
    }
    if (mode == MemoryMode::kShardWeights && op.type == OpType::kParameter &&
        op.shape.elements() > 1024) {
      return !a.output_spec.IsFullyReplicated();
    }
    return true;
  };
}

std::string StageVariant::ToString() const {
  const char* mode_name = mode == MemoryMode::kTimeOptimal
                              ? "time"
                              : (mode == MemoryMode::kShardOptimizer ? "zero2" : "zero3");
  return MeshName(*this) + " " + mode_name;
}

StageProfiler::StageProfiler(const Graph& graph, const ClusterSpec& cluster,
                             const std::vector<SubmeshShape>& shapes,
                             StageProfilerOptions options, ThreadPool* pool)
    : cluster_(cluster), options_(options) {
  num_layers_ = graph.NumLayers();
  ALPA_CHECK_GT(num_layers_, 0) << "Graph must be layer-tagged before profiling";
  layer_subgraphs_.reserve(static_cast<size_t>(num_layers_));
  for (int l = 0; l < num_layers_; ++l) {
    layer_subgraphs_.push_back(ExtractStage(graph, l, l));
  }

  // Structural dedup of identical layers, keyed on the 64-bit hash. The
  // hashes double as memo-cache keys.
  dedup_layer_.resize(static_cast<size_t>(num_layers_));
  layer_hashes_.resize(static_cast<size_t>(num_layers_));
  std::unordered_map<uint64_t, int> first_seen;
  for (int l = 0; l < num_layers_; ++l) {
    const uint64_t hash = StructuralHash(layer_subgraphs_[static_cast<size_t>(l)].graph);
    layer_hashes_[static_cast<size_t>(l)] = hash;
    auto [it, inserted] = first_seen.emplace(hash, l);
    dedup_layer_[static_cast<size_t>(l)] = it->second;
#ifndef NDEBUG
    if (!inserted) {
      ALPA_CHECK(LayerSignature(layer_subgraphs_[static_cast<size_t>(l)].graph) ==
                 LayerSignature(layer_subgraphs_[static_cast<size_t>(it->second)].graph))
          << "StructuralHash collision between layers " << it->second << " and " << l;
    }
#endif
  }

  // Expand (physical shape x logical shape x memory mode). The modes of one
  // mesh are adjacent, so variant v belongs to mesh group v / modes_.size().
  modes_ = options_.memory_modes
               ? std::vector<MemoryMode>{MemoryMode::kTimeOptimal, MemoryMode::kShardOptimizer,
                                         MemoryMode::kShardWeights}
               : std::vector<MemoryMode>{MemoryMode::kTimeOptimal};
  for (const SubmeshShape& shape : shapes) {
    for (const std::array<int, 2>& logical : DeviceMesh::LogicalShapeOptions(shape)) {
      for (MemoryMode mode : modes_) {
        variants_.push_back(StageVariant{shape, logical, mode});
        dp_shapes_.push_back(shape);
      }
    }
  }
  const int num_groups = static_cast<int>(variants_.size() / modes_.size());

  layer_cache_.assign(static_cast<size_t>(num_layers_),
                      std::vector<GroupCell>(static_cast<size_t>(num_groups)));

  // Solve every dedup-canonical cell, one ParallelFor iteration per mesh
  // group of a layer (the modes of a group share one build). Cell results
  // are independent of solve order, so the pool only changes when each cell
  // runs. Iterations are claimed in list order, so neighbours run at the
  // same time. Mirror meshes such as log(1,4) and log(4,1) build identical
  // ILPs, and two concurrent solves of one core both miss the core memo;
  // listing the layers inside each mesh keeps such pairs apart.
  std::vector<std::pair<int, int>> cells;
  cells.reserve(static_cast<size_t>(num_layers_) * static_cast<size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    for (int l = 0; l < num_layers_; ++l) {
      if (dedup_layer_[static_cast<size_t>(l)] == l) {
        cells.emplace_back(l, g);
      }
    }
  }
  ParallelFor(pool, static_cast<int64_t>(cells.size()), [&](int64_t i) {
    const auto& [layer, group] = cells[static_cast<size_t>(i)];
    SolveGroup(layer, group,
               &layer_cache_[static_cast<size_t>(layer)][static_cast<size_t>(group)]);
  });
  for (const auto& [layer, group] : cells) {
    const GroupCell& cell = layer_cache_[static_cast<size_t>(layer)][static_cast<size_t>(group)];
    num_ilp_solves_ += cell.solves;
    cache_hits_ += cell.hits;
    cache_misses_ += cell.misses;
    profiling_seconds_ += cell.seconds;
  }
}

const IntraOpResult& StageProfiler::LayerResult(int layer, int variant_index) const {
  const int canonical = dedup_layer_[static_cast<size_t>(layer)];
  const size_t num_modes = modes_.size();
  const size_t v = static_cast<size_t>(variant_index);
  return layer_cache_[static_cast<size_t>(canonical)][v / num_modes].results[v % num_modes];
}

void StageProfiler::SolveGroup(int canonical, int group, GroupCell* cell) const {
  const double start = NowSeconds();
  const size_t num_modes = modes_.size();
  const size_t first = static_cast<size_t>(group) * num_modes;
  const StageSubgraph& subgraph = layer_subgraphs_[static_cast<size_t>(canonical)];
  cell->results.resize(num_modes);

  // Memo lookups and inserts stay per mode. The key is built from the BASE
  // options: the memory mode enters as a key field, never as a filter.
  std::vector<IlpCacheKey> keys(num_modes);
  std::vector<char> cacheable(num_modes, 0);
  std::vector<char> hit(num_modes, 0);
  bool all_hit = true;
  for (size_t m = 0; m < num_modes; ++m) {
    const StageVariant& variant = variants_[first + m];
    cacheable[m] = ComputeIlpCacheKey(cluster_, variant.physical, variant.logical,
                                      static_cast<int>(variant.mode), options_.intra,
                                      layer_hashes_[static_cast<size_t>(canonical)], &keys[m]);
    if (cacheable[m]) {
      hit[m] = IlpMemoCache::Global().Lookup(keys[m], &cell->results[m]) ? 1 : 0;
      ++(hit[m] ? cell->hits : cell->misses);
    }
    all_hit = all_hit && hit[m];
  }
  const auto solve_span = [&](TraceSpan& span, size_t m) {
    if (span.active()) {
      span.set_args(StrFormat("\"layer\":%d,\"variant\":\"%s\",\"cache_hit\":%s", canonical,
                              JsonEscape(variants_[first + m].ToString()).c_str(),
                              hit[m] ? "true" : "false"));
    }
  };
  if (all_hit) {
    for (size_t m = 0; m < num_modes; ++m) {
      TraceSpan span("ilp_solve");
      solve_span(span, m);
    }
    cell->seconds = NowSeconds() - start;
    return;
  }

  // One build serves every mode: the time-optimal problem is the full one,
  // and each sharded mode restricts the previous mode's problem in place
  // (ZeRO-3's predicate implies ZeRO-2's, so the result equals a build
  // filtered by the mode alone). The problem is freed when the group ends.
  TraceSpan build_span("ilp_build");
  if (build_span.active()) {
    build_span.set_args(StrFormat("\"layer\":%d,\"mesh\":\"%s\"", canonical,
                                  JsonEscape(MeshName(variants_[first])).c_str()));
  }
  MeshPlacement placement;
  placement.shape = variants_[first].physical;
  const DeviceMesh mesh = DeviceMesh::Create(cluster_, placement, variants_[first].logical);
  IntraOpProblem problem = BuildIntraOpProblem(subgraph.graph, mesh, options_.intra);
  static Metric* builds_metric = Metrics::Get("ilp/builds");
  builds_metric->Add(1);
  static Metric* solves_metric = Metrics::Get("ilp/solves");
  for (size_t m = 0; m < num_modes; ++m) {
    const MemoryMode mode = variants_[first + m].mode;
    if (mode != MemoryMode::kTimeOptimal) {
      RestrictIntraOpProblem(subgraph.graph, mesh, options_.intra, MemoryModeFilter(mode),
                             &problem);
    }
    TraceSpan span("ilp_solve");
    solve_span(span, m);
    if (hit[m]) {
      continue;
    }
    cell->results[m] = SolveIntraOpProblem(subgraph.graph, mesh, problem, options_.intra);
    ++cell->solves;
    solves_metric->Add(1);
    if (cacheable[m]) {
      IlpMemoCache::Global().Insert(keys[m], cell->results[m]);
    }
  }
  cell->seconds = NowSeconds() - start;
}

StageProfile StageProfiler::Profile(int begin, int end, int variant_index) const {
  ALPA_CHECK_GE(begin, 0);
  ALPA_CHECK_LE(end, num_layers_ - 1);
  ALPA_CHECK_LE(begin, end);

  StageProfile profile;
  profile.t_intra = 0.0;
  for (int l = begin; l <= end; ++l) {
    const IntraOpResult& result = LayerResult(l, variant_index);
    if (!result.feasible) {
      return StageProfile{};
    }
    profile.t_intra += result.t_intra;
    profile.t_per_iteration += result.t_per_iteration;
    profile.weight_bytes += result.weight_bytes;
    profile.act_bytes_per_microbatch += result.act_bytes_per_microbatch;
    profile.work_bytes = std::max(profile.work_bytes, result.work_bytes);
  }
  return profile;
}

const StageSubgraph& StageProfiler::LayerSubgraph(int layer) const {
  return layer_subgraphs_[static_cast<size_t>(layer)];
}

}  // namespace alpa
