#include "src/intra/ilp_cache.h"

#include "src/solver/ilp_solver.h"
#include "src/support/hashing.h"
#include "src/support/trace.h"

namespace alpa {

IlpMemoCache& IlpMemoCache::Global() {
  static IlpMemoCache* cache = new IlpMemoCache();
  return *cache;
}

bool IlpMemoCache::Lookup(const IlpCacheKey& key, IntraOpResult* result) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  static Metric* hits_metric = Metrics::Get("ilp_cache/hits");
  static Metric* misses_metric = Metrics::Get("ilp_cache/misses");
  if (it == entries_.end()) {
    misses_metric->Add(1);
    return false;
  }
  hits_metric->Add(1);
  *result = it->second;
  return true;
}

void IlpMemoCache::Insert(const IlpCacheKey& key, const IntraOpResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(key, result);
  static Metric* size_metric = Metrics::Get("ilp_cache/entries");
  size_metric->Set(static_cast<int64_t>(entries_.size()));
}

size_t IlpMemoCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void IlpMemoCache::Clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }
  // The solver's process-wide memo of presolved-core solutions backs the
  // same caching contract; benchmarks that clear this cache to measure a
  // cold compile expect both layers gone.
  ClearIlpCoreMemo();
}

bool ComputeIlpCacheKey(const ClusterSpec& cluster, const SubmeshShape& physical,
                        std::array<int, 2> logical, int memory_mode,
                        const IntraOpOptions& options, uint64_t structural_hash,
                        IlpCacheKey* key) {
  // An opaque closure cannot be hashed.
  if (options.filter != nullptr) {
    return false;
  }
  Fnv1a64 hasher;
  // Alpha-beta constants and device roofline: the whole cost model. The
  // cluster's own extent (num_hosts, devices_per_host) is deliberately NOT
  // hashed: a solve depends only on the submesh variant below and these
  // constants, so plan repair's shrunk-cluster recompile reuses the warm
  // entries from the original compile.
  hasher.Double(cluster.device.peak_flops_fp16)
      .Double(cluster.device.peak_flops_fp32)
      .Double(cluster.device.memory_bytes)
      .Double(cluster.device.memory_bandwidth)
      .Double(cluster.device.compute_efficiency);
  hasher.Double(cluster.intra_host_bandwidth)
      .Double(cluster.intra_host_alpha)
      .Double(cluster.inter_host_bandwidth)
      .Double(cluster.inter_host_alpha);
  // The mesh variant being profiled. The placement offset is irrelevant:
  // collective costs depend only on the shape and whether hosts are
  // crossed, both functions of (physical, logical).
  hasher.I32(physical.num_hosts).I32(physical.devices_per_host);
  hasher.I32(logical[0]).I32(logical[1]);
  hasher.I32(memory_mode);
  // Every option that steers the solve.
  hasher.I32(static_cast<int32_t>(options.precision));
  hasher.I32(options.num_microbatches);
  hasher.Bool(options.rematerialize);
  hasher.I64(options.solver.max_search_nodes);
  key->structural_hash = structural_hash;
  key->config_hash = hasher.hash();
  return true;
}

}  // namespace alpa
