// Process-wide memoization of intra-op ILP solves.
//
// The stage profiler already dedups structurally identical layers *within*
// one profiler instance (all transformer blocks of one model share a
// solve). This cache extends the same idea across instances: structurally
// identical layers appearing in different model configs, benchmark sweep
// points, or repeated compilations reuse each other's solves. It is the
// compile-time analogue of the paper's observation (7.4) that
// profiling-based plan generation must amortize repeated substructure.
//
// A cache key captures everything a solve's outcome depends on: the layer
// graph's structural hash, the alpha-beta constants of the cluster, the
// physical/logical mesh shapes, the memory mode, and every IntraOpOptions
// field that steers the solver. Solves carrying a caller-provided
// plan-space filter (a closure) cannot be hashed and are simply not cached.
//
// Thread safety: all methods are safe to call concurrently; the parallel
// profiling sweep hits this cache from every worker.
#ifndef SRC_INTRA_ILP_CACHE_H_
#define SRC_INTRA_ILP_CACHE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "src/intra/intra_pass.h"
#include "src/mesh/cluster_spec.h"
#include "src/mesh/device_mesh.h"

namespace alpa {

struct IlpCacheKey {
  uint64_t structural_hash = 0;  // StructuralHash of the (layer) graph.
  uint64_t config_hash = 0;      // Cluster + mesh + options fingerprint.
  bool operator==(const IlpCacheKey&) const = default;
};

class IlpMemoCache {
 public:
  // The process-wide instance used by every profiler.
  static IlpMemoCache& Global();

  // Returns true and fills `result` on a hit. Counts each lookup in the
  // ilp_cache/hits or ilp_cache/misses metric.
  bool Lookup(const IlpCacheKey& key, IntraOpResult* result);
  // Inserts a solve; first write wins (all writers hold identical results
  // for a key, so which one lands is immaterial).
  void Insert(const IlpCacheKey& key, const IntraOpResult& result);

  size_t size() const;
  // Drops all entries, and the solver's core memo with them (tests, fair
  // benchmarks).
  void Clear();

 private:
  struct KeyHash {
    size_t operator()(const IlpCacheKey& key) const {
      return static_cast<size_t>(key.structural_hash ^ (key.config_hash * 0x9e3779b97f4a7c15ull));
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<IlpCacheKey, IntraOpResult, KeyHash> entries_;
};

// Builds the cache key for solving `structural_hash`'s graph on the given
// submesh/logical shape under `memory_mode` (the stage profiler's enum,
// passed as int to keep this header independent of it). Returns false when
// the solve is ineligible for caching: a custom AlgorithmFilter cannot be
// folded into a hash.
bool ComputeIlpCacheKey(const ClusterSpec& cluster, const SubmeshShape& physical,
                        std::array<int, 2> logical, int memory_mode,
                        const IntraOpOptions& options, uint64_t structural_hash,
                        IlpCacheKey* key);

}  // namespace alpa

#endif  // SRC_INTRA_ILP_CACHE_H_
