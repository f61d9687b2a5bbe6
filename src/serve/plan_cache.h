// Process-wide, disk-backed cache of full compiled plans.
//
// The ILP memo (src/intra/ilp_cache) amortizes per-layer solves within a
// process; this cache sits one level up and amortizes whole Parallelize()
// calls — and, through its disk layer, lets warm hits survive process
// restarts. A server restart replays its cached plans from disk instead of
// recompiling, which is the property the serve storm bench locks in.
//
// Key. `graph_hash` covers the full wire encoding of the operator graph —
// names and layer tags included, unlike Graph::StructuralHash, so two
// models whose contractions agree but whose layer assignments differ can
// never alias. `config_hash` covers the full cluster (extent, device
// roofline, interconnect, fault scenario) plus every plain field of the
// finalized ParallelizeOptions that steers compilation, plus the active
// profile_source fingerprint. Thread counts and trace paths are excluded:
// both are guaranteed not to change the plan (PlanEquals determinism).
// So are the intra-op precision and microbatch count, which Parallelize
// overwrites before any pass reads them.
//
// Uncacheable compiles: options carrying a closure (an AlgorithmFilter) or
// a ProfileSource without a stable Fingerprint() cannot be hashed;
// ComputePlanCacheKey returns false and the compile simply runs.
//
// Single-flight. N concurrent cold requests for one key must compile once:
// JoinFlight() atomically either hits the cache, joins an in-flight
// compile (blocking until the leader publishes), or elects the caller
// leader. The leader compiles and calls FinishFlight(), which inserts on
// success and wakes every follower with the shared result (the leader's
// error propagates to followers on failure). This also serializes the
// disk write for a key, eliminating concurrent tmp+rename races.
//
// Disk layer. Each entry is one file `<graph>-<config>.plan` under the
// cache dir, holding a kCacheEntry wire envelope (key + plan). Writes go
// through a uniquely named temp file + rename, so readers never observe a
// torn entry even across processes. A corrupt, truncated, or
// version-skewed file is treated as a miss (and removed); the envelope's
// version field makes format bumps self-cleaning, and SetDiskDir sweeps
// entries of other wire versions eagerly on open.
//
// Eviction. SetLimits() bounds the disk store by entry count and/or total
// bytes; when an insert overflows a cap, the least-recently-used entries
// (by a logical access sequence — bumped on disk hit and insert, so it is
// deterministic, unlike wall-clock atimes) are unlinked oldest-first, and
// their memory promotions dropped with them. 0 = unbounded.
//
// Metrics. Traffic is counted in the process-wide registry, never reset by
// Clear(): plan_cache/{memory_hits,disk_hits,misses} per lookup (a
// JoinFlight re-check hit counts as a memory hit),
// plan_cache/{flight_leaders,flight_followers} per single-flight join,
// plan_cache/evictions per capped eviction and plan_cache/version_swept per
// entry the SetDiskDir sweep unlinks; plan_cache/{entries,disk_entries,
// disk_bytes} are gauges.
//
// Thread safety: all methods are safe to call concurrently.
#ifndef SRC_SERVE_PLAN_CACHE_H_
#define SRC_SERVE_PLAN_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/core/api.h"
#include "src/support/status.h"

namespace alpa {
namespace serve {

struct PlanCacheKey {
  uint64_t graph_hash = 0;
  uint64_t config_hash = 0;
  bool operator==(const PlanCacheKey&) const = default;
};

// Caps on the persisted store; 0 = unbounded. Enforced on insert with
// LRU (logical access order) eviction, and on SetDiskDir after the sweep.
struct PlanCacheLimits {
  int64_t max_disk_entries = 0;
  int64_t max_disk_bytes = 0;
};

// How JoinFlight resolved a request.
enum class FlightOutcome {
  kHit,     // *plan holds the result (cache hit, or a leader's publish).
  kLeader,  // Caller must compile and call FinishFlight with the result.
  kFailed,  // The in-flight leader failed; *status holds its error.
};

class PlanCache {
 public:
  // The process-wide instance (used by InProcessPlanService and the serve
  // daemon). Starts memory-only; point it at a directory to persist.
  static PlanCache& Global();

  // Enables (non-empty) or disables (empty) the disk layer. Creates the
  // directory if needed; returns kInternal when creation fails. Sweeps
  // version-skewed entries and rebuilds the disk index (then enforces the
  // configured limits).
  Status SetDiskDir(const std::string& dir);
  std::string disk_dir() const;

  // Replaces the disk-store caps and enforces them immediately.
  void SetLimits(const PlanCacheLimits& limits);
  PlanCacheLimits limits() const;

  // Memory first, then disk (a disk hit is promoted to memory and bumps
  // the entry's logical access time). False = miss. A corrupt disk entry
  // is unlinked and drops out of the size accounting right away.
  bool Lookup(const PlanCacheKey& key, ParallelPlan* plan);
  // Inserts into memory and, when a disk dir is set, persists the entry,
  // then enforces the limits. Disk write failures are silent (the cache
  // is an optimization).
  void Insert(const PlanCacheKey& key, const ParallelPlan& plan);

  // Single-flight entry point: Lookup, then atomically join or lead the
  // in-flight compile for `key`. kHit fills *plan; kFailed fills *status;
  // kLeader obliges the caller to call FinishFlight(key, ...) exactly once
  // (on every path, or followers block forever). A follower waits at most
  // `deadline_seconds` for the leader (0, or a wait past the steady clock's
  // range, = forever): on expiry it returns kFailed with kDeadlineExceeded,
  // leaving the flight intact for the followers that can still afford to
  // wait.
  FlightOutcome JoinFlight(const PlanCacheKey& key, ParallelPlan* plan, Status* status,
                           double deadline_seconds = 0.0);
  // Publishes the leader's result: Insert + wake followers on success,
  // propagate the error to followers on failure.
  void FinishFlight(const PlanCacheKey& key, const StatusOr<ParallelPlan>& result);

  size_t size() const;       // In-memory entries.
  size_t disk_size() const;  // Indexed disk entries.
  int64_t disk_bytes() const;
  // Drops in-memory entries; `also_disk` removes the persisted files too.
  // The plan_cache/* metrics keep counting across a Clear.
  void Clear(bool also_disk = false);

 private:
  struct KeyHash {
    size_t operator()(const PlanCacheKey& key) const {
      return static_cast<size_t>(key.graph_hash ^ (key.config_hash * 0x9e3779b97f4a7c15ull));
    }
  };

  // One persisted entry's accounting.
  struct DiskEntry {
    int64_t bytes = 0;
    uint64_t access_seq = 0;  // Logical LRU clock, not wall time.
  };

  // One in-flight compile; followers block on cv until the leader
  // publishes. Heap-allocated and shared so it outlives its map slot.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    ParallelPlan plan;
    Status status = Status::Ok();
  };

  std::string EntryPath(const PlanCacheKey& key) const;
  // Unlinks LRU disk entries until the limits hold. Requires mu_.
  void EnforceLimitsLocked();
  // Removes `key`'s disk entry (file + index) and its memory promotion.
  // Requires mu_.
  void EvictLocked(const PlanCacheKey& key);
  void UpdateMetricsLocked();

  mutable std::mutex mu_;
  std::string disk_dir_;
  PlanCacheLimits limits_;
  std::unordered_map<PlanCacheKey, ParallelPlan, KeyHash> entries_;
  std::unordered_map<PlanCacheKey, DiskEntry, KeyHash> disk_index_;
  std::unordered_map<PlanCacheKey, std::shared_ptr<Flight>, KeyHash> flights_;
  int64_t disk_bytes_ = 0;
  uint64_t access_counter_ = 0;
};

// Builds the cache key for compiling `graph` on `cluster` under `options`
// (which must already be Finalize()d so the mirror fields are resolved).
// Returns false when the compile is ineligible for caching: a closure
// (intra.filter) or a profile_source with no stable fingerprint cannot be
// hashed.
bool ComputePlanCacheKey(const Graph& graph, const ClusterSpec& cluster,
                         const ParallelizeOptions& options, PlanCacheKey* key);

// File helpers of the on-disk stores (this cache and the results database).
// ReadFile reads a whole file; false on any error.
bool ReadFile(const std::string& path, std::string* out);
// Writes a whole file atomically: a temp file named by pid and a
// process-local counter, so concurrent writers (even across daemon
// processes sharing one dir) never collide on it, then rename(), so the
// last completed write wins and readers never see a torn file.
bool WriteFileAtomic(const std::string& path, const std::string& data);

}  // namespace serve
}  // namespace alpa

#endif  // SRC_SERVE_PLAN_CACHE_H_
