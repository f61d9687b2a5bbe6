// Speculative background re-planner.
//
// Failover latency is dominated by the recompile: a cold Parallelize() on
// the shrunk cluster takes seconds while the job sits idle. The speculator
// removes that from the critical path by enumerating the k most-likely
// NEXT cluster configurations (each alive host failing, plus announced
// joins/drains inside a lookahead window), pre-solving them on idle
// thread-pool workers, and caching the plans by ClusterSpec fingerprint —
// so when churn actually strikes, the failover plan is a cache hit by
// construction.
//
// Determinism contract: the candidate set is a pure function of (current
// cluster, announced events, now), and Fetch() after Drain() sees every
// finished presolve — so hit/miss outcomes are bit-identical across thread
// counts and reruns. Only wall-clock timings differ.
//
// Counters (process-wide, see src/support/trace.h):
//   ilp.elastic.speculations        presolves launched
//   ilp.elastic.speculative_hits    Fetch() served from the presolve cache
//   ilp.elastic.speculative_misses  Fetch() found nothing usable
//   ilp.elastic.wasted_presolves    presolved configs never fetched (gauge)
#ifndef SRC_ELASTIC_SPECULATOR_H_
#define SRC_ELASTIC_SPECULATOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/api.h"
#include "src/elastic/churn.h"
#include "src/support/thread_pool.h"

namespace alpa {
namespace elastic {

struct SpeculationOptions {
  // Max configurations presolved per Speculate() call.
  int k = 4;
};

struct CandidateConfig {
  ClusterSpec cluster;
  std::string reason;        // "host 2 down", "announced join", ...
  double likelihood = 0.0;   // P(this is the next config); announced events get 1.
};

// The k most-likely next configurations reachable from `current`: every
// announced event inside the one-day lookahead window (likelihood 1), then
// each alive host failing (likelihood 1 - exp(-lookahead/MTBF)).
// Candidates are deduplicated by cluster fingerprint — on a homogeneous cluster every
// single-host failure shrinks to the SAME spec, so one presolve covers
// them all, which is exactly why speculation is cheap in the common case.
std::vector<CandidateConfig> EnumerateLikelyConfigs(const ClusterSpec& current,
                                                    const std::vector<ChurnEvent>& announced,
                                                    double now, double host_mtbf_seconds,
                                                    const SpeculationOptions& options);

class SpeculativePlanner {
 public:
  // Compiles a plan for one configuration. Invoked concurrently from pool
  // workers; must be self-contained (copy the graph internally).
  using SolveFn = std::function<StatusOr<ParallelPlan>(const ClusterSpec&)>;
  // Observes every successful presolve (e.g. the serve daemon inserts it
  // into the client-visible plan cache). Called under no internal lock.
  using PresolvedHook = std::function<void(const ClusterSpec&, const ParallelPlan&)>;

  // `pool` may be null: presolves then run inline inside Speculate() —
  // same results, no background concurrency. Not owned; must outlive the
  // planner.
  SpeculativePlanner(SolveFn solve, SpeculationOptions options, ThreadPool* pool);
  ~SpeculativePlanner();  // Drains in-flight presolves.

  SpeculativePlanner(const SpeculativePlanner&) = delete;
  SpeculativePlanner& operator=(const SpeculativePlanner&) = delete;

  void set_presolved_hook(PresolvedHook hook);

  // Launches presolves for the likely next configs (skipping any
  // fingerprint already attempted).
  void Speculate(const ClusterSpec& current, const std::vector<ChurnEvent>& announced,
                 double now, double host_mtbf_seconds);

  // Blocks until every launched presolve has finished.
  void Drain();

  // Presolve-cache lookup for the configuration the cluster actually
  // reached. Returns the plan on a hit; nullopt on a miss (never
  // speculated, still in flight, or the presolve failed). Counts the
  // hit/miss metrics. Call Drain() first for deterministic outcomes.
  std::optional<ParallelPlan> Fetch(const ClusterSpec& target);

  int64_t speculations() const;
  int64_t hits() const;
  int64_t misses() const;
  // Presolved-and-usable configs never fetched so far; also publishes the
  // ilp.elastic.wasted_presolves gauge.
  int64_t WastedPresolves() const;

 private:
  struct Entry {
    bool done = false;
    bool fetched = false;
    bool usable = false;  // done && the solve succeeded.
    ParallelPlan plan;
  };

  void Presolve(uint64_t fingerprint, ClusterSpec cluster);

  const SolveFn solve_;
  const SpeculationOptions options_;
  ThreadPool* const pool_;

  mutable std::mutex mu_;
  std::condition_variable idle_;
  int in_flight_ = 0;
  std::map<uint64_t, Entry> cache_;
  PresolvedHook hook_;
  int64_t speculations_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace elastic
}  // namespace alpa

#endif  // SRC_ELASTIC_SPECULATOR_H_
