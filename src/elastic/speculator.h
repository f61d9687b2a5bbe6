// The speculative re-planner: one ledger of presolved plan-store keys.
//
// Failover latency is dominated by the recompile: a cold Parallelize() on
// the shrunk cluster takes seconds while the job sits idle. Speculation
// takes it off the critical path. After each replan the caller lists the
// k most-likely NEXT cluster configurations (EnumerateLikelyConfigs: each
// alive host failing, plus announced joins/drains inside a lookahead
// window) and the Speculator presolves every one that its caller's plan
// store does not hold yet, so when churn strikes the failover plan is
// already stored.
//
// The Speculator never holds a plan. Each caller presolves into its own
// plan store through a Presolver:
//   - the elastic loop (elastic.h) into its run-local plan map, keyed by
//     cluster fingerprint;
//   - the alpa_serve --elastic daemon (src/serve/server.h) through its
//     worker's InProcessPlanService, so presolves ride single-flight and
//     land in the PlanCache and PlanDb, keyed by PlanCacheKey.
// The ledger records only which keys were claimed and what became of
// them. It claims a key before presolving it, so two threads speculating
// the same candidate run one presolve, and a claim is never retried, even
// when its presolve fails. Its counters:
//   speculations  presolves claimed;
//   hits          first served uses of a usable presolve (Record);
//   misses        served plans compiled on the critical path (Record);
//   wasted        usable presolves no served request has used yet;
//   failed        presolves that produced no plan.
// After Drain(), speculations == hits + wasted + failed. The ledger alone
// publishes them as the process-wide metrics (src/support/trace.h)
// elastic/speculations, elastic/speculative_hits,
// elastic/speculative_misses and the gauge elastic/wasted_presolves.
//
// Determinism contract: the candidate list is a pure function of (current
// cluster, announced events, now), Speculate() claims in candidate order
// on the calling thread, and a caller that calls Drain() before reading
// its store sees every finished presolve. So the elastic loop's outcomes
// and counters are bit-identical across thread counts and reruns; only
// wall-clock timings differ.
#ifndef SRC_ELASTIC_SPECULATOR_H_
#define SRC_ELASTIC_SPECULATOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/elastic/churn.h"
#include "src/mesh/cluster_spec.h"
#include "src/support/thread_pool.h"

namespace alpa {
namespace elastic {

struct SpeculationOptions {
  // Max configurations presolved per replan.
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

// The key a plan store files a plan under: the elastic loop uses
// {cluster fingerprint, 0}, the daemon {graph_hash, config_hash} of the
// PlanCacheKey.
using PresolveKey = std::pair<uint64_t, uint64_t>;

// How a caller presolves into its plan store.
struct Presolver {
  // The store key of `cluster`'s plan; false skips the candidate (the
  // store cannot file it, or the caller is shutting down).
  std::function<bool(const ClusterSpec& cluster, PresolveKey* key)> key;
  // True when the store already holds the plan: the candidate is then
  // neither presolved nor counted.
  std::function<bool(const PresolveKey& key)> holds;
  // Compiles `cluster`'s plan into the store; true when it is usable.
  // Runs on a pool worker when the Speculator has a pool, so it must be
  // safe to call concurrently and must outlive the next Drain().
  std::function<bool(const ClusterSpec& cluster)> presolve;
};

struct SpeculationCounts {
  int64_t speculations = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t wasted = 0;
  int64_t failed = 0;
};

class Speculator {
 public:
  // `pool` may be null: presolves then run inline inside Speculate(), as
  // they do on the daemon's workers. Not owned; must outlive the
  // Speculator.
  explicit Speculator(ThreadPool* pool);
  ~Speculator();  // Drains in-flight presolves.

  Speculator(const Speculator&) = delete;
  Speculator& operator=(const Speculator&) = delete;

  // Claims and presolves, in order, each candidate whose key is neither
  // claimed already nor held by the store.
  void Speculate(const std::vector<CandidateConfig>& candidates, const Presolver& presolver);

  // Attributes one served plan filed under `key`: `compiled` = it was
  // compiled on the critical path (a miss); otherwise it came from the
  // store, and the first such use of a usable presolve is a hit.
  void Record(const PresolveKey& key, bool compiled);

  // Blocks until every claimed presolve has finished.
  void Drain();

  SpeculationCounts counts() const;

 private:
  enum class State { kInFlight, kFailed, kUsable, kUsed };

  void Presolve(const PresolveKey& key, const ClusterSpec& cluster,
                const std::function<bool(const ClusterSpec&)>& presolve);

  ThreadPool* const pool_;

  mutable std::mutex mu_;
  std::condition_variable idle_;
  int in_flight_ = 0;
  std::map<PresolveKey, State> claims_;
  SpeculationCounts counts_;
};

}  // namespace elastic
}  // namespace alpa

#endif  // SRC_ELASTIC_SPECULATOR_H_
