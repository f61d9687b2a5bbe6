// The elastic runtime: a continuous replan/execute loop under churn.
//
// One-shot compilation (Parallelize) and one-shot repair (RepairPlan)
// answer "what plan fits THIS cluster". The elastic loop answers the
// production question: over a horizon of failures, joins, and drains, how
// much useful work does the job complete? It replays a deterministic churn
// stream (churn.h) against a live cluster, replans at every mutation from
// one run-local plan store (a failover is warm when the store holds the
// new config's plan, cold when it must compile), optionally has the
// speculator (speculator.h) presolve the likely next configs into that
// store, and accounts downtime and goodput per epoch.
//
// Downtime is MODELED with deterministic constants (elastic.cc) chosen by
// the (equally deterministic) warm/cold policy, so goodput totals are
// bit-identical across thread counts and reruns under a fixed seed;
// measured wall-clock compile/failover times are reported alongside but
// excluded from the determinism fingerprint.
#ifndef SRC_ELASTIC_ELASTIC_H_
#define SRC_ELASTIC_ELASTIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/api.h"
#include "src/elastic/churn.h"
#include "src/elastic/speculator.h"

namespace alpa {
namespace elastic {

struct ElasticOptions {
  ChurnOptions churn;
  SpeculationOptions speculation;
  // true: presolve likely next configs into the run's plan store in the
  // background. false: the reactive baseline — compile on demand
  // (previously-visited configs are still stored and warm, matching a
  // reactive runtime that keeps its old plans).
  bool speculative = true;
  // Background presolve workers. 0/1 = inline presolves (still the same
  // results; the thread count must never change any number).
  int threads = 0;
};

// One planning epoch: the interval between two cluster mutations.
struct ElasticEpoch {
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  std::string trigger;  // "start", "failure host 2", "announced join", ...
  int num_hosts = 0;
  bool feasible = true;
  bool warm = false;      // Plan served without a critical-path recompile.
  bool announced = false; // Planned event: no detection/restore charge.
  double downtime_seconds = 0.0;  // Modeled, charged at epoch start.
  double pflops = 0.0;            // Simulated throughput of the epoch's plan.
  double goodput_pflops_seconds = 0.0;  // max(0, duration - downtime) * pflops.
  uint64_t cluster_fingerprint = 0;
  // Measured wall times — reporting only, excluded from the fingerprint.
  double failover_wall_seconds = 0.0;
};

struct ElasticRunResult {
  std::vector<ElasticEpoch> epochs;
  double horizon_seconds = 0.0;
  double total_downtime_seconds = 0.0;
  double total_goodput_pflops_seconds = 0.0;
  double uptime_fraction = 1.0;
  int64_t events_applied = 0;
  int64_t events_skipped = 0;  // Inapplicable events (e.g. drain below min).
  // The speculator's counters (speculator.h; all zero for the reactive
  // baseline). A hit is the first warm failover onto a presolved config;
  // a miss is a cold failover. A warm revisit of a config whose stored
  // plan was used before is neither.
  int64_t speculations = 0;
  int64_t speculative_hits = 0;
  int64_t speculative_misses = 0;
  int64_t wasted_presolves = 0;

  // FNV-1a digest of every deterministic field (epoch times, triggers,
  // warm/cold decisions, downtime, pflops, goodput, fingerprints, and the
  // speculation counters). Bit-identical across thread counts and reruns
  // for a fixed seed; wall-clock fields are excluded.
  uint64_t DeterminismFingerprint() const;

  std::string ToString() const;
};

// Runs the full loop: sample the churn stream, compile the initial plan,
// then for every applicable event mutate the cluster, replan from the
// run's plan store (compiling on a miss), simulate, account goodput, and
// (when speculative) presolve the likely next configs into the store.
// Errors only on a broken INITIAL configuration; mid-run infeasible
// configs become zero-goodput epochs (the cluster is down until the next
// event).
StatusOr<ElasticRunResult> RunElasticLoop(const Graph& graph, const ClusterSpec& initial,
                                          const ParallelizeOptions& options,
                                          const ElasticOptions& elastic);

}  // namespace elastic
}  // namespace alpa

#endif  // SRC_ELASTIC_ELASTIC_H_
