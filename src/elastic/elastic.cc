#include "src/elastic/elastic.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/support/logging.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alpa {
namespace elastic {

namespace {

// Modeled downtime components (seconds), all deterministic.
// Failures only: heartbeat detection + checkpoint restore.
constexpr double kDetectionSeconds = 1.0;
constexpr double kCheckpointRestoreSeconds = 30.0;
// Plan switch when the run's store already holds the new config's plan
// (presolved, or compiled earlier in the run).
constexpr double kWarmReplanSeconds = 0.5;
// Full recompile sitting in the failover critical path.
constexpr double kColdReplanSeconds = 30.0;

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Simulated pflops of a plan; 0 when the plan cannot run (OOM etc.) —
// a down cluster produces no goodput but the loop keeps going.
double SimulatedPflops(const ParallelPlan& plan, const Graph& graph,
                       const ClusterSpec& cluster) {
  const StatusOr<ExecutionStats> stats = Simulate(plan, graph, cluster);
  return stats.ok() ? stats->pflops : 0.0;
}

}  // namespace

StatusOr<ElasticRunResult> RunElasticLoop(const Graph& graph, const ClusterSpec& initial,
                                          const ParallelizeOptions& options,
                                          const ElasticOptions& elastic) {
  TraceSpan span("elastic_loop");
  ElasticRunResult result;
  result.horizon_seconds = elastic.churn.horizon_seconds;
  if (result.horizon_seconds <= 0.0) {
    return Status::InvalidArgument("churn horizon must be positive");
  }

  // Each solve copies the graph (Parallelize mutates layer tags), so
  // concurrent presolves never share mutable state.
  const auto solve = [&graph, &options](const ClusterSpec& cluster) -> StatusOr<ParallelPlan> {
    Graph copy = graph;
    return Parallelize(copy, cluster, options);
  };

  // The run's one plan store, by cluster fingerprint: every plan this run
  // compiled or presolved. A failover is warm when the store holds its
  // plan, in both modes (a reactive runtime also keeps the plans it
  // already paid for).
  std::mutex store_mu;
  std::map<uint64_t, ParallelPlan> store;
  const auto keep = [&store_mu, &store](uint64_t fingerprint, const ParallelPlan& plan) {
    std::lock_guard<std::mutex> lock(store_mu);
    store.emplace(fingerprint, plan);
  };

  Presolver presolver;
  presolver.key = [](const ClusterSpec& cluster, PresolveKey* key) {
    *key = {cluster.Fingerprint(), 0};
    return true;
  };
  presolver.holds = [&store_mu, &store](const PresolveKey& key) {
    std::lock_guard<std::mutex> lock(store_mu);
    return store.count(key.first) > 0;
  };
  presolver.presolve = [&solve, &keep](const ClusterSpec& cluster) {
    const StatusOr<ParallelPlan> plan = solve(cluster);
    if (plan.ok()) {
      keep(cluster.Fingerprint(), *plan);
    }
    return plan.ok();
  };

  const std::vector<ChurnEvent> events = SampleChurnEvents(initial, elastic.churn);

  // Pool before speculator: the speculator's destructor drains its
  // presolves while the pool is still alive.
  std::unique_ptr<ThreadPool> pool;
  if (elastic.speculative && elastic.threads > 1) {
    pool = std::make_unique<ThreadPool>(elastic.threads);
  }
  std::unique_ptr<Speculator> speculator;
  if (elastic.speculative) {
    speculator = std::make_unique<Speculator>(pool.get());
  }
  const auto speculate = [&](const ClusterSpec& current, double now) {
    if (speculator != nullptr) {
      speculator->Speculate(EnumerateLikelyConfigs(current, elastic.churn.scheduled, now,
                                                   elastic.churn.host_mtbf_seconds,
                                                   elastic.speculation),
                            presolver);
    }
  };

  LiveCluster live(initial);
  const double startup_wall = WallSeconds();
  const StatusOr<ParallelPlan> plan = solve(live.spec());
  if (!plan.ok()) {
    return plan.status();  // A broken initial config is a caller error.
  }

  ElasticEpoch epoch;
  epoch.start_seconds = 0.0;
  epoch.trigger = "start";
  epoch.num_hosts = live.spec().num_hosts;
  epoch.warm = false;
  epoch.downtime_seconds = 0.0;  // Startup compile is not downtime.
  // The truly-cold compile reference (reported, never fingerprinted):
  // later "cold" replans ride the warm process-wide ILP memo, so this is
  // what a from-scratch failover compile would actually cost.
  epoch.failover_wall_seconds = WallSeconds() - startup_wall;
  epoch.cluster_fingerprint = live.spec().Fingerprint();
  epoch.pflops = SimulatedPflops(*plan, graph, live.spec());
  keep(epoch.cluster_fingerprint, *plan);
  speculate(live.spec(), 0.0);

  const auto close_epoch = [&](double end) {
    epoch.end_seconds = end;
    const double duration = std::max(0.0, end - epoch.start_seconds);
    const double productive = std::max(0.0, duration - epoch.downtime_seconds);
    epoch.goodput_pflops_seconds = productive * epoch.pflops;
    result.total_downtime_seconds += std::min(epoch.downtime_seconds, duration);
    result.total_goodput_pflops_seconds += epoch.goodput_pflops_seconds;
    result.epochs.push_back(epoch);
  };

  for (const ChurnEvent& event : events) {
    if (event.time >= result.horizon_seconds) {
      break;
    }
    {
      const Status applied = live.Apply(event);  // Mutates only on success.
      if (!applied.ok()) {
        ++result.events_skipped;
        continue;
      }
    }
    close_epoch(event.time);
    ++result.events_applied;

    // --- Failover: the stored plan (warm), else a critical-path compile. ---
    const uint64_t fingerprint = live.spec().Fingerprint();
    const double wall_start = WallSeconds();
    if (speculator != nullptr) {
      speculator->Drain();  // Deterministic warm/cold: every presolve finished.
    }
    StatusOr<ParallelPlan> next = Status::Infeasible("no plan yet");
    {
      std::lock_guard<std::mutex> lock(store_mu);
      const auto it = store.find(fingerprint);
      if (it != store.end()) {
        next = it->second;
      }
    }
    const bool warm = next.ok();
    if (!warm) {
      next = solve(live.spec());
      if (next.ok()) {
        keep(fingerprint, *next);
      }
    }
    if (speculator != nullptr) {
      speculator->Record({fingerprint, 0}, /*compiled=*/!warm);
    }
    const double failover_wall = WallSeconds() - wall_start;

    epoch = ElasticEpoch{};
    epoch.start_seconds = event.time;
    epoch.trigger = event.kind == ChurnEventKind::kHostJoin
                        ? StrFormat("announced %s", ToString(event.kind))
                        : StrFormat("%s host %d", ToString(event.kind), event.host);
    epoch.num_hosts = live.spec().num_hosts;
    epoch.warm = warm;
    epoch.announced = event.announced();
    epoch.cluster_fingerprint = fingerprint;
    epoch.failover_wall_seconds = failover_wall;
    // Planned events skip detection and restore: the job checkpoints at
    // the drain boundary and the old plan runs until the switch.
    epoch.downtime_seconds =
        (event.announced() ? 0.0 : kDetectionSeconds + kCheckpointRestoreSeconds) +
        (warm ? kWarmReplanSeconds : kColdReplanSeconds);
    if (next.ok()) {
      epoch.pflops = SimulatedPflops(*next, graph, live.spec());
    } else {
      // No feasible plan for this config: the cluster idles until the next
      // event (goodput 0), then replans from whatever comes.
      epoch.feasible = false;
      epoch.pflops = 0.0;
    }
    speculate(live.spec(), event.time);
  }
  close_epoch(result.horizon_seconds);

  if (speculator != nullptr) {
    speculator->Drain();
    const SpeculationCounts counts = speculator->counts();
    result.speculations = counts.speculations;
    result.speculative_hits = counts.hits;
    result.speculative_misses = counts.misses;
    result.wasted_presolves = counts.wasted;
  }
  result.uptime_fraction =
      result.horizon_seconds > 0.0
          ? 1.0 - result.total_downtime_seconds / result.horizon_seconds
          : 1.0;
  return result;
}

uint64_t ElasticRunResult::DeterminismFingerprint() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis.
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_f64 = [&mix](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix_f64(horizon_seconds);
  mix_f64(total_downtime_seconds);
  mix_f64(total_goodput_pflops_seconds);
  mix(static_cast<uint64_t>(events_applied));
  mix(static_cast<uint64_t>(events_skipped));
  mix(static_cast<uint64_t>(speculations));
  mix(static_cast<uint64_t>(speculative_hits));
  mix(static_cast<uint64_t>(speculative_misses));
  mix(static_cast<uint64_t>(wasted_presolves));
  mix(static_cast<uint64_t>(epochs.size()));
  for (const ElasticEpoch& epoch : epochs) {
    mix_f64(epoch.start_seconds);
    mix_f64(epoch.end_seconds);
    for (char c : epoch.trigger) {
      mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    mix(static_cast<uint64_t>(epoch.num_hosts));
    mix(static_cast<uint64_t>((epoch.feasible ? 1 : 0) | (epoch.warm ? 2 : 0) |
                              (epoch.announced ? 4 : 0)));
    mix_f64(epoch.downtime_seconds);
    mix_f64(epoch.pflops);
    mix_f64(epoch.goodput_pflops_seconds);
    mix(epoch.cluster_fingerprint);
  }
  return h;
}

std::string ElasticRunResult::ToString() const {
  return StrFormat(
      "ElasticRun: %zu epochs over %s, goodput=%.3f pflops-days, downtime=%s "
      "(uptime %.3f%%), speculation %lld launched / %lld hit / %lld miss / %lld wasted",
      epochs.size(), HumanSeconds(horizon_seconds).c_str(),
      total_goodput_pflops_seconds / 86400.0, HumanSeconds(total_downtime_seconds).c_str(),
      uptime_fraction * 100.0, static_cast<long long>(speculations),
      static_cast<long long>(speculative_hits), static_cast<long long>(speculative_misses),
      static_cast<long long>(wasted_presolves));
}

}  // namespace elastic
}  // namespace alpa
