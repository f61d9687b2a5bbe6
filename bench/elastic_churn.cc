// Goodput under a week of production churn: speculative vs reactive.
//
// The elastic runtime (src/elastic) replays a deterministic stream of
// Poisson host failures plus announced joins/drains against a live
// cluster, replanning at every mutation. This bench runs the SAME stream
// twice:
//
//   speculative — the speculator presolves the likely next configurations
//     into the run's plan store after every replan, so failover finds its
//     plan stored by construction (downtime = warm_replan, no cold compile
//     in the critical path);
//   reactive    — the RepairPlan-style baseline: recompile on demand when
//     churn strikes (previously-visited configs still count warm, as a
//     reactive runtime also keeps the plans it already paid for).
//
// Goodput (pflops-seconds over the horizon) must be strictly higher for
// the speculative lane; the bench exits non-zero otherwise, which is what
// the elastic_churn_smoke ctest entry enforces. A final section compiles
// a mixed-generation (V100+A100) cluster with heterogeneity-aware stage
// assignment on and off and reports the simulated iteration times.
//
//   elastic_churn [--smoke] [--json PATH] [--threads N]
//
// --smoke shrinks the horizon and the model for tier-1; the full run
// produces BENCH_elastic.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/elastic/elastic.h"
#include "src/models/gpt.h"

namespace {

using namespace alpa;
using namespace alpa::bench;

// Median of the measured failover walls of the epochs `warm` selects.
double MedianFailoverWall(const std::vector<elastic::ElasticEpoch>& epochs, bool warm) {
  std::vector<double> walls;
  for (const elastic::ElasticEpoch& epoch : epochs) {
    // Epoch 0 is the startup compile, not a failover.
    if (epoch.trigger != "start" && epoch.feasible && epoch.warm == warm) {
      walls.push_back(epoch.failover_wall_seconds);
    }
  }
  if (walls.empty()) {
    return 0.0;
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

int WarmEpochs(const std::vector<elastic::ElasticEpoch>& epochs, bool warm) {
  int n = 0;
  for (const elastic::ElasticEpoch& epoch : epochs) {
    if (epoch.trigger != "start" && epoch.warm == warm) {
      ++n;
    }
  }
  return n;
}

// Warm failovers that were not the first use of a presolve: revisits of a
// config whose stored plan an earlier epoch compiled or already used.
int WarmRevisits(const elastic::ElasticRunResult& run) {
  return WarmEpochs(run.epochs, true) - static_cast<int>(run.speculative_hits);
}

void ReportLane(JsonReport& report, const char* lane, const elastic::ElasticRunResult& run) {
  std::printf("%-12s %s, %d warm revisits\n", lane, run.ToString().c_str(), WarmRevisits(run));
  report.AddRow()
      .Str("section", "churn_week")
      .Str("lane", lane)
      .Num("horizon_seconds", run.horizon_seconds)
      .Int("epochs", static_cast<long long>(run.epochs.size()))
      .Int("events_applied", run.events_applied)
      .Int("events_skipped", run.events_skipped)
      .Num("goodput_pflops_seconds", run.total_goodput_pflops_seconds)
      .Num("downtime_seconds", run.total_downtime_seconds)
      .Num("uptime_fraction", run.uptime_fraction)
      .Int("warm_failovers", WarmEpochs(run.epochs, true))
      .Int("cold_failovers", WarmEpochs(run.epochs, false))
      .Num("p50_warm_failover_wall_seconds", MedianFailoverWall(run.epochs, true))
      .Num("p50_cold_failover_wall_seconds", MedianFailoverWall(run.epochs, false))
      .Num("startup_compile_wall_seconds",
           run.epochs.empty() ? 0.0 : run.epochs.front().failover_wall_seconds)
      .Int("speculations", run.speculations)
      .Int("speculative_hits", run.speculative_hits)
      .Int("warm_revisits", WarmRevisits(run))
      .Int("speculative_misses", run.speculative_misses)
      .Int("wasted_presolves", run.wasted_presolves)
      .Int("determinism_fingerprint",
           static_cast<long long>(run.DeterminismFingerprint()));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = ParseBenchFlags(argc, argv, /*default_threads=*/2);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  InitBench(flags);
  JsonReport report("elastic_churn");

  GptConfig config = GptPaperCases()[0].config;
  config.microbatch = 8;
  const Graph graph = BuildGpt(config);
  const int num_microbatches = smoke ? 8 : 16;
  const int target_layers = smoke ? 4 : 8;
  const ClusterSpec initial = ClusterSpec::AwsP3(4, 2);

  const ParallelizeOptions options = ParallelizeOptions::Builder()
                                         .microbatches(num_microbatches)
                                         .target_layers(target_layers)
                                         .threads(flags.threads)
                                         .search_budget(kBenchSearchBudget)
                                         .Build();

  elastic::ElasticOptions elastic_options;
  elastic::ChurnOptions& churn = elastic_options.churn;
  churn.horizon_seconds = smoke ? 0.5 * 86400.0 : 7 * 86400.0;
  churn.host_mtbf_seconds = smoke ? 0.15 * 86400.0 : 2.5 * 86400.0;
  churn.seed = 0x5eedULL;
  // Announced maintenance: capacity replenished daily, one drain near the
  // end — the speculative lane presolves both ahead of time.
  const double day = 86400.0;
  if (smoke) {
    churn.scheduled.push_back(
        {0.2 * day, elastic::ChurnEventKind::kHostJoin, -1, initial.device});
    churn.scheduled.push_back({0.4 * day, elastic::ChurnEventKind::kHostDrain, 0, {}});
  } else {
    for (int d = 1; d <= 5; ++d) {
      churn.scheduled.push_back(
          {d * day, elastic::ChurnEventKind::kHostJoin, -1, initial.device});
    }
    churn.scheduled.push_back({6.5 * day, elastic::ChurnEventKind::kHostDrain, 0, {}});
  }
  elastic_options.speculation.k = 4;
  elastic_options.threads = flags.threads;

  std::printf("=== One %s of churn: speculative presolve vs reactive recompile ===\n",
              smoke ? "half-day (smoke)" : "week");

  // Reactive runs FIRST so its cold-compile wall times are genuinely cold
  // (the process-wide ILP memo is empty); the modeled goodput numbers are
  // order-independent either way.
  elastic_options.speculative = false;
  const StatusOr<elastic::ElasticRunResult> reactive =
      elastic::RunElasticLoop(graph, initial, options, elastic_options);
  if (!reactive.ok()) {
    std::printf("reactive lane failed: %s\n", reactive.status().ToString().c_str());
    return 1;
  }
  ReportLane(report, "reactive", *reactive);

  elastic_options.speculative = true;
  const StatusOr<elastic::ElasticRunResult> speculative =
      elastic::RunElasticLoop(graph, initial, options, elastic_options);
  if (!speculative.ok()) {
    std::printf("speculative lane failed: %s\n", speculative.status().ToString().c_str());
    return 1;
  }
  ReportLane(report, "speculative", *speculative);

  std::printf(
      "speculative failovers: %lld presolve hits + %d warm revisits + %lld cold; p50 warm "
      "failover wall %.6fs vs cold compile %.3fs; goodput +%.2f%% over reactive\n",
      static_cast<long long>(speculative->speculative_hits), WarmRevisits(*speculative),
      static_cast<long long>(speculative->speculative_misses),
      MedianFailoverWall(speculative->epochs, true),
      reactive->epochs.front().failover_wall_seconds,
      reactive->total_goodput_pflops_seconds > 0.0
          ? 100.0 * (speculative->total_goodput_pflops_seconds /
                         reactive->total_goodput_pflops_seconds -
                     1.0)
          : 0.0);

  std::printf("\n=== Mixed-generation cluster: hetero-aware stage assignment ===\n");
  {
    const ClusterSpec mixed = ClusterSpec::MixedGeneration(
        /*num_base_hosts=*/2, /*num_fast_hosts=*/2, /*devices_per_host=*/2);
    // Fewer stages than devices, so stages span multiple same-shape
    // submeshes with UNEQUAL latencies — the configuration where matching
    // slow stages to fast meshes actually moves the pipeline bottleneck.
    const ParallelizeOptions hetero_base = ParallelizeOptions::Builder()
                                               .microbatches(8)
                                               .target_layers(4)
                                               .threads(flags.threads)
                                               .search_budget(kBenchSearchBudget)
                                               .Build();
    for (const bool aware : {true, false}) {
      ParallelizeOptions hetero_options = hetero_base;
      hetero_options.inter.hetero_aware = aware;
      Graph copy = graph;
      const StatusOr<ParallelPlan> plan = Parallelize(copy, mixed, hetero_options);
      StatusOr<ExecutionStats> stats = plan.ok()
                                           ? Simulate(*plan, graph, mixed)
                                           : StatusOr<ExecutionStats>(plan.status());
      std::printf("hetero_aware=%-5s %s\n", aware ? "true" : "false",
                  stats.ok() ? stats->ToString().c_str()
                             : stats.status().ToString().c_str());
      report.AddRow()
          .Str("section", "hetero_assignment")
          .Bool("hetero_aware", aware)
          .Int("base_hosts", 2)
          .Int("fast_hosts", 2)
          .Stats(stats);
    }
  }

  report.Write(flags.json_path);

  // The acceptance gate: speculation must strictly beat the reactive
  // baseline on the same churn stream.
  if (speculative->total_goodput_pflops_seconds <= reactive->total_goodput_pflops_seconds) {
    std::printf("FAIL: speculative goodput did not beat reactive\n");
    return 1;
  }
  std::printf("\nOK: speculative goodput beats reactive\n");
  return 0;
}
