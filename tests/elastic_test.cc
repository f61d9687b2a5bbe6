// Tests of the elastic runtime (src/elastic): churn stream determinism,
// LiveCluster mutation semantics, speculative-candidate enumeration, the
// speculation ledger's claims and counters, the full replan loop's
// bit-identical fingerprint across thread counts and reruns, the
// speculative-vs-reactive goodput ordering, the elastic/* metrics,
// heterogeneity-aware stage assignment on mixed-generation clusters, and
// the RepairPlan zero-feasible-submeshes regression.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/core/api.h"
#include "src/elastic/churn.h"
#include "src/elastic/elastic.h"
#include "src/elastic/speculator.h"
#include "src/models/gpt.h"
#include "src/models/mlp.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alpa {
namespace elastic {
namespace {

ParallelizeOptions MlpOptions() {
  ParallelizeOptions options;
  options.num_microbatches = 4;
  options.inter.target_layers = 2;
  return options;
}

// A small elastic scenario: 2x2 cluster, aggressive failures, capacity
// replenished by scheduled joins so the loop keeps replanning.
ElasticOptions SmallScenario() {
  ElasticOptions elastic;
  elastic.churn.horizon_seconds = 2000.0;
  elastic.churn.host_mtbf_seconds = 400.0;
  elastic.churn.seed = 0x5eedULL;
  elastic.churn.scheduled.push_back(
      {600.0, ChurnEventKind::kHostJoin, -1, DeviceSpec::V100()});
  elastic.churn.scheduled.push_back(
      {1200.0, ChurnEventKind::kHostJoin, -1, DeviceSpec::V100()});
  return elastic;
}

TEST(Churn, SampleIsDeterministicAndTimeSorted) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(4, 2);
  ChurnOptions options;
  options.horizon_seconds = 86400.0;
  options.host_mtbf_seconds = 4000.0;
  options.scheduled.push_back({500.0, ChurnEventKind::kHostJoin, -1, DeviceSpec::A100()});
  options.scheduled.push_back({40000.0, ChurnEventKind::kHostDrain, 1, {}});

  const std::vector<ChurnEvent> a = SampleChurnEvents(cluster, options);
  const std::vector<ChurnEvent> b = SampleChurnEvents(cluster, options);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 2u);  // Failures sampled, not just the scheduled pair.
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].host, b[i].host);
    if (i > 0) {
      EXPECT_GE(a[i].time, a[i - 1].time);
    }
    if (a[i].kind == ChurnEventKind::kHostFailure) {
      EXPECT_GE(a[i].host, 0);
    }
    EXPECT_LT(a[i].time, options.horizon_seconds);
  }

  // A different seed yields a different failure stream.
  options.seed = 0x1234ULL;
  const std::vector<ChurnEvent> c = SampleChurnEvents(cluster, options);
  bool any_difference = c.size() != a.size();
  for (size_t i = 0; !any_difference && i < c.size(); ++i) {
    any_difference = c[i].time != a[i].time;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Churn, LiveClusterAppliesAndValidates) {
  LiveCluster live(ClusterSpec::AwsP3(2, 2));

  // Join an A100 host: the overlay materializes and the spec grows.
  ChurnEvent join{10.0, ChurnEventKind::kHostJoin, -1, DeviceSpec::A100()};
  ASSERT_TRUE(live.Apply(join).ok());
  EXPECT_EQ(live.spec().num_hosts, 3);
  EXPECT_TRUE(live.spec().heterogeneous());
  EXPECT_EQ(live.spec().host_device(2).memory_bytes, DeviceSpec::A100().memory_bytes);

  // Failure of host 0: indices shift down, the A100 host survives.
  ChurnEvent failure{20.0, ChurnEventKind::kHostFailure, 0, {}};
  ASSERT_TRUE(live.Apply(failure).ok());
  EXPECT_EQ(live.spec().num_hosts, 2);
  EXPECT_EQ(live.spec().host_device(1).memory_bytes, DeviceSpec::A100().memory_bytes);

  // Out-of-range target: rejected, spec untouched.
  ChurnEvent bogus{30.0, ChurnEventKind::kHostDrain, 7, {}};
  EXPECT_EQ(live.Apply(bogus).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(live.spec().num_hosts, 2);

  // Draining down to zero hosts is infeasible.
  ChurnEvent drain{40.0, ChurnEventKind::kHostDrain, 0, {}};
  ASSERT_TRUE(live.Apply(drain).ok());
  EXPECT_EQ(live.spec().num_hosts, 1);
  ChurnEvent last{50.0, ChurnEventKind::kHostFailure, 0, {}};
  EXPECT_EQ(live.Apply(last).code(), StatusCode::kInfeasible);
  EXPECT_EQ(live.spec().num_hosts, 1);
}

TEST(Speculator, HomogeneousFailuresCollapseToOneCandidate) {
  // Every single-host failure of a homogeneous cluster shrinks to the
  // same spec, so fingerprint dedup leaves exactly one failure candidate.
  const ClusterSpec cluster = ClusterSpec::AwsP3(3, 2);
  SpeculationOptions options;
  options.k = 8;
  const std::vector<CandidateConfig> candidates =
      EnumerateLikelyConfigs(cluster, {}, 0.0, 86400.0, options);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].cluster.num_hosts, 2);
  EXPECT_GT(candidates[0].likelihood, 0.0);
}

TEST(Speculator, MixedGenerationFailuresStayDistinct) {
  // Losing the V100 host and losing the A100 host are different futures.
  const ClusterSpec mixed = ClusterSpec::MixedGeneration(1, 1, /*devices_per_host=*/2);
  SpeculationOptions options;
  options.k = 8;
  std::vector<CandidateConfig> candidates =
      EnumerateLikelyConfigs(mixed, {}, 0.0, 86400.0, options);
  EXPECT_EQ(candidates.size(), 2u);

  // An announced join inside the lookahead ranks first (likelihood 1).
  std::vector<ChurnEvent> announced = {
      {1000.0, ChurnEventKind::kHostJoin, -1, DeviceSpec::H100()}};
  candidates = EnumerateLikelyConfigs(mixed, announced, 0.0, 86400.0, options);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].likelihood, 1.0);
  EXPECT_EQ(candidates[0].cluster.num_hosts, 3);
}

CandidateConfig Candidate(int hosts) {
  CandidateConfig candidate;
  candidate.cluster = ClusterSpec::AwsP3(hosts, 2);
  return candidate;
}

PresolveKey KeyOf(int hosts) { return {ClusterSpec::AwsP3(hosts, 2).Fingerprint(), 0}; }

// The plan store of the ledger tests: the keys it holds and how many
// presolves ran. `usable` decides each presolve's outcome.
struct TestStore {
  std::mutex mu;
  std::set<PresolveKey> held;
  std::atomic<int> presolves{0};
  std::function<bool(const ClusterSpec&)> usable = [](const ClusterSpec&) { return true; };

  Presolver presolver() {
    Presolver presolver;
    presolver.key = [](const ClusterSpec& cluster, PresolveKey* key) {
      *key = {cluster.Fingerprint(), 0};
      return true;
    };
    presolver.holds = [this](const PresolveKey& key) {
      std::lock_guard<std::mutex> lock(mu);
      return held.count(key) > 0;
    };
    presolver.presolve = [this](const ClusterSpec& cluster) {
      ++presolves;
      if (!usable(cluster)) {
        return false;
      }
      std::lock_guard<std::mutex> lock(mu);
      held.insert({cluster.Fingerprint(), 0});
      return true;
    };
    return presolver;
  }
};

TEST(Speculator, ConcurrentSpeculationsOfOneCandidatePresolveOnce) {
  Speculator speculator(/*pool=*/nullptr);
  TestStore store;
  // The first thread's presolve blocks until the second thread has
  // speculated the same candidate: the store does not hold the plan yet,
  // so only the claim can stop a second presolve.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  Presolver presolver = store.presolver();
  presolver.presolve = [&, presolve = presolver.presolve](const ClusterSpec& cluster) {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    return presolve(cluster);
  };
  const std::vector<CandidateConfig> candidates = {Candidate(1)};
  std::thread first([&] { speculator.Speculate(candidates, presolver); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  std::thread second([&] { speculator.Speculate(candidates, presolver); });
  second.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  first.join();

  EXPECT_EQ(store.presolves.load(), 1);
  const SpeculationCounts counts = speculator.counts();
  EXPECT_EQ(counts.speculations, 1);
  EXPECT_EQ(counts.wasted, 1);
}

TEST(Speculator, FailedPresolveIsNeitherRetriedNorWasted) {
  Speculator speculator(/*pool=*/nullptr);
  TestStore store;
  store.usable = [](const ClusterSpec&) { return false; };
  const Presolver presolver = store.presolver();
  speculator.Speculate({Candidate(1)}, presolver);
  // A later hit of the request that seeded it speculates the same
  // candidate again.
  speculator.Record(KeyOf(2), /*compiled=*/false);
  speculator.Speculate({Candidate(1)}, presolver);

  EXPECT_EQ(store.presolves.load(), 1);
  const SpeculationCounts counts = speculator.counts();
  EXPECT_EQ(counts.speculations, 1);
  EXPECT_EQ(counts.failed, 1);
  EXPECT_EQ(counts.wasted, 0);
  EXPECT_EQ(counts.hits, 0);
}

TEST(Speculator, FirstUseIsAHitSecondIsNeitherCompileIsAMiss) {
  Speculator speculator(/*pool=*/nullptr);
  TestStore store;
  speculator.Speculate({Candidate(1), Candidate(2)}, store.presolver());
  EXPECT_EQ(speculator.counts().speculations, 2);
  EXPECT_EQ(speculator.counts().wasted, 2);

  speculator.Record(KeyOf(1), /*compiled=*/false);
  SpeculationCounts counts = speculator.counts();
  EXPECT_EQ(counts.hits, 1);
  EXPECT_EQ(counts.wasted, 1);

  speculator.Record(KeyOf(1), /*compiled=*/false);  // Second use.
  speculator.Record(KeyOf(3), /*compiled=*/false);  // Stored, never presolved.
  counts = speculator.counts();
  EXPECT_EQ(counts.hits, 1);
  EXPECT_EQ(counts.wasted, 1);
  EXPECT_EQ(counts.misses, 0);

  speculator.Record(KeyOf(4), /*compiled=*/true);
  counts = speculator.counts();
  EXPECT_EQ(counts.misses, 1);
  EXPECT_EQ(counts.hits, 1);
  EXPECT_EQ(counts.speculations, 2);
}

TEST(Speculator, StoredCandidateIsNotPresolved) {
  Speculator speculator(/*pool=*/nullptr);
  TestStore store;
  store.held.insert(KeyOf(1));
  speculator.Speculate({Candidate(1), Candidate(2)}, store.presolver());
  EXPECT_EQ(store.presolves.load(), 1);
  EXPECT_EQ(speculator.counts().speculations, 1);
  EXPECT_EQ(speculator.counts().wasted, 1);
}

TEST(Speculator, DrainedLedgerBalances) {
  ThreadPool pool(3);  // Outlives the speculator.
  TestStore store;
  store.usable = [](const ClusterSpec& cluster) { return cluster.num_hosts % 3 != 0; };
  Speculator speculator(&pool);
  std::vector<CandidateConfig> candidates;
  for (int hosts = 1; hosts <= 9; ++hosts) {
    candidates.push_back(Candidate(hosts));
  }
  speculator.Speculate(candidates, store.presolver());
  speculator.Drain();
  for (int hosts = 1; hosts <= 4; ++hosts) {
    speculator.Record(KeyOf(hosts), /*compiled=*/false);
  }
  speculator.Record(KeyOf(2), /*compiled=*/false);

  EXPECT_EQ(store.presolves.load(), 9);
  const SpeculationCounts counts = speculator.counts();
  EXPECT_EQ(counts.speculations, 9);
  EXPECT_EQ(counts.failed, 3);  // 3, 6 and 9 hosts.
  EXPECT_EQ(counts.hits, 3);    // 1, 2 and 4 hosts.
  EXPECT_EQ(counts.wasted, 3);  // 5, 7 and 8 hosts.
  EXPECT_EQ(counts.speculations, counts.hits + counts.wasted + counts.failed);
}

TEST(Elastic, FingerprintIdenticalAcrossThreadsAndReruns) {
  const Graph graph = BuildMlp(MlpConfig{});
  const ClusterSpec initial = ClusterSpec::AwsP3(2, 2);
  const ParallelizeOptions options = MlpOptions();

  ElasticOptions inline_presolves = SmallScenario();
  inline_presolves.threads = 0;
  const StatusOr<ElasticRunResult> a =
      RunElasticLoop(graph, initial, options, inline_presolves);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_GT(a->events_applied, 0);

  const StatusOr<ElasticRunResult> b =
      RunElasticLoop(graph, initial, options, inline_presolves);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ElasticOptions pooled = SmallScenario();
  pooled.threads = 4;
  const StatusOr<ElasticRunResult> c = RunElasticLoop(graph, initial, options, pooled);
  ASSERT_TRUE(c.ok()) << c.status().ToString();

  EXPECT_EQ(a->DeterminismFingerprint(), b->DeterminismFingerprint());
  EXPECT_EQ(a->DeterminismFingerprint(), c->DeterminismFingerprint());
  EXPECT_EQ(a->total_goodput_pflops_seconds, c->total_goodput_pflops_seconds);
  EXPECT_EQ(a->epochs.size(), c->epochs.size());
}

TEST(Elastic, SpeculativeBeatsReactiveGoodput) {
  const Graph graph = BuildMlp(MlpConfig{});
  const ClusterSpec initial = ClusterSpec::AwsP3(2, 2);
  const ParallelizeOptions options = MlpOptions();

  ElasticOptions reactive_options = SmallScenario();
  reactive_options.speculative = false;
  const StatusOr<ElasticRunResult> reactive =
      RunElasticLoop(graph, initial, options, reactive_options);
  ASSERT_TRUE(reactive.ok()) << reactive.status().ToString();

  ElasticOptions speculative_options = SmallScenario();
  speculative_options.speculative = true;
  speculative_options.threads = 2;
  const StatusOr<ElasticRunResult> speculative =
      RunElasticLoop(graph, initial, options, speculative_options);
  ASSERT_TRUE(speculative.ok()) << speculative.status().ToString();

  // Same churn stream, so the comparison is apples to apples.
  ASSERT_EQ(speculative->events_applied, reactive->events_applied);
  EXPECT_GT(speculative->speculative_hits, 0);
  EXPECT_EQ(reactive->speculations, 0);
  EXPECT_LT(speculative->total_downtime_seconds, reactive->total_downtime_seconds);
  EXPECT_GT(speculative->total_goodput_pflops_seconds,
            reactive->total_goodput_pflops_seconds);
}

TEST(Elastic, MetricsPublished) {
  Metrics::Reset();
  const Graph graph = BuildMlp(MlpConfig{});
  ElasticOptions elastic = SmallScenario();
  elastic.threads = 2;
  const StatusOr<ElasticRunResult> run =
      RunElasticLoop(graph, ClusterSpec::AwsP3(2, 2), MlpOptions(), elastic);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->speculations, 0);
  EXPECT_EQ(Metrics::Value("elastic/speculations"), run->speculations);
  EXPECT_EQ(Metrics::Value("elastic/speculative_hits"), run->speculative_hits);
  EXPECT_EQ(Metrics::Value("elastic/speculative_misses"), run->speculative_misses);
  EXPECT_EQ(Metrics::Value("elastic/wasted_presolves"), run->wasted_presolves);
}

TEST(Elastic, InfeasibleInitialClusterErrors) {
  const Graph graph = BuildMlp(MlpConfig{});
  ElasticOptions elastic;
  elastic.churn.horizon_seconds = -1.0;
  const StatusOr<ElasticRunResult> run =
      RunElasticLoop(graph, ClusterSpec::AwsP3(2, 2), MlpOptions(), elastic);
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(Hetero, MixedGenerationPresetShape) {
  const ClusterSpec mixed = ClusterSpec::MixedGeneration(2, 2, /*devices_per_host=*/2);
  EXPECT_EQ(mixed.num_hosts, 4);
  ASSERT_EQ(mixed.host_devices.size(), 4u);
  EXPECT_TRUE(mixed.heterogeneous());
  // Base (reference) hosts first, fast hosts appended.
  EXPECT_EQ(mixed.HostTimeScale(0, Precision::kFloat16), 1.0);
  EXPECT_LT(mixed.HostTimeScale(2, Precision::kFloat16), 1.0);
  // Fingerprints separate mixed from uniform clusters of the same extent.
  EXPECT_NE(mixed.Fingerprint(), ClusterSpec::AwsP3(4, 2).Fingerprint());
}

TEST(Hetero, AwareAssignmentBeatsUniformAssumption) {
  // The bench configuration: stages span multiple same-shape submeshes
  // with unequal latencies, so matching slow stages to fast meshes moves
  // the pipeline bottleneck.
  GptConfig config = GptPaperCases()[0].config;
  config.microbatch = 8;
  const ClusterSpec mixed = ClusterSpec::MixedGeneration(2, 2, /*devices_per_host=*/2);
  const ParallelizeOptions base = ParallelizeOptions::Builder()
                                      .microbatches(8)
                                      .target_layers(4)
                                      .threads(1)
                                      .search_budget(60'000)
                                      .Build();

  ParallelizeOptions aware_options = base;
  aware_options.inter.hetero_aware = true;
  Graph aware_graph = BuildGpt(config);
  const StatusOr<ParallelPlan> aware = Parallelize(aware_graph, mixed, aware_options);
  ASSERT_TRUE(aware.ok()) << aware.status().ToString();
  ASSERT_TRUE(aware->pipeline.feasible);

  ParallelizeOptions uniform_options = base;
  uniform_options.inter.hetero_aware = false;
  Graph uniform_graph = BuildGpt(config);
  const StatusOr<ParallelPlan> uniform = Parallelize(uniform_graph, mixed, uniform_options);
  ASSERT_TRUE(uniform.ok()) << uniform.status().ToString();

  const Graph graph = BuildGpt(config);
  const StatusOr<ExecutionStats> aware_stats = Simulate(*aware, graph, mixed);
  const StatusOr<ExecutionStats> uniform_stats = Simulate(*uniform, graph, mixed);
  ASSERT_TRUE(aware_stats.ok()) << aware_stats.status().ToString();
  ASSERT_TRUE(uniform_stats.ok()) << uniform_stats.status().ToString();
  EXPECT_LT(aware_stats->latency, uniform_stats->latency);
}

TEST(Repair, ZeroFeasibleSubmeshesRejected) {
  // failed_host kills host 0 and the fault scenario kills host 1 (device 2
  // lives there): nothing survives, which must be a structured error, not
  // a crash or an empty compile.
  Graph graph = BuildMlp(MlpConfig{});
  ClusterSpec cluster = ClusterSpec::AwsP3(2, 2);
  cluster.faults.device_failures.push_back({2, 0.0});
  RepairOptions repair;
  repair.failed_host = 0;
  const StatusOr<RepairResult> result = RepairPlan(graph, cluster, MlpOptions(), repair);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("zero feasible"), std::string::npos);
}

TEST(Repair, FaultDeviceOutOfRangeRejected) {
  // Past the last device, and negative devices that truncating division
  // would map onto host 0 (already failed, so the scenario would pass).
  for (const int device : {99, -1, -2}) {
    Graph graph = BuildMlp(MlpConfig{});
    ClusterSpec cluster = ClusterSpec::AwsP3(2, 4);
    cluster.faults.device_failures.push_back({device, 0.0});
    RepairOptions repair;
    repair.failed_host = 0;
    const StatusOr<RepairResult> result = RepairPlan(graph, cluster, MlpOptions(), repair);
    EXPECT_FALSE(result.ok()) << "device " << device;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << "device " << device;
  }
}

TEST(Repair, FaultsOnSurvivingHostsShrinkFurther) {
  // Faults name devices on host 2 as well: repair must drop BOTH the
  // explicitly failed host and every fault-stricken host.
  Graph graph = BuildMlp(MlpConfig{});
  ClusterSpec cluster = ClusterSpec::AwsP3(3, 2);
  cluster.faults.device_failures.push_back({4, 0.0});  // Host 2.
  RepairOptions repair;
  repair.failed_host = 0;
  const StatusOr<RepairResult> result = RepairPlan(graph, cluster, MlpOptions(), repair);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->shrunk_cluster.num_hosts, 1);
  EXPECT_TRUE(result->shrunk_cluster.faults.device_failures.empty());
}

TEST(Repair, MalformedMtbfModelRejected) {
  // Each model arrives as a wire repair request would; priced, they gave a
  // negative or NaN goodput.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* name;
    MtbfModel mtbf;
  } malformed[] = {
      {"negative interval", {86400.0, -1e9, 30.0}},
      {"negative restore", {86400.0, 600.0, -1e6}},
      {"NaN interval", {86400.0, nan, 30.0}},
      {"infinite mtbf", {inf, 600.0, 30.0}},
  };
  for (const auto& [name, mtbf] : malformed) {
    Graph graph = BuildMlp(MlpConfig{});
    RepairOptions repair;
    repair.mtbf = mtbf;
    const StatusOr<RepairResult> result =
        RepairPlan(graph, ClusterSpec::AwsP3(2, 2), MlpOptions(), repair);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
  // A non-positive MTBF still means "no recurring failures".
  Graph graph = BuildMlp(MlpConfig{});
  RepairOptions repair;
  repair.mtbf.mtbf_seconds = -1.0;
  const StatusOr<RepairResult> result =
      RepairPlan(graph, ClusterSpec::AwsP3(2, 2), MlpOptions(), repair);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->goodput_fraction, 1.0);
}

}  // namespace
}  // namespace elastic
}  // namespace alpa
