// Plan-cache tests: key coverage (graph names/layers, cluster extent,
// options, profile-source fingerprint), eligibility rules, the
// memory+disk lookup path with restart survival, the PR-6 regression
// (a measured-profile recompile must MISS the analytical-cost entry),
// single-flight dedup under a concurrent cold storm, and the LRU
// eviction caps that bound the disk store.
#include "src/serve/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "src/core/api.h"
#include "src/inter/profile_feedback.h"
#include "src/models/mlp.h"
#include "src/serve/service.h"
#include "src/support/trace.h"

namespace alpa {
namespace serve {
namespace {

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PlanCache::Global().Clear(/*also_disk=*/true);
    PlanCache::Global().SetLimits(PlanCacheLimits{});
    ASSERT_TRUE(PlanCache::Global().SetDiskDir("").ok());
  }
  void TearDown() override {
    PlanCache::Global().Clear(/*also_disk=*/true);
    PlanCache::Global().SetLimits(PlanCacheLimits{});
    ASSERT_TRUE(PlanCache::Global().SetDiskDir("").ok());
    if (!temp_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(temp_dir_, ec);
    }
  }

  std::string TempDir() {
    temp_dir_ = (std::filesystem::temp_directory_path() /
                 ("alpa_plan_cache_test_" +
                  std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                  ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                    .string();
    return temp_dir_;
  }

  std::string temp_dir_;
};

ParallelizeOptions FinalizedOptions() {
  ParallelizeOptions options;
  options.num_microbatches = 4;
  options.inter.target_layers = 2;
  EXPECT_TRUE(options.Finalize().ok());
  return options;
}

TEST_F(PlanCacheTest, KeyCoversGraphNamesAndLayers) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  const ParallelizeOptions options = FinalizedOptions();
  Graph a = BuildMlp(MlpConfig{});
  Graph b = BuildMlp(MlpConfig{});
  PlanCacheKey key_a;
  PlanCacheKey key_b;
  ASSERT_TRUE(ComputePlanCacheKey(a, cluster, options, &key_a));
  ASSERT_TRUE(ComputePlanCacheKey(b, cluster, options, &key_b));
  EXPECT_EQ(key_a, key_b);  // Deterministic.

  // Unlike StructuralHash, the plan key sees names and layer tags: the
  // clustering pass reads both, so plans for the graphs can differ.
  Graph renamed = BuildMlp(MlpConfig{});
  const_cast<Operator&>(renamed.ops()[1]).layer += 1;
  PlanCacheKey key_renamed;
  ASSERT_TRUE(ComputePlanCacheKey(renamed, cluster, options, &key_renamed));
  EXPECT_NE(key_a.graph_hash, key_renamed.graph_hash);
}

// The key covers exactly the inputs that steer a compile: flipping any one
// of them splits it, flipping anything the compiler cannot see does not.
TEST_F(PlanCacheTest, KeyCoversClusterExtentAndOptions) {
  Graph graph = BuildMlp(MlpConfig{});
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  const ParallelizeOptions base = FinalizedOptions();
  const auto config_hash = [&graph](const ClusterSpec& on, const ParallelizeOptions& options) {
    PlanCacheKey key;
    EXPECT_TRUE(ComputePlanCacheKey(graph, on, options, &key));
    return key.config_hash;
  };
  const uint64_t base_hash = config_hash(cluster, base);
  EXPECT_EQ(config_hash(cluster, base), base_hash);  // Deterministic.
  // The ILP memo deliberately ignores cluster extent; the plan cache must
  // not — a whole-plan result depends on the device count.
  EXPECT_NE(config_hash(ClusterSpec::AwsP3(1, 4), base), base_hash);

  struct Flip {
    const char* field;
    std::function<void(ParallelizeOptions&)> apply;
  };
  const std::vector<Flip> steering = {
      {"schedule", [](ParallelizeOptions& o) { o.schedule = PipelineScheduleType::kGpipe; }},
      {"enable_interop", [](ParallelizeOptions& o) { o.enable_interop = false; }},
      {"enable_intraop", [](ParallelizeOptions& o) { o.enable_intraop = false; }},
      {"reshard", [](ParallelizeOptions& o) { o.reshard = ReshardStrategy::kNaiveSendRecv; }},
      {"inter.num_microbatches", [](ParallelizeOptions& o) { o.inter.num_microbatches = 8; }},
      {"inter.target_layers", [](ParallelizeOptions& o) { o.inter.target_layers = 3; }},
      {"inter.clustering",
       [](ParallelizeOptions& o) { o.inter.clustering = ClusteringMethod::kEqualOperator; }},
      {"inter.equal_layer_stages",
       [](ParallelizeOptions& o) { o.inter.equal_layer_stages = true; }},
      {"inter.dp.device_memory_override",
       [](ParallelizeOptions& o) { o.inter.dp.device_memory_override = 1e12; }},
      {"inter.dp.max_tmax_candidates",
       [](ParallelizeOptions& o) { o.inter.dp.max_tmax_candidates = 8; }},
      {"inter.submesh_shapes",
       [](ParallelizeOptions& o) { o.inter.submesh_shapes = {SubmeshShape{1, 1}}; }},
      {"inter.profiler.memory_modes",
       [](ParallelizeOptions& o) { o.inter.profiler.memory_modes = false; }},
      {"intra.rematerialize",
       [](ParallelizeOptions& o) { o.inter.profiler.intra.rematerialize = false; }},
      {"intra.solver.max_search_nodes",
       [](ParallelizeOptions& o) { o.inter.profiler.intra.solver.max_search_nodes = 1000; }},
  };
  for (const Flip& flip : steering) {
    ParallelizeOptions flipped = base;
    flip.apply(flipped);
    EXPECT_NE(config_hash(cluster, flipped), base_hash) << flip.field;
  }
  // Placement matching only differs where generations differ.
  const ClusterSpec mixed = ClusterSpec::MixedGeneration(1, 1, /*devices_per_host=*/2);
  ParallelizeOptions unaware = base;
  unaware.inter.hetero_aware = false;
  EXPECT_NE(config_hash(mixed, unaware), config_hash(mixed, base)) << "inter.hetero_aware";

  // Thread count and trace path are plan-invariant (PlanEquals
  // determinism); Parallelize overwrites the intra-op precision and
  // microbatch count before any pass reads them. None may split the cache.
  const std::vector<Flip> inert = {
      {"inter.compile_threads", [](ParallelizeOptions& o) { o.inter.compile_threads = 4; }},
      {"trace_path", [](ParallelizeOptions& o) { o.trace_path = "plan.trace.json"; }},
      {"intra.precision",
       [](ParallelizeOptions& o) { o.inter.profiler.intra.precision = Precision::kFloat32; }},
      {"intra.num_microbatches",
       [](ParallelizeOptions& o) { o.inter.profiler.intra.num_microbatches = 8; }},
  };
  for (const Flip& flip : inert) {
    ParallelizeOptions flipped = base;
    flip.apply(flipped);
    EXPECT_EQ(config_hash(cluster, flipped), base_hash) << flip.field;
  }
  // The overwritten fields really cannot reach the plan.
  Graph base_graph = BuildMlp(MlpConfig{});
  const StatusOr<ParallelPlan> base_plan = Parallelize(base_graph, cluster, base);
  ASSERT_TRUE(base_plan.ok()) << base_plan.status().ToString();
  for (size_t i = 2; i < inert.size(); ++i) {
    ParallelizeOptions flipped = base;
    inert[i].apply(flipped);
    Graph flipped_graph = BuildMlp(MlpConfig{});
    const StatusOr<ParallelPlan> plan = Parallelize(flipped_graph, cluster, flipped);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(PlanEquals(plan->pipeline, base_plan->pipeline)) << inert[i].field;
  }
}

TEST_F(PlanCacheTest, ClosuresAreUncacheable) {
  Graph graph = BuildMlp(MlpConfig{});
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  PlanCacheKey key;

  ParallelizeOptions filtered = FinalizedOptions();
  filtered.inter.profiler.intra.filter = [](const Graph&, const DeviceMesh&, const Operator&,
                                            const ParallelAlgorithm&) { return true; };
  EXPECT_FALSE(ComputePlanCacheKey(graph, cluster, filtered, &key));
}

// The regression this PR's bugfix satellite exists for: before the
// profile-source fingerprint joined the key, a recompile under measured
// timings would LOOK UP (and hit) the plan compiled from analytical
// costs — returning a stale plan instead of recompiling.
TEST_F(PlanCacheTest, MeasuredProfileRecompileMissesAnalyticalEntry) {
  Graph graph = BuildMlp(MlpConfig{});
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  const ParallelizeOptions analytical = FinalizedOptions();
  PlanCacheKey analytical_key;
  ASSERT_TRUE(ComputePlanCacheKey(graph, cluster, analytical, &analytical_key));

  MeasuredProfileSource source;
  source.AddMeasurement(0, 1, SubmeshShape{1, 2}, 0.012, 0.010);
  source.Finalize();
  ASSERT_NE(source.Fingerprint(), 0u);

  ParallelizeOptions measured = FinalizedOptions();
  measured.inter.profile_source = &source;
  PlanCacheKey measured_key;
  // Still cacheable (the fingerprint is stable)...
  ASSERT_TRUE(ComputePlanCacheKey(graph, cluster, measured, &measured_key));
  // ...but under a different key than the analytical compile.
  EXPECT_NE(analytical_key, measured_key);
  EXPECT_EQ(analytical_key.graph_hash, measured_key.graph_hash);

  // Different measurements → different key (the fingerprint hashes the
  // measurement contents, not just presence).
  MeasuredProfileSource other_source;
  other_source.AddMeasurement(0, 1, SubmeshShape{1, 2}, 0.020, 0.010);
  other_source.Finalize();
  ParallelizeOptions other = FinalizedOptions();
  other.inter.profile_source = &other_source;
  PlanCacheKey other_key;
  ASSERT_TRUE(ComputePlanCacheKey(graph, cluster, other, &other_key));
  EXPECT_NE(measured_key, other_key);

  // End-to-end: the analytical plan is cached, then the measured-profile
  // request must compile fresh (miss), not alias the cached entry.
  InProcessPlanService service;
  PlanRequest request;
  request.graph = BuildMlp(MlpConfig{});
  request.cluster = cluster;
  request.options.num_microbatches = 4;
  request.options.target_layers = 2;
  ASSERT_TRUE(service.Parallelize(request).ok());
  EXPECT_FALSE(service.last_outcome().plan_cache_hit);
  ASSERT_TRUE(service.Parallelize(request).ok());
  EXPECT_TRUE(service.last_outcome().plan_cache_hit);  // Warm now.
  request.options.profile_source = &source;
  ASSERT_TRUE(service.Parallelize(request).ok());
  EXPECT_FALSE(service.last_outcome().plan_cache_hit);  // Regression: must miss.
}

TEST_F(PlanCacheTest, UnfingerprintedProfileSourceIsUncacheable) {
  class OpaqueSource : public ProfileSource {
   public:
    void Apply(int, int, const SubmeshShape&, StageProfile*) const override {}
    // Inherits Fingerprint() == 0.
  };
  OpaqueSource source;
  Graph graph = BuildMlp(MlpConfig{});
  ParallelizeOptions options = FinalizedOptions();
  options.inter.profile_source = &source;
  PlanCacheKey key;
  EXPECT_FALSE(ComputePlanCacheKey(graph, ClusterSpec::AwsP3(1, 2), options, &key));
}

TEST_F(PlanCacheTest, DiskEntriesSurviveMemoryClear) {
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(TempDir()).ok());
  InProcessPlanService service;
  PlanRequest request;
  request.graph = BuildMlp(MlpConfig{});
  request.cluster = ClusterSpec::AwsP3(1, 2);
  request.options.num_microbatches = 4;
  request.options.target_layers = 2;
  const StatusOr<ParallelPlan> cold = service.Parallelize(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(service.last_outcome().plan_cache_hit);

  // Simulated restart: memory gone, disk intact.
  PlanCache::Global().Clear(/*also_disk=*/false);
  const int64_t disk_hits = Metrics::Value("plan_cache/disk_hits");
  const StatusOr<ParallelPlan> warm = service.Parallelize(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(service.last_outcome().plan_cache_hit);
  EXPECT_EQ(Metrics::Value("plan_cache/disk_hits") - disk_hits, 1);
  // The disk round-trip is bit-exact.
  EXPECT_TRUE(PlanEquals(cold->pipeline, warm->pipeline));
}

TEST_F(PlanCacheTest, CorruptDiskEntryIsAMiss) {
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(TempDir()).ok());
  InProcessPlanService service;
  PlanRequest request;
  request.graph = BuildMlp(MlpConfig{});
  request.cluster = ClusterSpec::AwsP3(1, 2);
  request.options.num_microbatches = 4;
  request.options.target_layers = 2;
  ASSERT_TRUE(service.Parallelize(request).ok());

  // Flip a byte in every persisted entry, then restart.
  int corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(temp_dir_)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(data.size(), 100u);
    data[data.size() / 2] ^= 0x5a;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0);
  PlanCache::Global().Clear(/*also_disk=*/false);
  const int64_t disk_hits = Metrics::Value("plan_cache/disk_hits");
  ASSERT_TRUE(service.Parallelize(request).ok());
  EXPECT_FALSE(service.last_outcome().plan_cache_hit);  // Miss, not garbage.
  EXPECT_EQ(Metrics::Value("plan_cache/disk_hits") - disk_hits, 0);
}

// The tentpole's dedup contract: a 32-thread cold storm on ONE key runs
// the compiler exactly once (the single-flight leader); every thread gets
// a bit-identical plan. Before single-flight, all 32 threads would miss
// and compile concurrently.
TEST_F(PlanCacheTest, ConcurrentColdStormCompilesOnce) {
  constexpr int kThreads = 32;
  Metric* compiles = Metrics::Get("serve/compiles");
  const int64_t compiles_before = compiles->value();
  const int64_t leaders_before = Metrics::Value("plan_cache/flight_leaders");
  const int64_t followers_before = Metrics::Value("plan_cache/flight_followers");
  const int64_t memory_hits_before = Metrics::Value("plan_cache/memory_hits");

  std::vector<StatusOr<ParallelPlan>> plans(kThreads, Status::Internal("unset"));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i, &plans, &ready, &go] {
      // Services are per-thread (last_outcome is not thread-safe); the
      // cache and the flight table are process-wide.
      InProcessPlanService service;
      PlanRequest request;
      request.graph = BuildMlp(MlpConfig{});
      request.cluster = ClusterSpec::AwsP3(1, 2);
      request.options.num_microbatches = 4;
      request.options.target_layers = 2;
      ready.fetch_add(1);
      while (!go.load()) {
        std::this_thread::yield();
      }
      plans[i] = service.Parallelize(request);
    });
  }
  while (ready.load() < kThreads) {
    std::this_thread::yield();
  }
  go.store(true);
  for (std::thread& thread : threads) {
    thread.join();
  }

  // Exactly one compile across the storm.
  EXPECT_EQ(compiles->value() - compiles_before, 1);
  EXPECT_EQ(Metrics::Value("plan_cache/flight_leaders") - leaders_before, 1);
  // Every non-leader either joined the flight or arrived after the
  // publish and hit memory.
  const int64_t followers = Metrics::Value("plan_cache/flight_followers") - followers_before;
  const int64_t memory_hits = Metrics::Value("plan_cache/memory_hits") - memory_hits_before;
  EXPECT_EQ(followers + memory_hits, kThreads - 1);

  ASSERT_TRUE(plans[0].ok()) << plans[0].status().ToString();
  for (int i = 1; i < kThreads; ++i) {
    ASSERT_TRUE(plans[i].ok()) << plans[i].status().ToString();
    EXPECT_TRUE(PlanEquals(plans[0]->pipeline, plans[i]->pipeline)) << "thread " << i;
  }
}

// A leader that fails must propagate its error to every follower (and
// leave no flight behind so a retry can compile).
TEST_F(PlanCacheTest, FailedLeaderPropagatesToFollowers) {
  const PlanCacheKey key{42, 43};
  ParallelPlan plan;
  Status status = Status::Ok();
  ASSERT_EQ(PlanCache::Global().JoinFlight(key, &plan, &status), FlightOutcome::kLeader);

  const int64_t followers_before = Metrics::Value("plan_cache/flight_followers");
  std::thread follower([&key] {
    ParallelPlan follower_plan;
    Status follower_status = Status::Ok();
    const FlightOutcome outcome =
        PlanCache::Global().JoinFlight(key, &follower_plan, &follower_status);
    EXPECT_EQ(outcome, FlightOutcome::kFailed);
    EXPECT_EQ(follower_status.code(), StatusCode::kInfeasible);
  });
  // Give the follower a chance to actually block on the flight.
  while (Metrics::Value("plan_cache/flight_followers") == followers_before) {
    std::this_thread::yield();
  }
  PlanCache::Global().FinishFlight(key, Status::Infeasible("no plan"));
  follower.join();

  // The failed flight is gone: the next JoinFlight elects a new leader.
  ASSERT_EQ(PlanCache::Global().JoinFlight(key, &plan, &status), FlightOutcome::kLeader);
  PlanCache::Global().FinishFlight(key, Status::Infeasible("no plan"));
}

// A follower with a short deadline must not inherit the leader's compile
// time: it fails fast with kDeadlineExceeded, while the flight stays
// intact for patient followers and the leader's eventual publish.
TEST_F(PlanCacheTest, FollowerDeadlineExpiresWithoutKillingTheFlight) {
  const PlanCacheKey key{77, 78};
  ParallelPlan plan;
  Status status = Status::Ok();
  ASSERT_EQ(PlanCache::Global().JoinFlight(key, &plan, &status), FlightOutcome::kLeader);

  // Deadline-carrying follower: the leader never publishes before it
  // expires, so it must return on its own.
  ParallelPlan follower_plan;
  Status follower_status = Status::Ok();
  const FlightOutcome expired = PlanCache::Global().JoinFlight(
      key, &follower_plan, &follower_status, /*deadline_seconds=*/0.01);
  EXPECT_EQ(expired, FlightOutcome::kFailed);
  EXPECT_EQ(follower_status.code(), StatusCode::kDeadlineExceeded);

  // The flight survived the expiry: patient followers still ride it to
  // the leader's result instead of electing a duplicate leader. A deadline
  // too long for the steady clock to count is as patient as none.
  const int64_t followers_before = Metrics::Value("plan_cache/flight_followers");
  std::vector<std::thread> patient;
  for (const double deadline : {0.0, 1e300}) {
    patient.emplace_back([&key, deadline] {
      ParallelPlan patient_plan;
      Status patient_status = Status::Ok();
      const FlightOutcome outcome =
          PlanCache::Global().JoinFlight(key, &patient_plan, &patient_status, deadline);
      EXPECT_EQ(outcome, FlightOutcome::kFailed) << deadline;
      EXPECT_EQ(patient_status.code(), StatusCode::kInfeasible)
          << deadline << ": " << patient_status.ToString();
    });
  }
  while (Metrics::Value("plan_cache/flight_followers") < followers_before + 2) {
    std::this_thread::yield();
  }
  PlanCache::Global().FinishFlight(key, Status::Infeasible("no plan"));
  for (std::thread& follower : patient) {
    follower.join();
  }
}

// Entry-count cap: inserting past the cap evicts the least-recently-used
// entry — file, index, and memory promotion together.
TEST_F(PlanCacheTest, EvictionDropsOldestFirst) {
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(TempDir()).ok());
  PlanCache::Global().SetLimits(PlanCacheLimits{/*max_disk_entries=*/2, 0});
  const PlanCacheKey k1{1, 1};
  const PlanCacheKey k2{2, 2};
  const PlanCacheKey k3{3, 3};
  ParallelPlan plan;
  PlanCache::Global().Insert(k1, plan);
  PlanCache::Global().Insert(k2, plan);
  EXPECT_EQ(PlanCache::Global().disk_size(), 2u);

  // Touch k1 so k2 becomes the LRU victim.
  ParallelPlan out;
  ASSERT_TRUE(PlanCache::Global().Lookup(k1, &out));
  const int64_t evictions = Metrics::Value("plan_cache/evictions");
  PlanCache::Global().Insert(k3, plan);

  EXPECT_EQ(PlanCache::Global().disk_size(), 2u);
  EXPECT_EQ(Metrics::Value("plan_cache/evictions") - evictions, 1);
  EXPECT_FALSE(PlanCache::Global().Lookup(k2, &out));  // Evicted, memory too.
  EXPECT_TRUE(PlanCache::Global().Lookup(k1, &out));
  EXPECT_TRUE(PlanCache::Global().Lookup(k3, &out));
  // Exactly 2 files on disk.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(temp_dir_)) {
    files += entry.path().extension() == ".plan" ? 1 : 0;
  }
  EXPECT_EQ(files, 2);
}

// Byte cap: the store stays under max_disk_bytes no matter how many
// entries are inserted, and the accounting matches the files.
TEST_F(PlanCacheTest, ByteCapBoundsTheStore) {
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(TempDir()).ok());
  ParallelPlan plan;
  PlanCache::Global().Insert(PlanCacheKey{0, 0}, plan);
  const int64_t entry_bytes = PlanCache::Global().disk_bytes();
  ASSERT_GT(entry_bytes, 0);
  PlanCache::Global().Clear(/*also_disk=*/true);

  const int64_t cap = 3 * entry_bytes + entry_bytes / 2;  // Room for 3.
  const int64_t evictions = Metrics::Value("plan_cache/evictions");
  PlanCache::Global().SetLimits(PlanCacheLimits{0, cap});
  for (uint64_t i = 1; i <= 10; ++i) {
    PlanCache::Global().Insert(PlanCacheKey{i, i}, plan);
    EXPECT_LE(PlanCache::Global().disk_bytes(), cap);
  }
  EXPECT_EQ(PlanCache::Global().disk_size(), 3u);
  EXPECT_EQ(Metrics::Value("plan_cache/evictions") - evictions, 7);
}

// Limits are enforced on the index rebuilt by SetDiskDir too (a restart
// under tighter caps trims the store immediately).
TEST_F(PlanCacheTest, LimitsApplyOnReopen) {
  const std::string dir = TempDir();
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(dir).ok());
  ParallelPlan plan;
  for (uint64_t i = 1; i <= 5; ++i) {
    PlanCache::Global().Insert(PlanCacheKey{i, i}, plan);
  }
  EXPECT_EQ(PlanCache::Global().disk_size(), 5u);

  PlanCache::Global().Clear(/*also_disk=*/false);
  PlanCache::Global().SetLimits(PlanCacheLimits{/*max_disk_entries=*/2, 0});
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(dir).ok());
  EXPECT_EQ(PlanCache::Global().disk_size(), 2u);
}

// The metric-consistency bugfix satellite: a corrupt entry unlinked on
// read must leave the exported gauges agreeing with the store, and Clear
// must zero them (before, plan_cache/entries refreshed only on write).
TEST_F(PlanCacheTest, MetricsStayConsistentOnCorruptMissAndClear) {
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(TempDir()).ok());
  ParallelPlan plan;
  PlanCache::Global().Insert(PlanCacheKey{7, 7}, plan);
  EXPECT_EQ(Metrics::Get("plan_cache/disk_entries")->value(), 1);

  // Corrupt the entry on disk, drop the memory copy, then miss on it.
  for (const auto& entry : std::filesystem::directory_iterator(temp_dir_)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    in.close();
    data[data.size() / 2] ^= 0x5a;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  PlanCache::Global().Clear(/*also_disk=*/false);
  ParallelPlan out;
  EXPECT_FALSE(PlanCache::Global().Lookup(PlanCacheKey{7, 7}, &out));
  // The unlink kept index, bytes, and gauges in sync.
  EXPECT_EQ(PlanCache::Global().disk_size(), 0u);
  EXPECT_EQ(PlanCache::Global().disk_bytes(), 0);
  EXPECT_EQ(Metrics::Get("plan_cache/disk_entries")->value(), 0);
  EXPECT_EQ(Metrics::Get("plan_cache/disk_bytes")->value(), 0);

  PlanCache::Global().Insert(PlanCacheKey{8, 8}, plan);
  EXPECT_EQ(Metrics::Get("plan_cache/entries")->value(), 1);
  PlanCache::Global().Clear(/*also_disk=*/true);
  EXPECT_EQ(Metrics::Get("plan_cache/entries")->value(), 0);
  EXPECT_EQ(Metrics::Get("plan_cache/disk_entries")->value(), 0);
}

// A wire-version bump must invalidate persisted entries eagerly: the
// SetDiskDir sweep unlinks files whose envelope carries another version.
TEST_F(PlanCacheTest, VersionSweepRemovesStaleEntries) {
  const std::string dir = TempDir();
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(dir).ok());
  ParallelPlan plan;
  PlanCache::Global().Insert(PlanCacheKey{1, 1}, plan);
  PlanCache::Global().Insert(PlanCacheKey{2, 2}, plan);

  // Rewrite one entry's version field (byte 4..5 of the envelope).
  bool patched = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    in.close();
    data[4] = static_cast<char>(data[4] + 1);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    patched = true;
    break;
  }
  ASSERT_TRUE(patched);

  PlanCache::Global().Clear(/*also_disk=*/false);
  const int64_t swept = Metrics::Value("plan_cache/version_swept");
  ASSERT_TRUE(PlanCache::Global().SetDiskDir(dir).ok());  // Reopen sweeps.
  EXPECT_EQ(PlanCache::Global().disk_size(), 1u);
  EXPECT_EQ(Metrics::Value("plan_cache/version_swept") - swept, 1);
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files += entry.path().extension() == ".plan" ? 1 : 0;
  }
  EXPECT_EQ(files, 1);
}

}  // namespace
}  // namespace serve
}  // namespace alpa
