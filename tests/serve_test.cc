// End-to-end tests of the plan server + remote client: a mixed cold/warm
// concurrent request storm, per-tenant admission control, deadline
// expiry (including the fail-fast floor), malformed deadlines under a
// daemon default, anytime plans under a tight deadline, the
// results-database endpoints, malformed-bytes and malformed-cluster
// handling, and warm restarts from the disk cache. These run against a
// real daemon loop on a real unix socket — the same code path alpa_serve
// ships.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/api.h"
#include "src/models/gpt.h"
#include "src/models/mlp.h"
#include "src/serve/client.h"
#include "src/serve/plan_cache.h"
#include "src/serve/plan_db.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/support/trace.h"

namespace alpa {
namespace serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PlanCache::Global().Clear(/*also_disk=*/true);
    ASSERT_TRUE(PlanCache::Global().SetDiskDir("").ok());
    PlanCache::Global().SetLimits(PlanCacheLimits{});
    PlanDb::Global().Clear(/*also_disk=*/true);
    ASSERT_TRUE(PlanDb::Global().SetDir("").ok());
    socket_path_ = "/tmp/alpa_serve_test_" + std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".sock";
  }
  void TearDown() override {
    PlanCache::Global().Clear(/*also_disk=*/true);
    ASSERT_TRUE(PlanCache::Global().SetDiskDir("").ok());
    PlanCache::Global().SetLimits(PlanCacheLimits{});
    PlanDb::Global().Clear(/*also_disk=*/true);
    ASSERT_TRUE(PlanDb::Global().SetDir("").ok());
    ::unlink(socket_path_.c_str());
    if (!cache_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(cache_dir_, ec);
    }
  }

  std::string CacheDir() {
    cache_dir_ = (std::filesystem::temp_directory_path() /
                  ("alpa_serve_test_cache_" + std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                     .string();
    return cache_dir_;
  }

  std::string socket_path_;
  std::string cache_dir_;
};

// A distinct small model per index: distinct graphs hash to distinct plan
// cache keys, so each index is a cold compile.
Graph DistinctMlp(int index) {
  MlpConfig config;
  config.hidden_dims = {256 + 32 * index, 256};
  return BuildMlp(config);
}

PlanRequest MlpRequest(int index, const std::string& tenant = "") {
  PlanRequest request;
  request.graph = DistinctMlp(index);
  request.cluster = ClusterSpec::AwsP3(1, 2);
  request.options.num_microbatches = 4;
  request.options.target_layers = 2;
  request.options.tenant = tenant;
  return request;
}

// A deliberately heavier compile (a cold GPT takes a couple of seconds —
// MLPs finish in milliseconds), used to pin the worker down while the
// admission tests probe the queue.
PlanRequest SlowRequest(const std::string& tenant) {
  GptConfig config;
  config.hidden = 256;
  config.num_layers = 4;
  config.num_heads = 8;
  config.microbatch = 4;
  config.seq_len = 128;
  config.vocab = 1024;
  PlanRequest request;
  request.graph = BuildGpt(config);
  request.cluster = ClusterSpec::AwsP3(1, 4);
  request.options.num_microbatches = 8;
  request.options.target_layers = 4;
  request.options.tenant = tenant;
  return request;
}

TEST_F(ServeTest, PingAndUnreachable) {
  RemotePlanService dead("/tmp/alpa_serve_test_no_such_socket.sock");
  EXPECT_EQ(dead.Ping().code(), StatusCode::kUnavailable);

  ServerOptions options;
  options.socket_path = socket_path_;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
  EXPECT_EQ(client.Ping().code(), StatusCode::kUnavailable);
}

// A raw client connection to the daemon at `path`; -1 on failure.
int ConnectRaw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(ServeTest, MalformedFrameGetsStructuredError) {
  ServerOptions options;
  options.socket_path = socket_path_;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectRaw(socket_path_);
  ASSERT_GE(fd, 0);

  // Garbage payload in a well-formed frame: the server must answer with a
  // structured decode error on the same connection, not crash or hang up.
  ASSERT_TRUE(WriteFrame(fd, "this is not a wire envelope").ok());
  std::string blob;
  ASSERT_TRUE(ReadFrame(fd, &blob).ok());
  const StatusOr<ServeResponse> response = DeserializeResponse(blob);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().ToStatus().ok());

  // The connection survived: a valid request on it still works.
  RemotePlanService client(socket_path_);
  EXPECT_TRUE(client.Ping().ok());
  ::close(fd);
}

// Clusters that cannot be priced. Unchecked, each crashes the compiler (a
// CHECK abort, a division by zero) or comes back as a plan with a
// meaningless latency.
std::vector<std::pair<const char*, ClusterSpec>> MalformedClusters() {
  std::vector<std::pair<const char*, ClusterSpec>> clusters;
  ClusterSpec cluster = ClusterSpec::AwsP3(2, 2);
  cluster.num_hosts = 0;
  clusters.emplace_back("num_hosts = 0", cluster);
  cluster = ClusterSpec::AwsP3(2, 2);
  cluster.devices_per_host = 0;
  clusters.emplace_back("devices_per_host = 0", cluster);
  cluster = ClusterSpec::AwsP3(2, 2);
  cluster.inter_host_bandwidth = std::nan("");
  clusters.emplace_back("inter_host_bandwidth = NaN", cluster);
  cluster = ClusterSpec::AwsP3(2, 2);
  cluster.device.peak_flops_fp16 = -1e14;
  clusters.emplace_back("peak_flops_fp16 < 0", cluster);
  return clusters;
}

TEST_F(ServeTest, MalformedClustersAreInvalidArgumentInProcess) {
  InProcessPlanService service;
  for (const auto& [name, cluster] : MalformedClusters()) {
    PlanRequest request = MlpRequest(0);
    request.cluster = cluster;
    const StatusOr<ParallelPlan> plan = service.Parallelize(request);
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << name;
    Graph graph = BuildMlp(MlpConfig{});
    EXPECT_EQ(Parallelize(graph, cluster, ParallelizeOptions{}).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
  PlanRequest valid = MlpRequest(0);
  valid.cluster = ClusterSpec::AwsP3(2, 2);
  EXPECT_TRUE(service.Parallelize(valid).ok());
}

// One tenant's malformed cluster must not take the daemon down: the bad
// request gets kInvalidArgument, and the same connection keeps serving.
TEST_F(ServeTest, MalformedClusterDoesNotKillTheDaemon) {
  ServerOptions options;
  options.socket_path = socket_path_;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const int fd = ConnectRaw(socket_path_);
  ASSERT_GE(fd, 0);

  const auto parallelize = [fd](const ClusterSpec& cluster) {
    ServeRequest request;
    request.method = Method::kParallelize;
    request.options = MlpRequest(0).options;
    request.graph = DistinctMlp(0);
    request.cluster = cluster;
    EXPECT_TRUE(WriteFrame(fd, SerializeRequest(request)).ok());
    std::string blob;
    EXPECT_TRUE(ReadFrame(fd, &blob).ok());
    return DeserializeResponse(blob);
  };
  ClusterSpec no_hosts = ClusterSpec::AwsP3(1, 2);
  no_hosts.num_hosts = 0;
  const StatusOr<ServeResponse> rejected = parallelize(no_hosts);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->ToStatus().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(rejected->has_plan);

  const StatusOr<ServeResponse> served = parallelize(ClusterSpec::AwsP3(1, 2));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->ToStatus().ok()) << served->ToStatus().ToString();
  EXPECT_TRUE(served->has_plan);
  ::close(fd);
}

TEST_F(ServeTest, ColdWarmRequestStorm) {
  ServerOptions options;
  options.socket_path = socket_path_;
  options.num_workers = 2;
  options.plan_cache_dir = CacheDir();
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 6;
  constexpr int kWarmRepeats = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RemotePlanService client(socket_path_);
      // One cold compile unique to this thread...
      const PlanRequest cold = MlpRequest(t, "tenant-" + std::to_string(t % 3));
      const StatusOr<ParallelPlan> plan = client.Parallelize(cold);
      if (!plan.ok()) {
        ++failures;
        return;
      }
      // ...then warm repeats of a graph every thread shares.
      for (int r = 0; r < kWarmRepeats; ++r) {
        const StatusOr<ParallelPlan> shared =
            client.Parallelize(MlpRequest(-1, "tenant-" + std::to_string(t % 3)));
        if (!shared.ok()) {
          ++failures;
          return;
        }
      }
      // A served plan simulates like a locally compiled one.
      const StatusOr<ExecutionStats> stats = client.Simulate(cold, *plan);
      if (!stats.ok() || !(stats.value().latency > 0)) {
        ++failures;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kThreads * (1 + kWarmRepeats + 1));
  EXPECT_EQ(stats.rejected_queue, 0);
  // Single-flight dedup: the shared graph compiles exactly once no
  // matter how many workers race on it, so every other request for it
  // hits the cache (or joins the flight, which counts as a hit).
  EXPECT_GE(stats.plan_cache_hits, kThreads * kWarmRepeats - 1);

  // The warm plan is bit-identical to a fresh local compile.
  InProcessPlanService local;
  const StatusOr<ParallelPlan> local_plan = local.Parallelize(MlpRequest(-1));
  ASSERT_TRUE(local_plan.ok());
  RemotePlanService client(socket_path_);
  const StatusOr<ParallelPlan> remote_plan = client.Parallelize(MlpRequest(-1));
  ASSERT_TRUE(remote_plan.ok());
  EXPECT_TRUE(PlanEquals(local_plan->pipeline, remote_plan->pipeline));
  server.Stop();
}

TEST_F(ServeTest, AdmissionBoundsQueueAndTenants) {
  ServerOptions options;
  options.socket_path = socket_path_;
  options.num_workers = 1;
  options.max_queue = 8;
  options.max_per_tenant = 1;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Pin the only worker on a slow compile.
  std::thread blocker([&] {
    RemotePlanService client(socket_path_);
    EXPECT_TRUE(client.Parallelize(SlowRequest("blocker")).ok());
  });
  while (server.stats().accepted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // Worker pickup.

  // Tenant A fills its per-tenant quota of one queued request...
  std::thread queued_a([&] {
    RemotePlanService client(socket_path_);
    client.Parallelize(MlpRequest(1, "tenant-a")).ok();  // Served after the blocker.
  });
  while (server.stats().accepted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // ...so its next request is rejected immediately, while tenant B (under
  // its own quota) is still admitted: one tenant cannot squeeze out
  // another.
  RemotePlanService client(socket_path_);
  const StatusOr<ParallelPlan> rejected = client.Parallelize(MlpRequest(2, "tenant-a"));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected_queue, 1);

  std::thread queued_b([&] {
    RemotePlanService client_b(socket_path_);
    EXPECT_TRUE(client_b.Parallelize(MlpRequest(3, "tenant-b")).ok());
  });
  while (server.stats().accepted < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  blocker.join();
  queued_a.join();
  queued_b.join();
  EXPECT_EQ(server.stats().rejected_queue, 1);
  server.Stop();
}

TEST_F(ServeTest, ExpiredDeadlineFailsWithoutCompiling) {
  ServerOptions options;
  options.socket_path = socket_path_;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);

  PlanRequest request = MlpRequest(0);
  request.options.deadline_seconds = 1e-9;  // Expired by pickup time.
  const StatusOr<ParallelPlan> plan = client.Parallelize(request);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().expired, 1);

  // A sane deadline still scales the solver budget rather than failing.
  request.options.deadline_seconds = 30.0;
  EXPECT_TRUE(client.Parallelize(request).ok());
  server.Stop();
}

TEST_F(ServeTest, NearDeadlineFailsFastBelowBudgetFloor) {
  ServerOptions options;
  options.socket_path = socket_path_;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);

  // A deadline under the budget floor leaves only a few ms after queueing.
  // The old behaviour scaled the solver budget to near zero and burned the
  // remaining time on a compile doomed to abort; now the server fails fast
  // without compiling at all.
  Metric* compiles = Metrics::Get("serve/compiles");
  const double compiles_before = compiles->value();
  PlanRequest request = MlpRequest(0);
  request.options.deadline_seconds = kMinDeadlineSeconds / 2;
  const StatusOr<ParallelPlan> plan = client.Parallelize(request);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().expired, 1);
  EXPECT_EQ(compiles->value(), compiles_before);

  // At the floor itself the request is admitted and compiles (the MLP
  // solves well inside the clamped budget).
  request.options.deadline_seconds = kMinDeadlineSeconds * 100;
  EXPECT_TRUE(client.Parallelize(request).ok());
  EXPECT_GT(compiles->value(), compiles_before);
  server.Stop();
}

// A daemon default deadline fills in only an unset (0) request deadline:
// a NaN, negative or infinite one reaches the request validation as sent
// and is rejected before any compile, and the daemon keeps serving.
TEST_F(ServeTest, MalformedDeadlinesAreRejectedUnderADaemonDefault) {
  ServerOptions options;
  options.socket_path = socket_path_;
  options.default_deadline_seconds = 60.0;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);

  const int64_t compiles_before = Metrics::Value("serve/compiles");
  PlanRequest request = MlpRequest(0);
  for (const double deadline : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                                std::numeric_limits<double>::infinity()}) {
    request.options.deadline_seconds = deadline;
    EXPECT_EQ(client.Parallelize(request).status().code(), StatusCode::kInvalidArgument)
        << deadline;
  }
  EXPECT_EQ(Metrics::Value("serve/compiles"), compiles_before);

  request.options.deadline_seconds = 0.0;  // Unset: the 60 s default applies.
  const StatusOr<ParallelPlan> plan = client.Parallelize(request);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(Metrics::Value("serve/compiles"), compiles_before + 1);
  server.Stop();
}

// A deadline can only lower the search budget: one too long for an int64
// node count keeps the undeadlined budget, and a non-finite one is
// rejected rather than read as "no deadline" or the 1,000-node floor.
TEST_F(ServeTest, DeadlineOnlyLowersTheSearchBudget) {
  const int64_t undeadlined_budget = IlpSolverOptions{}.max_search_nodes;
  const std::pair<double, int64_t> budgets[] = {
      {0.5, 100'000}, {1e3, undeadlined_budget}, {1e15, undeadlined_budget},
      {1e300, undeadlined_budget}};
  for (const auto& [deadline, budget] : budgets) {
    PlanRequestOptions options;
    options.deadline_seconds = deadline;
    const StatusOr<ParallelizeOptions> lowered = options.ToParallelizeOptions();
    ASSERT_TRUE(lowered.ok()) << deadline;
    EXPECT_EQ(lowered->inter.profiler.intra.solver.max_search_nodes, budget) << deadline;
  }

  InProcessPlanService service;
  PlanRequest request = MlpRequest(0);
  ASSERT_TRUE(service.Parallelize(request).ok());
  const PlanCacheKey undeadlined = service.last_outcome().key;
  request.options.deadline_seconds = 1e300;
  ASSERT_TRUE(service.Parallelize(request).ok());
  EXPECT_TRUE(service.last_outcome().plan_cache_hit);
  EXPECT_TRUE(service.last_outcome().key == undeadlined);

  for (const double deadline : {std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()}) {
    request.options.deadline_seconds = deadline;
    EXPECT_EQ(service.Parallelize(request).status().code(), StatusCode::kInvalidArgument)
        << deadline;
  }
}

TEST_F(ServeTest, AnytimeTightBudgetReturnsFeasiblePlanWithGap) {
  ServerOptions options;
  options.socket_path = socket_path_;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);

  // Force the stage ILPs down the branch-and-bound path with a budget far
  // too small to prove optimality: the server must still return the best
  // incumbent found, with an honest optimality gap — not abort. The model
  // is wider than SlowRequest's: diffusion-tightened bounds close the
  // small GPT's stage cores at any budget that still yields a plan.
  PlanRequest request = SlowRequest("anytime");
  GptConfig hard;
  hard.hidden = 1024;
  hard.num_layers = 8;
  hard.num_heads = 16;
  hard.microbatch = 4;
  hard.seq_len = 128;
  hard.vocab = 1024;
  request.graph = BuildGpt(hard);
  request.options.use_plan_cache = false;
  request.options.max_search_nodes = 20;
  const StatusOr<ServeResponse> response =
      client.Call([&] {
        ServeRequest wire;
        wire.method = Method::kParallelize;
        wire.options = request.options;
        wire.graph = request.graph;
        wire.cluster = request.cluster;
        return wire;
      }());
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().ToStatus().ok());
  ASSERT_TRUE(response.value().has_plan);
  const ParallelPlan& plan = response.value().plan;
  EXPECT_GT(plan.compile_stats.ilp_aborts, 0);
  EXPECT_GT(plan.compile_stats.max_optimality_gap, 0.0);
  EXPECT_GT(plan.pipeline.dp_latency, 0.0);
  // The gap is surfaced on the wire response itself, so clients can act
  // on plan quality without digging through compile stats.
  EXPECT_EQ(response.value().optimality_gap, plan.compile_stats.max_optimality_gap);

  // An unconstrained compile of the same model proves optimality and
  // reports a zero gap — and its plan is at least as good.
  PlanRequest exact = SlowRequest("anytime");
  exact.graph = BuildGpt(hard);
  exact.options.use_plan_cache = false;
  const StatusOr<ParallelPlan> exact_plan = client.Parallelize(exact);
  ASSERT_TRUE(exact_plan.ok());
  EXPECT_EQ(exact_plan->compile_stats.ilp_aborts, 0);
  EXPECT_EQ(exact_plan->compile_stats.max_optimality_gap, 0.0);
  EXPECT_LE(exact_plan->pipeline.dp_latency, plan.pipeline.dp_latency + 1e-12);
  server.Stop();
}

TEST_F(ServeTest, ResultsDatabaseListsGetsAndDeletesRecords) {
  ServerOptions options;
  options.socket_path = socket_path_;
  options.plan_cache_dir = CacheDir();
  options.admin_tenant = "admin";
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);

  const PlanRequest alice = MlpRequest(0, "alice");
  const PlanRequest bob = MlpRequest(1, "bob");
  ASSERT_TRUE(client.Parallelize(alice).ok());
  ASSERT_TRUE(client.Parallelize(bob).ok());
  // Warm hits do not add records: the database tracks compiles, not serves.
  ASSERT_TRUE(client.Parallelize(alice).ok());

  // The admin identity sees every tenant's records.
  const StatusOr<std::vector<PlanRecord>> all = client.DbList(PlanDbQuery{}, "admin");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 2u);
  for (const PlanRecord& record : all.value()) {
    EXPECT_GT(record.num_ops, 0);
    EXPECT_EQ(record.num_hosts, 1);
    EXPECT_EQ(record.devices_per_host, 2);
    EXPECT_GT(record.num_stages, 0);
    EXPECT_GT(record.compile_seconds, 0.0);
    EXPECT_GT(record.objective, 0.0);
    EXPECT_GT(record.plan_bytes, 0);
  }

  PlanDbQuery by_tenant;
  by_tenant.tenant = "alice";
  const StatusOr<std::vector<PlanRecord>> filtered = client.DbList(by_tenant, "admin");
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered.value().size(), 1u);
  EXPECT_EQ(filtered.value().front().tenant, "alice");

  PlanDbQuery limited;
  limited.limit = 1;
  const StatusOr<std::vector<PlanRecord>> capped = client.DbList(limited, "admin");
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().size(), 1u);

  const PlanCacheKey alice_key = filtered.value().front().key;
  const StatusOr<PlanRecord> fetched = client.DbGet(alice_key, "admin");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().tenant, "alice");

  // Tenant isolation: a non-admin caller is scoped to its own records.
  // An empty filter defaults to the caller, a cross-tenant filter is
  // rejected outright, and another tenant's record reads as absent (for
  // fetch AND delete) so existence never leaks across the boundary.
  const StatusOr<std::vector<PlanRecord>> mine = client.DbList(PlanDbQuery{}, "alice");
  ASSERT_TRUE(mine.ok());
  ASSERT_EQ(mine.value().size(), 1u);
  EXPECT_EQ(mine.value().front().tenant, "alice");
  EXPECT_FALSE(client.DbList(by_tenant, "bob").ok());
  EXPECT_FALSE(client.DbGet(alice_key, "bob").ok());
  EXPECT_FALSE(client.DbDelete(alice_key, "bob").ok());
  EXPECT_TRUE(client.DbGet(alice_key, "alice").ok());  // Unharmed.
  // The anonymous tenant is a tenant like any other, not a wildcard.
  const StatusOr<std::vector<PlanRecord>> anon = client.DbList(PlanDbQuery{});
  ASSERT_TRUE(anon.ok());
  EXPECT_TRUE(anon.value().empty());

  // The owner can retire its own record.
  EXPECT_TRUE(client.DbDelete(alice_key, "alice").ok());
  EXPECT_FALSE(client.DbGet(alice_key, "admin").ok());
  EXPECT_FALSE(client.DbDelete(alice_key, "admin").ok());
  server.Stop();

  // Records persist on disk alongside the plan cache: a restarted server
  // reloads the surviving record.
  PlanDb::Global().Clear(/*also_disk=*/false);
  PlanServer restarted(options);
  ASSERT_TRUE(restarted.Start().ok());
  RemotePlanService client2(socket_path_);
  const StatusOr<std::vector<PlanRecord>> reloaded = client2.DbList(PlanDbQuery{}, "admin");
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded.value().size(), 1u);
  EXPECT_EQ(reloaded.value().front().tenant, "bob");
  restarted.Stop();
}

TEST_F(ServeTest, RestartServesWarmFromDiskCache) {
  ServerOptions options;
  options.socket_path = socket_path_;
  options.plan_cache_dir = CacheDir();

  ParallelPlan first_plan;
  {
    PlanServer server(options);
    ASSERT_TRUE(server.Start().ok());
    RemotePlanService client(socket_path_);
    StatusOr<ParallelPlan> plan = client.Parallelize(MlpRequest(0));
    ASSERT_TRUE(plan.ok());
    first_plan = std::move(plan).value();
    EXPECT_EQ(server.stats().plan_cache_hits, 0);
    server.Stop();
  }

  // "Restart": a new server process would start with an empty memory
  // cache; only the disk entries persist.
  PlanCache::Global().Clear(/*also_disk=*/false);
  const int64_t disk_hits = Metrics::Value("plan_cache/disk_hits");
  {
    PlanServer server(options);
    ASSERT_TRUE(server.Start().ok());
    RemotePlanService client(socket_path_);
    const StatusOr<ParallelPlan> plan = client.Parallelize(MlpRequest(0));
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(server.stats().plan_cache_hits, 1);
    EXPECT_EQ(Metrics::Value("plan_cache/disk_hits") - disk_hits, 1);
    EXPECT_TRUE(PlanEquals(first_plan.pipeline, plan->pipeline));
    server.Stop();
  }
}

TEST_F(ServeTest, ElasticSpeculationServesFailoverFromCache) {
  ServerOptions options;
  options.socket_path = socket_path_;
  options.elastic = true;
  options.speculate_k = 4;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);

  // A 2-host job: the only likely next config is the 1-host shrink (all
  // single-host failures of a homogeneous cluster collapse to one
  // fingerprint). No deadline — deadline-derived budgets feed the cache
  // key, so only deadline-free requests can match a presolve.
  PlanRequest request = MlpRequest(0);
  request.cluster = ClusterSpec::AwsP3(2, 2);
  ASSERT_TRUE(client.Parallelize(request).ok());

  // Speculation runs on the worker thread after the response is published;
  // poll until the presolve for the shrunk cluster has landed.
  StatusOr<ServeResponse> stats = Status::Unavailable("not polled yet");
  for (int i = 0; i < 100; ++i) {
    stats = client.ElasticStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(stats->elastic_enabled);
    if (stats->elastic_speculations >= 1 && stats->elastic_wasted >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GE(stats->elastic_speculations, 1);
  ASSERT_GE(stats->elastic_wasted, 1);
  EXPECT_EQ(stats->elastic_hits, 0);

  // Churn strikes: the client re-requests on the shrunk cluster. The plan
  // was presolved into the shared cache, so this is a hit, not a compile.
  PlanRequest failover = MlpRequest(0);
  failover.cluster = ClusterSpec::AwsP3(1, 2);
  ASSERT_TRUE(client.Parallelize(failover).ok());
  EXPECT_EQ(server.stats().plan_cache_hits, 1);

  stats = client.ElasticStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->elastic_hits, 1);
  EXPECT_EQ(stats->elastic_wasted, 0);  // The presolve was consumed.
  server.Stop();
}

TEST_F(ServeTest, ElasticPresolveOfADeadlineRequestIsFiledUnderItsOwnKey) {
  ServerOptions options;
  options.socket_path = socket_path_;
  options.elastic = true;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);

  // The seeding request's deadline scales its search budget (30 s x 2e5
  // nodes/s, under the explicit 1e7 cap) into its cache key. Its presolve
  // runs without a deadline, so the ledger must file it under the
  // deadline-free key the failover request below hits.
  PlanRequest request = MlpRequest(1);
  request.cluster = ClusterSpec::AwsP3(2, 2);
  request.options.max_search_nodes = 10'000'000;
  request.options.deadline_seconds = 30.0;
  ASSERT_TRUE(client.Parallelize(request).ok());
  StatusOr<ServeResponse> stats = Status::Unavailable("not polled yet");
  for (int i = 0; i < 100; ++i) {
    stats = client.ElasticStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats->elastic_wasted >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(stats->elastic_wasted, 1);

  PlanRequest failover = MlpRequest(1);
  failover.cluster = ClusterSpec::AwsP3(1, 2);
  failover.options.max_search_nodes = 10'000'000;
  ASSERT_TRUE(client.Parallelize(failover).ok());
  EXPECT_EQ(server.stats().plan_cache_hits, 1);
  stats = client.ElasticStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->elastic_hits, 1);
  EXPECT_EQ(stats->elastic_wasted, 0);
  server.Stop();
}

TEST_F(ServeTest, ElasticStatsDisabledByDefault) {
  ServerOptions options;
  options.socket_path = socket_path_;
  PlanServer server(options);
  ASSERT_TRUE(server.Start().ok());
  RemotePlanService client(socket_path_);
  const StatusOr<ServeResponse> stats = client.ElasticStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->elastic_enabled);
  EXPECT_EQ(stats->elastic_speculations, 0);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace alpa
