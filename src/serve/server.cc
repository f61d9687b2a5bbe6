#include "src/serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/serve/plan_cache.h"
#include "src/serve/plan_db.h"
#include "src/support/logging.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace alpa {
namespace serve {

namespace {

// Per-host hazard rate used to rank speculative candidate configurations
// (any positive value only orders them; it does not gate speculation).
constexpr double kSpeculateMtbfSeconds = 2.5 * 86400.0;

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Waits until `fd` is readable; false on shutdown/hangup. Poll in slices
// so connection threads notice Stop() within ~200ms even on idle clients.
bool WaitReadable(int fd, const std::atomic<bool>& running) {
  while (running.load(std::memory_order_relaxed)) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int k = ::poll(&pfd, 1, 200);
    if (k < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (k > 0) {
      return (pfd.revents & (POLLIN | POLLHUP)) != 0;
    }
  }
  return false;
}

}  // namespace

PlanServer::PlanServer(ServerOptions options) : options_(std::move(options)) {}

PlanServer::~PlanServer() { Stop(); }

Status PlanServer::Start() {
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument("server: socket_path is required");
  }
  if (options_.socket_path.size() >= sizeof(sockaddr_un::sun_path)) {
    return Status::InvalidArgument("server: socket_path too long for AF_UNIX");
  }
  PlanCache::Global().SetLimits(
      PlanCacheLimits{options_.cache_max_entries, options_.cache_max_bytes});
  if (!options_.plan_cache_dir.empty()) {
    ALPA_RETURN_IF_ERROR(PlanCache::Global().SetDiskDir(options_.plan_cache_dir));
    // Results-database records live next to the plan files.
    ALPA_RETURN_IF_ERROR(PlanDb::Global().SetDir(options_.plan_cache_dir));
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  ::unlink(options_.socket_path.c_str());  // Stale socket from a crash.
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(
        StrFormat("bind %s: %s", options_.socket_path.c_str(), std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(StrFormat("listen: %s", std::strerror(errno)));
  }

  running_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  const int num_workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::Ok();
}

void PlanServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Fail everything still queued; waiting connections get kUnavailable.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (auto& [tenant, queue] : tenant_queues_) {
      for (const std::shared_ptr<Job>& job : queue) {
        std::lock_guard<std::mutex> job_lock(job->mu);
        job->response = ServeResponse::FromStatus(Status::Unavailable("server shutting down"));
        job->done = true;
        job->cv.notify_all();
      }
    }
    tenant_queues_.clear();
    total_queued_ = 0;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (std::thread& connection : connections) {
    connection.join();
  }
}

ServerStats PlanServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void PlanServer::AcceptLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    if (!WaitReadable(listen_fd_, running_)) {
      break;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      break;
    }
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void PlanServer::ConnectionLoop(int fd) {
  while (running_.load(std::memory_order_relaxed)) {
    if (!WaitReadable(fd, running_)) {
      break;
    }
    std::string blob;
    const Status read_status = ReadFrame(fd, &blob);
    if (!read_status.ok()) {
      break;  // EOF or a broken/oversized frame: drop the connection.
    }
    ServeResponse response;
    auto request = DeserializeRequest(blob);
    if (!request.ok()) {
      // Malformed request: structured error back, connection stays up.
      response = ServeResponse::FromStatus(request.status());
    } else {
      std::shared_ptr<Job> job = Admit(std::move(request).value());
      if (job == nullptr) {
        response = ServeResponse::FromStatus(
            Status::Unavailable("admission queue full, retry later"));
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.rejected_queue;
      } else {
        std::unique_lock<std::mutex> job_lock(job->mu);
        job->cv.wait(job_lock, [&job] { return job->done; });
        response = job->response;
      }
    }
    if (!WriteFrame(fd, SerializeResponse(response)).ok()) {
      break;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.served;
  }
  ::close(fd);
}

std::shared_ptr<PlanServer::Job> PlanServer::Admit(ServeRequest request) {
  auto job = std::make_shared<Job>();
  // Only an unset deadline takes the daemon default: a NaN, negative or
  // infinite one stays as sent, so ToParallelizeOptions rejects it.
  job->deadline_seconds = request.options.deadline_seconds == 0
                              ? options_.default_deadline_seconds
                              : request.options.deadline_seconds;
  job->request = std::move(request);
  job->enqueue_time = NowSeconds();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (total_queued_ >= options_.max_queue) {
      return nullptr;
    }
    std::deque<std::shared_ptr<Job>>& queue = tenant_queues_[job->request.options.tenant];
    if (static_cast<int>(queue.size()) >= options_.max_per_tenant) {
      return nullptr;
    }
    queue.push_back(job);
    ++total_queued_;
  }
  queue_cv_.notify_one();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
  }
  return job;
}

std::shared_ptr<PlanServer::Job> PlanServer::NextJob() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [this] {
    return total_queued_ > 0 || !running_.load(std::memory_order_relaxed);
  });
  if (total_queued_ == 0) {
    return nullptr;
  }
  // Round-robin over tenants: take the first non-empty queue at or after
  // the cursor, wrapping; advance the cursor past the chosen tenant.
  auto it = tenant_queues_.lower_bound(next_tenant_);
  for (size_t probes = 0; probes <= tenant_queues_.size(); ++probes) {
    if (it == tenant_queues_.end()) {
      it = tenant_queues_.begin();
    }
    if (!it->second.empty()) {
      break;
    }
    ++it;
  }
  std::shared_ptr<Job> job = it->second.front();
  it->second.pop_front();
  --total_queued_;
  auto next = std::next(it);
  next_tenant_ = next == tenant_queues_.end() ? std::string() : next->first;
  if (it->second.empty()) {
    tenant_queues_.erase(it);
  }
  return job;
}

void PlanServer::WorkerLoop(int worker_index) {
  (void)worker_index;
  InProcessPlanService service;
  while (true) {
    std::shared_ptr<Job> job = NextJob();
    if (job == nullptr) {
      return;  // Shutdown.
    }
    std::optional<PlanRequest> speculate;
    ServeResponse response = Execute(service, *job, options_.elastic ? &speculate : nullptr);
    {
      std::lock_guard<std::mutex> job_lock(job->mu);
      job->response = std::move(response);
      job->done = true;
      job->cv.notify_all();
    }
    // The client already has its answer; presolving the likely failover
    // configurations now costs it nothing.
    if (speculate.has_value() && running_.load(std::memory_order_relaxed)) {
      PresolveFailovers(service, *speculate);
    }
  }
}

ServeResponse PlanServer::Execute(InProcessPlanService& service, Job& job,
                                  std::optional<PlanRequest>* speculate) {
  TraceSpan span("serve.request", "serve");
  static Metric* requests_metric = Metrics::Get("serve/requests");
  requests_metric->Add(1);

  const double queue_seconds = NowSeconds() - job.enqueue_time;
  ServeResponse response;
  response.queue_seconds = queue_seconds;

  // A compile-bearing request whose remaining deadline is below the floor
  // cannot finish a useful search: scaling the ILP budget by the few
  // remaining milliseconds just burns them on a doomed, near-zero-budget
  // solve. Fail fast instead (the request is as good as expired).
  const bool compiles = job.request.method == Method::kParallelize ||
                        job.request.method == Method::kRepair;
  const double remaining =
      job.deadline_seconds > 0 ? job.deadline_seconds - queue_seconds : 0.0;
  if (job.deadline_seconds > 0 &&
      (queue_seconds >= job.deadline_seconds || (compiles && remaining < kMinDeadlineSeconds))) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.expired;
    }
    response = ServeResponse::FromStatus(Status::DeadlineExceeded(
        StrFormat("deadline of %.3fs leaves %.3fs after %.3fs in queue (floor %.3fs)",
                  job.deadline_seconds, remaining, queue_seconds, kMinDeadlineSeconds)));
    response.queue_seconds = queue_seconds;
    return response;
  }

  PlanRequest request;
  request.graph = std::move(job.request.graph);
  request.cluster = job.request.cluster;
  request.options = job.request.options;
  if (job.deadline_seconds > 0) {
    // Whatever queueing consumed is gone; the compile gets the remainder
    // (never less than the floor the check above guarantees).
    request.options.deadline_seconds = std::max(remaining, kMinDeadlineSeconds);
  }
  // The server picks its own parallelism; clients cannot size our pools.
  request.options.compile_threads = 1;

  const double start = NowSeconds();
  switch (job.request.method) {
    case Method::kPing:
      break;
    case Method::kParallelize: {
      auto plan = service.Parallelize(request);
      if (plan.ok()) {
        response.has_plan = true;
        response.plan = std::move(plan).value();
        response.plan_cache_hit = service.last_outcome().plan_cache_hit;
        response.optimality_gap = response.plan.compile_stats.max_optimality_gap;
        if (response.plan_cache_hit) {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.plan_cache_hits;
        }
        if (options_.elastic) {
          // A cache hit may be the first use of a presolve; a compile is a
          // miss speculation did not cover (flight followers are neither).
          const CompileOutcome& outcome = service.last_outcome();
          if (outcome.plan_cache_eligible && (outcome.plan_cache_hit || outcome.compiled)) {
            speculator_.Record({outcome.key.graph_hash, outcome.key.config_hash},
                               outcome.compiled);
          }
          if (speculate != nullptr && request.options.use_plan_cache) {
            *speculate = std::move(request);
          }
        }
      } else {
        response = ServeResponse::FromStatus(plan.status());
      }
      break;
    }
    case Method::kSimulate: {
      if (!job.request.has_plan) {
        response = ServeResponse::FromStatus(
            Status::InvalidArgument("simulate request carries no plan"));
        break;
      }
      auto stats = service.Simulate(request, job.request.plan);
      if (stats.ok()) {
        response.has_stats = true;
        response.stats = stats.value();
      } else {
        response = ServeResponse::FromStatus(stats.status());
      }
      break;
    }
    case Method::kRepair: {
      auto repaired = service.Repair(request, job.request.repair);
      if (repaired.ok()) {
        response.has_repair = true;
        response.repair = std::move(repaired).value();
      } else {
        response = ServeResponse::FromStatus(repaired.status());
      }
      break;
    }
    case Method::kDbList: {
      // Tenant scoping: the admission identity is also the authorization
      // boundary. A non-admin caller may only list its own records; an
      // explicit filter for another tenant is rejected rather than
      // silently rewritten.
      PlanDbQuery query = job.request.db_query;
      if (!DbAdmin(job.request)) {
        const std::string& caller = job.request.options.tenant;
        if (!query.tenant.empty() && query.tenant != caller) {
          response = ServeResponse::FromStatus(Status::InvalidArgument(
              "plan db: tenant filter does not match caller identity"));
          break;
        }
        if (caller.empty()) {
          // PlanDb treats "" as a wildcard, but the anonymous tenant is
          // still just one tenant: list everything, keep only its rows,
          // and re-apply the limit.
          std::vector<PlanRecord> records = PlanDb::Global().List(PlanDbQuery{"", 0});
          std::erase_if(records, [](const PlanRecord& r) { return !r.tenant.empty(); });
          if (query.limit > 0 && static_cast<int32_t>(records.size()) > query.limit) {
            records.resize(static_cast<size_t>(query.limit));
          }
          response.records = std::move(records);
          break;
        }
        query.tenant = caller;
      }
      response.records = PlanDb::Global().List(query);
      break;
    }
    case Method::kDbGet: {
      auto record = PlanDb::Global().Get(job.request.db_key);
      if (!record.ok()) {
        response = ServeResponse::FromStatus(record.status());
      } else if (!DbAdmin(job.request) &&
                 record.value().tenant != job.request.options.tenant) {
        // Deny as absent: record existence must not leak across tenants.
        response = ServeResponse::FromStatus(
            Status::InvalidArgument("plan db: no record for key"));
      } else {
        response.records.push_back(std::move(record).value());
      }
      break;
    }
    case Method::kDbDelete: {
      auto record = PlanDb::Global().Get(job.request.db_key);
      const bool owned = record.ok() && (DbAdmin(job.request) ||
                                         record.value().tenant == job.request.options.tenant);
      if (!owned || !PlanDb::Global().Delete(job.request.db_key)) {
        response = ServeResponse::FromStatus(
            Status::InvalidArgument("plan db: no record for key"));
      }
      break;
    }
    case Method::kElasticStats:
      if (options_.elastic) {
        const elastic::SpeculationCounts counts = speculator_.counts();
        response.elastic_enabled = true;
        response.elastic_speculations = counts.speculations;
        response.elastic_hits = counts.hits;
        response.elastic_misses = counts.misses;
        response.elastic_wasted = counts.wasted;
      }
      break;
  }
  response.queue_seconds = queue_seconds;
  response.compile_seconds = NowSeconds() - start;
  return response;
}

void PlanServer::PresolveFailovers(InProcessPlanService& service, const PlanRequest& base) {
  TraceSpan span("serve.speculate", "serve");
  // Background work: no deadline. The candidates' keys come from the same
  // options, so each claim names the key its presolve lands under.
  PlanRequestOptions presolve_options = base.options;
  presolve_options.deadline_seconds = 0.0;
  const auto options = presolve_options.ToParallelizeOptions();
  if (!options.ok()) {
    return;
  }
  elastic::Presolver presolver;
  presolver.key = [&](const ClusterSpec& cluster, elastic::PresolveKey* id) {
    if (!running_.load(std::memory_order_relaxed)) {
      return false;  // Shutdown: stop burning the worker on background work.
    }
    PlanCacheKey key;
    if (!ComputePlanCacheKey(base.graph, cluster, options.value(), &key)) {
      return false;
    }
    *id = {key.graph_hash, key.config_hash};
    return true;
  };
  // The probe also promotes a restarted daemon's persisted plan into
  // memory, so the failover request is a memory hit.
  presolver.holds = [](const elastic::PresolveKey& id) {
    ParallelPlan cached;
    return PlanCache::Global().Lookup(PlanCacheKey{id.first, id.second}, &cached);
  };
  // Ride the per-worker service so the presolve shares the single-flight
  // machinery (never duplicating a client compile of the same key) and
  // lands in the cache + results db exactly like a client compile.
  presolver.presolve = [&](const ClusterSpec& cluster) {
    PlanRequest presolve;
    presolve.graph = base.graph;
    presolve.cluster = cluster;
    presolve.options = presolve_options;
    return service.Parallelize(presolve).ok();
  };
  elastic::SpeculationOptions spec;
  spec.k = options_.speculate_k > 0 ? options_.speculate_k : 1;
  speculator_.Speculate(elastic::EnumerateLikelyConfigs(base.cluster, /*announced=*/{},
                                                        /*now=*/0.0, kSpeculateMtbfSeconds,
                                                        spec),
                        presolver);
}

}  // namespace serve
}  // namespace alpa
