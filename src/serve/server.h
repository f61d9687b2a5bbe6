// The multi-tenant plan server behind the alpa_serve daemon.
//
// Architecture (one process):
//
//   acceptor thread ── accept() on a unix socket, one connection thread
//     per client (cheap: clients are few, requests are the unit of work).
//   connection threads ── frame in a request, run ADMISSION, park on a
//     completion latch, frame out the response. One request outstanding
//     per connection (pipelining adds nothing against a compute-bound
//     backend).
//   admission ── global bound (max_queue) and per-tenant bound
//     (max_per_tenant). A full queue rejects IMMEDIATELY with
//     kUnavailable — bounded latency beats unbounded buffering.
//   scheduler ── per-tenant FIFO queues drained round-robin, so a tenant
//     issuing 100 requests cannot starve one issuing 1 (fairness is
//     per-tenant, not per-connection).
//   workers ── num_workers threads, each owning an InProcessPlanService.
//     A request whose deadline already passed at pickup fails with
//     kDeadlineExceeded without compiling; otherwise the REMAINING
//     deadline (minus queue time) is what scales the ILP budget.
//
// All workers share the process-wide plan cache (disk-backed when
// plan_cache_dir is set) and ILP memo, so one tenant's cold compile warms
// every tenant's future requests — the multi-tenant payoff the storm
// bench measures.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/elastic/speculator.h"
#include "src/serve/protocol.h"
#include "src/serve/service.h"
#include "src/support/status.h"

namespace alpa {
namespace serve {

struct ServerOptions {
  std::string socket_path;  // Unix-domain socket path (required).
  int num_workers = 2;
  int max_queue = 64;       // Total queued requests across tenants.
  int max_per_tenant = 16;  // Queued requests per tenant.
  // Deadline applied to requests that do not carry their own (0 = none).
  double default_deadline_seconds = 0.0;
  // Non-empty: persist the plan cache (and the results database) here;
  // both survive restarts.
  std::string plan_cache_dir;
  // Results-database authorization: requests carrying this tenant identity
  // may list, fetch, and delete ANY tenant's records. Every other caller
  // is scoped to its own tenant. "" = no admin identity exists.
  std::string admin_tenant;
  // Disk-cache caps (LRU eviction); 0 = unbounded.
  int64_t cache_max_entries = 0;
  int64_t cache_max_bytes = 0;
  // Speculative re-planner (--elastic). After publishing the response to
  // a successful Parallelize that may use the plan cache, the worker
  // enumerates the speculate_k most-likely next cluster configurations
  // (each host failing, deduplicated by cluster fingerprint) and presolves
  // the ones the cache lacks through its own InProcessPlanService, with no
  // deadline, before taking its next job — so a failover request for the
  // shrunk cluster is a plan-cache hit by construction. Presolves ride the
  // single-flight machinery, so they never duplicate a client compile in
  // progress.
  bool elastic = false;
  int speculate_k = 4;
};

struct ServerStats {
  int64_t accepted = 0;          // Admitted requests.
  int64_t rejected_queue = 0;    // kUnavailable at admission.
  int64_t expired = 0;           // kDeadlineExceeded at pickup.
  int64_t served = 0;            // Responses written (any status).
  int64_t plan_cache_hits = 0;   // Of served Parallelize requests.
};

// A compile cannot do useful work in less than this; a request whose
// remaining deadline at pickup is below the floor fails fast with
// kDeadlineExceeded instead of scaling the ILP budget toward zero and
// burning the tail of the deadline on a doomed search.
inline constexpr double kMinDeadlineSeconds = 0.05;

class PlanServer {
 public:
  explicit PlanServer(ServerOptions options);
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  // Binds the socket (removing a stale file), spawns acceptor + workers.
  // kInternal when the socket cannot be created/bound.
  Status Start();
  // Stops accepting, fails queued requests with kUnavailable, joins all
  // threads. Idempotent; the destructor calls it.
  void Stop();

  ServerStats stats() const;
  const ServerOptions& options() const { return options_; }

 private:
  struct Job {
    ServeRequest request;
    double enqueue_time = 0.0;
    double deadline_seconds = 0.0;  // Effective (request or default); 0 = none.
    // Completion latch: the connection thread waits, a worker publishes.
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ServeResponse response;
  };

  void AcceptLoop();
  void ConnectionLoop(int fd);
  void WorkerLoop(int worker_index);
  // nullptr when the queue is full (caller responds kUnavailable).
  std::shared_ptr<Job> Admit(ServeRequest request);
  std::shared_ptr<Job> NextJob();  // Blocks; nullptr on shutdown.
  // `speculate` (non-null only under --elastic) receives the finished
  // compile request when a successful Parallelize should seed speculative
  // presolves — the worker runs those AFTER publishing the response.
  ServeResponse Execute(InProcessPlanService& service, Job& job,
                        std::optional<PlanRequest>* speculate);
  // Presolves the likely next cluster configurations of `base` into the
  // shared plan cache (through `service`, so single-flight and the results
  // db apply), claiming each in `speculator_`. Runs on the worker thread
  // between jobs.
  void PresolveFailovers(InProcessPlanService& service, const PlanRequest& base);
  // True when `request` carries the configured admin identity (and one is
  // configured at all): such callers see every tenant's db records.
  bool DbAdmin(const ServeRequest& request) const {
    return !options_.admin_tenant.empty() &&
           request.options.tenant == options_.admin_tenant;
  }

  const ServerOptions options_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::map<std::string, std::deque<std::shared_ptr<Job>>> tenant_queues_;
  // Round-robin cursor: tenants are drained in rotating key order.
  std::string next_tenant_;
  int total_queued_ = 0;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex connections_mu_;
  std::vector<std::thread> connections_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  // --elastic: the plan-cache keys this server presolved, and the counters
  // kElasticStats reports. One per server, so a restarted daemon starts
  // with an empty ledger.
  elastic::Speculator speculator_{/*pool=*/nullptr};
};

}  // namespace serve
}  // namespace alpa

#endif  // SRC_SERVE_SERVER_H_
