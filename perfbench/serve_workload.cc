// serve-mix: the plan-service workload.
//
// A PlanServer (one worker per hardware thread, elastic speculation,
// disk-backed plan cache capped below the key working set) runs in this
// process on a unix socket.
// A single-process open-loop generator sends it a seeded stream over at most
// `threads` persistent connections, speaking the wire protocol through the
// public frame and codec functions so each step of a request can be timed:
// due -> connection free -> encode -> write -> read -> decode.
//
// The stream mixes three request classes over small MLP graphs on 2-4-host
// clusters:
//   hit      - a Zipf-popular key compiled in set-up (plan-cache lookup);
//   miss     - a never-seen graph (a real compile, a cache insert and disk
//              write, then speculative presolves on the worker);
//   failover - a served key's cluster minus one host, a hit only when the
//              daemon's speculation presolved it.
// Arrivals are Poisson at a fixed reference rate; each request is timed from
// its due time. In traced runs a capacity search per cycle finds the
// highest offered rate the daemon sustains.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <thread>

#include "bench/bench_util.h"
#include "src/intra/ilp_cache.h"
#include "src/models/mlp.h"
#include "src/serve/client.h"
#include "src/serve/plan_cache.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "workloads.h"

namespace perfbench {

namespace serve = alpa::serve;

namespace {

enum Class { kHit = 0, kMiss = 1, kFailover = 2 };
const char* const kClassNames[] = {"hit", "miss", "failover"};

// Share of each class in the stream; the rest are hits.
constexpr double kMissShare = 0.02;
constexpr double kFailoverShare = 0.04;
constexpr int kTenants = 4;
constexpr double kZipfExponent = 1.1;
// The reference rate, well inside the daemon's capacity on a shared 4-vCPU
// x86 VM: its saturation probe read 3500-10000 done/s there, and with two
// workers a reference of 2000 req/s did not survive the VM's slow spells.
constexpr double kReferenceRps = 1000.0;
constexpr double kSmokeRps = 50.0;
// The latency limit a rate must meet to count as sustained: several times
// the reference-rate p99 on that VM (6-26 ms, misses compiling for 6-15 ms,
// slow spells included), far under an overloaded step's hundreds of ms.
constexpr double kP99LimitMs = 100.0;
// Capacity search: a saturation probe offers far more than the daemon can
// serve and measures its completion rate C; bisection between 0 and C then
// finds the highest offered rate that is sustained, to C/16.
constexpr double kSaturationMultiple = 25.0;  // Of the reference rate.
constexpr double kSaturationSeconds = 0.25;
constexpr int kBisections = 4;
constexpr double kProbeSeconds = 0.25;
// Share of failovers aimed at the most recent miss (presolved by the
// daemon's speculation in this window); the rest pick a popular key.
constexpr double kRecentFailoverShare = 0.25;
constexpr double kWarmInSeconds = 0.3;
// The daemon's speculation counts as drained once its presolve count has
// not moved for this many polls 10 ms apart (one presolve takes 6-15 ms).
constexpr int kDrainPolls = 5;

// One graph + cluster the stream can ask for.
struct KeySpec {
  int64_t hidden0 = 256;
  int64_t hidden1 = 256;
  int hosts = 2;
  // Misses only: due offset within the step that sent it, and whether that
  // step is over.
  double due = 0.0;
  bool earlier_step = false;
};

serve::ServeRequest MakeRequest(const KeySpec& key, int hosts, const std::string& tenant) {
  alpa::MlpConfig config;
  config.batch = 32;
  config.input_dim = 512;
  config.hidden_dims = {key.hidden0, key.hidden1};
  config.output_dim = 512;
  serve::ServeRequest request;
  request.method = serve::Method::kParallelize;
  request.graph = alpa::BuildMlp(config);
  request.cluster = alpa::ClusterSpec::AwsP3(hosts, 2);
  request.options.num_microbatches = 4;
  request.options.target_layers = 3;
  request.options.max_search_nodes = alpa::bench::kBenchSearchBudget;
  request.options.tenant = tenant;
  return request;
}

// A request of the stream, prepared before its step starts.
struct Planned {
  Class cls = kHit;
  double offset = 0.0;  // Due time relative to the step start.
  serve::ServeRequest request;
  bool keep_plan = false;  // Sampled for the served-vs-in-process check.
};

// What the generator measured for one request.
struct Sample {
  double due = 0.0, claim = 0.0, send = 0.0, encoded = 0.0, written = 0.0, read = 0.0,
         decoded = 0.0;
  bool ok = false;
  bool refused = false;  // kUnavailable.
  bool expired = false;  // kDeadlineExceeded.
  double queue_s = 0.0;
  double compute_s = 0.0;
  size_t response_bytes = 0;
  alpa::ParallelPlan plan;  // Only when the request was sampled.
  bool has_plan = false;

  double latency() const { return decoded - due; }
};

// A connected client socket; closes on destruction.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || path.size() >= sizeof(sockaddr_un::sun_path)) {
      return;
    }
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// One run of the open-loop generator at one rate.
struct Step {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<Planned> planned;
  std::vector<Sample> samples;
  double start = 0.0;
  // Mean backlog over the first and the last quarter of the step.
  double backlog_start = 0.0;
  double backlog_end = 0.0;
  double completed_rate = 0.0;
  double p99_ms = 0.0;
};

// Requests due by `t` but not yet sent at `t`.
int BacklogAt(const std::vector<Sample>& samples, double t) {
  int backlog = 0;
  for (const Sample& s : samples) {
    backlog += (s.due <= t && s.send > t) ? 1 : 0;
  }
  return backlog;
}

// Mean backlog over [from, to], sampled every millisecond: a single instant
// would make the sustained/not-sustained verdict flip on one burst.
double MeanBacklog(const std::vector<Sample>& samples, double from, double to) {
  double total = 0.0;
  int points = 0;
  for (double t = from; t <= to; t += 1e-3) {
    total += BacklogAt(samples, t);
    ++points;
  }
  return points > 0 ? total / points : 0.0;
}

// Latencies in ms; a failed, refused or expired request misses every limit.
std::vector<double> LatenciesMs(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  for (const Sample& s : samples) {
    ms.push_back(s.ok ? s.latency() * 1e3 : HUGE_VAL);
  }
  return ms;
}

}  // namespace

struct ServeWorkload::State {
  std::string socket_path;
  std::string cache_dir;
  std::unique_ptr<serve::PlanServer> server;
  int connections = 1;
  std::vector<KeySpec> population;
  std::vector<double> zipf_cdf;
  std::vector<KeySpec> served_misses;  // Misses compiled so far, for failovers.
  int64_t next_miss = 0;
  std::mt19937_64 rng;
  // The reference-rate chunks, pooled, and each chunk's transport cost.
  Step reference;
  std::vector<double> chunk_transport;
  // Per capacity search: the saturation probe's completion rate and the
  // highest sustained rate found.
  std::vector<double> saturation, capacity;
  // Layer counters over the reference chunks.
  MetricSnapshot delta;
  int64_t rejected = 0, expired = 0;
  int64_t speculations = 0, spec_hits = 0, wasted = 0;
  int64_t class_attempted[3] = {0, 0, 0}, class_failed[3] = {0, 0, 0},
          class_refused[3] = {0, 0, 0}, class_expired[3] = {0, 0, 0};
  PartOutcome outcome;

  // Draws a step's arrivals and requests from the seeded stream.
  Step Plan(double rate, double seconds, int keep);
  // Runs the open-loop generator over `step` and counts its outcomes.
  void Send(Step& step);
  // Waits until the daemon's speculative presolves have stopped: they run
  // on the workers after a miss is answered, and would otherwise spill
  // into whatever is timed next.
  void Drain();
  // A step is sustained when its p99 meets the limit and its backlog does
  // not grow from the first to the last quarter beyond a slack of two
  // waiting requests per connection (bursts queue that much; overload
  // queues hundreds).
  bool Sustained(const Step& step) const;
  // One capacity search (see kSaturationMultiple); returns the highest
  // sustained rate.
  double SearchCapacity(double reference_rate);
  // Median round trip of a null request (Ping) minus the server's own
  // queue and compute time: the socket and wake-up cost every request pays.
  double TransportSeconds();
};

ServeWorkload::ServeWorkload(const RunContext& context)
    : context_(context), state_(std::make_unique<State>()) {}

ServeWorkload::~ServeWorkload() { Teardown(); }

void ServeWorkload::Teardown() {
  State& st = *state_;
  if (st.server != nullptr) {
    st.server->Stop();
    st.server.reset();
  }
  serve::PlanCache::Global().Clear(/*also_disk=*/true);
  (void)serve::PlanCache::Global().SetDiskDir("");
  std::error_code ec;
  if (!st.cache_dir.empty()) {
    std::filesystem::remove_all(st.cache_dir, ec);
  }
  if (!st.socket_path.empty()) {
    ::unlink(st.socket_path.c_str());
  }
}

namespace {

serve::ServerOptions DaemonOptions(const std::string& socket, const std::string& cache_dir,
                                   int population, int threads) {
  serve::ServerOptions options;
  options.socket_path = socket;
  // Two workers per hardware thread, so a hit waits for a CPU, never for a
  // worker. With two workers, and still with one per hardware thread, a
  // hit waited whenever every worker was compiling a miss or presolving
  // its failovers, and how often that happened swung with the machine's
  // speed: the hit p50 moved by 2.5x and the p99 by 2x between runs on a
  // shared 4-vCPU VM.
  options.num_workers = 2 * std::max(1, threads);
  options.max_queue = 1024;
  options.max_per_tenant = 1024;
  options.plan_cache_dir = cache_dir;
  // Room for the popular keys and their presolved failover clusters, but
  // not for every miss the stream adds: LRU eviction runs in the window.
  options.cache_max_entries = 2 * population + 4;
  options.elastic = true;
  options.speculate_k = 2;
  return options;
}

}  // namespace

void ServeWorkload::Setup() {
  Teardown();
  State& st = *state_;
  st.rng.seed(context_.seed ^ 0x5E87E);
  st.socket_path = context_.work_dir + "/serve.sock";
  st.cache_dir = context_.work_dir + "/plan-cache";
  alpa::IlpMemoCache::Global().Clear();

  // The popular keys: distinct graphs on 2-4-host clusters.
  const int population = context_.smoke ? 4 : 12;
  st.population.clear();
  std::uniform_int_distribution<int> hosts(2, 4);
  for (int i = 0; i < population; ++i) {
    KeySpec key;
    key.hidden0 = 256 + 32 * i;
    key.hidden1 = 256 + 64 * (i % 3);
    key.hosts = hosts(st.rng);
    st.population.push_back(key);
  }
  st.zipf_cdf.assign(population, 0.0);
  double total = 0.0;
  for (int i = 0; i < population; ++i) {
    total += 1.0 / std::pow(i + 1.0, kZipfExponent);
    st.zipf_cdf[i] = total;
  }
  for (double& c : st.zipf_cdf) {
    c /= total;
  }
  st.served_misses.clear();
  st.next_miss = 0;
  st.reference = Step{};
  st.chunk_transport.clear();
  st.saturation.clear();
  st.capacity.clear();
  st.delta = MetricSnapshot{};
  st.rejected = st.expired = st.speculations = st.spec_hits = st.wasted = 0;
  for (int c = 0; c < 3; ++c) {
    st.class_attempted[c] = st.class_failed[c] = st.class_refused[c] = st.class_expired[c] = 0;
  }
  st.outcome = PartOutcome{};

  // Daemon A compiles the popular keys; its speculation presolves each
  // key's failover cluster. Wait until every presolve has landed.
  const serve::ServerOptions options =
      DaemonOptions(st.socket_path, st.cache_dir, population, context_.threads);
  st.server = std::make_unique<serve::PlanServer>(options);
  if (!st.server->Start().ok()) {
    st.server.reset();
    return;
  }
  serve::RemotePlanService client(st.socket_path);
  for (const KeySpec& key : st.population) {
    (void)client.Call(MakeRequest(key, key.hosts, "warmup"));
  }
  int stable = 0;
  int64_t last = -1;
  const double deadline = Now() + 60.0;
  while (stable < 3 && Now() < deadline) {
    const alpa::StatusOr<serve::ServeResponse> stats = client.ElasticStats();
    if (!stats.ok()) {
      break;
    }
    const bool drained = stats->elastic_speculations >= population &&
                         stats->elastic_wasted == stats->elastic_speculations;
    stable = drained && stats->elastic_speculations == last ? stable + 1 : 0;
    last = stats->elastic_speculations;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  st.server->Stop();

  // Daemon B: a restart on the persisted cache, as a production daemon
  // comes up. The first request for each key is a disk hit.
  serve::PlanCache::Global().Clear(/*also_disk=*/false);
  st.server = std::make_unique<serve::PlanServer>(options);
  if (!st.server->Start().ok()) {
    st.server.reset();
  }
}

namespace {

// Plans `count` arrivals at `rate` per second for `seconds`: uniform order
// statistics, i.e. a Poisson process conditioned on its count.
std::vector<double> Arrivals(std::mt19937_64& rng, double rate, double seconds) {
  const int count = std::max(1, static_cast<int>(std::lround(rate * seconds)));
  std::uniform_real_distribution<double> uniform(0.0, seconds);
  std::vector<double> offsets(count);
  for (double& t : offsets) {
    t = uniform(rng);
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

}  // namespace

Step ServeWorkload::State::Plan(double rate, double seconds, int keep) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> tenant_of(0, kTenants - 1);
  const auto popular = [&](double z) -> const KeySpec& {
    const size_t index = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), z) - zipf_cdf.begin());
    return population[std::min(index, population.size() - 1)];
  };
  for (KeySpec& miss : served_misses) {
    miss.earlier_step = true;
  }
  Step step;
  step.rate = rate;
  step.seconds = seconds;
  for (double offset : Arrivals(rng, rate, seconds)) {
    Planned p;
    p.offset = offset;
    const double u = unit(rng);
    const std::string tenant = "tenant-" + std::to_string(tenant_of(rng));
    if (u < kMissShare) {
      p.cls = kMiss;
      KeySpec key;
      // Never seen in this run: a hidden width no other key uses.
      key.hidden0 = 1000 + 8 * next_miss++;
      key.hidden1 = 256;
      key.hosts = 2 + static_cast<int>(next_miss % 3);
      key.due = offset;
      served_misses.push_back(key);
      p.request = MakeRequest(key, key.hosts, tenant);
    } else if (u < kMissShare + kFailoverShare) {
      p.cls = kFailover;
      // A served key minus one host: the latest miss at least 50 ms old
      // (the daemon presolved it after answering), or a popular key
      // (presolved in set-up).
      const KeySpec* key = nullptr;
      if (unit(rng) < kRecentFailoverShare) {
        for (size_t m = served_misses.size(); m-- > 0;) {
          if (served_misses[m].due < offset - 0.05 || served_misses[m].earlier_step) {
            key = &served_misses[m];
            break;
          }
        }
      }
      if (key == nullptr) {
        key = &popular(unit(rng));
      }
      p.request = MakeRequest(*key, key->hosts - 1, tenant);
    } else {
      p.cls = kHit;
      const KeySpec& key = popular(unit(rng));
      p.request = MakeRequest(key, key.hosts, tenant);
    }
    step.planned.push_back(std::move(p));
  }
  // Seeded sample of requests whose served plan is checked in-process.
  for (int k = 0; k < keep && !step.planned.empty(); ++k) {
    step.planned[std::uniform_int_distribution<size_t>(0, step.planned.size() - 1)(rng)]
        .keep_plan = true;
  }
  return step;
}

void ServeWorkload::State::Send(Step& step) {
  const size_t n = step.planned.size();
  step.samples.assign(n, Sample{});
  std::atomic<size_t> next{0};
  step.start = Now() + 0.005;
  std::vector<std::thread> senders;
  for (int c = 0; c < connections; ++c) {
    senders.emplace_back([&] {
      Connection connection(socket_path);
      std::string blob;
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= n) {
          return;
        }
        const Planned& p = step.planned[i];
        Sample& s = step.samples[i];
        s.due = step.start + p.offset;
        s.claim = Now();
        while (Now() < s.due) {
          const double wait = s.due - Now();
          if (wait > 200e-6) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait - 100e-6));
          }
        }
        s.send = Now();
        const std::string request = serve::SerializeRequest(p.request);
        s.encoded = Now();
        const bool wrote =
            connection.fd() >= 0 && serve::WriteFrame(connection.fd(), request).ok();
        s.written = Now();
        const bool got = wrote && serve::ReadFrame(connection.fd(), &blob).ok();
        s.read = Now();
        alpa::StatusOr<serve::ServeResponse> response =
            got ? serve::DeserializeResponse(blob)
                : alpa::StatusOr<serve::ServeResponse>(alpa::Status::Unavailable("io"));
        s.decoded = Now();
        s.response_bytes = got ? blob.size() : 0;
        if (response.ok()) {
          const alpa::Status status = response->ToStatus();
          s.ok = status.ok();
          s.refused = status.code() == alpa::StatusCode::kUnavailable;
          s.expired = status.code() == alpa::StatusCode::kDeadlineExceeded;
          s.queue_s = response->queue_seconds;
          s.compute_s = response->compile_seconds;
          if (p.keep_plan && response->has_plan) {
            s.plan = std::move(response->plan);
            s.has_plan = true;
          }
        } else {
          s.refused = true;
        }
      }
    });
  }
  for (std::thread& t : senders) {
    t.join();
  }
  step.backlog_start = MeanBacklog(step.samples, step.start, step.start + 0.25 * step.seconds);
  step.backlog_end =
      MeanBacklog(step.samples, step.start + 0.75 * step.seconds, step.start + step.seconds);
  double last = step.start;
  for (const Sample& s : step.samples) {
    last = std::max(last, s.decoded);
  }
  step.completed_rate = static_cast<double>(n) / (last - step.start);
  step.p99_ms = Percentile(LatenciesMs(step.samples), 0.99);
  for (size_t i = 0; i < n; ++i) {
    const int cls = step.planned[i].cls;
    const Sample& s = step.samples[i];
    ++outcome.attempted;
    ++class_attempted[cls];
    if (!s.ok) {
      ++outcome.failed;
      ++class_failed[cls];
    }
    class_refused[cls] += s.refused ? 1 : 0;
    class_expired[cls] += s.expired ? 1 : 0;
  }
}

void ServeWorkload::State::Drain() {
  serve::RemotePlanService client(socket_path);
  int stable = 0;
  int64_t last = -1;
  const double deadline = Now() + 10.0;
  while (stable < kDrainPolls && Now() < deadline) {
    const alpa::StatusOr<serve::ServeResponse> stats = client.ElasticStats();
    if (!stats.ok()) {
      return;
    }
    stable = stats->elastic_speculations == last ? stable + 1 : 0;
    last = stats->elastic_speculations;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool ServeWorkload::State::Sustained(const Step& step) const {
  return step.p99_ms <= kP99LimitMs &&
         step.backlog_end - step.backlog_start <= 2.0 * connections;
}

double ServeWorkload::State::SearchCapacity(double reference_rate) {
  Step saturated = Plan(kSaturationMultiple * reference_rate, kSaturationSeconds, 0);
  Send(saturated);
  Drain();
  const double c = saturated.completed_rate;
  saturation.push_back(c);
  double lo = 0.0, hi = c;
  for (int k = 0; k < kBisections; ++k) {
    const double mid = 0.5 * (lo + hi);
    Step step = Plan(mid, kProbeSeconds, 0);
    Send(step);
    Drain();
    (Sustained(step) ? lo : hi) = mid;
  }
  return lo;
}

double ServeWorkload::State::TransportSeconds() {
  constexpr int kPings = 32;
  Connection connection(socket_path);
  serve::ServeRequest ping;
  ping.method = serve::Method::kPing;
  const std::string request = serve::SerializeRequest(ping);
  std::string blob;
  std::vector<double> seconds;
  for (int i = 0; i < kPings && connection.fd() >= 0; ++i) {
    const double t0 = Now();
    if (!serve::WriteFrame(connection.fd(), request).ok() ||
        !serve::ReadFrame(connection.fd(), &blob).ok()) {
      break;
    }
    const double t1 = Now();
    const alpa::StatusOr<serve::ServeResponse> response = serve::DeserializeResponse(blob);
    if (!response.ok()) {
      break;
    }
    seconds.push_back(
        std::max(0.0, t1 - t0 - response->queue_seconds - response->compile_seconds));
  }
  return Median(seconds);
}

bool ServeWorkload::RunWindow(double seconds) {
  State& st = *state_;
  if (st.server == nullptr) {
    st.outcome.attempted = st.outcome.failed = 1;
    st.outcome.error = "serve-mix: the daemon did not start";
    return false;
  }
  Tracer& tracer = *context_.tracer;
  const double rate = context_.smoke ? kSmokeRps : kReferenceRps;
  st.connections = std::max(1, std::min(context_.threads, 4));
  // Untimed warm-in: the compile round before this chunk cleared the
  // process-wide ILP memo, which a long-running daemon would have warm.
  Step warm_in = st.Plan(rate, kWarmInSeconds, 0);
  st.Send(warm_in);
  Step chunk = st.Plan(rate, seconds, 1);
  serve::RemotePlanService client(st.socket_path);
  const alpa::StatusOr<serve::ServeResponse> elastic_before = client.ElasticStats();
  const MetricSnapshot before = MetricSnapshot::Take();
  const serve::ServerStats stats_before = st.server->stats();
  st.Send(chunk);
  st.delta = st.delta.Plus(MetricSnapshot::Take().Minus(before));
  const serve::ServerStats stats_after = st.server->stats();
  st.rejected += stats_after.rejected_queue - stats_before.rejected_queue;
  st.expired += stats_after.expired - stats_before.expired;
  const alpa::StatusOr<serve::ServeResponse> elastic_after = client.ElasticStats();
  if (elastic_before.ok() && elastic_after.ok()) {
    st.speculations += elastic_after->elastic_speculations - elastic_before->elastic_speculations;
    st.spec_hits += elastic_after->elastic_hits - elastic_before->elastic_hits;
    st.wasted = elastic_after->elastic_wasted;
  }
  const double transport = st.TransportSeconds();
  st.chunk_transport.push_back(transport);
  const size_t base = st.reference.samples.size();
  for (size_t i = 0; i < chunk.samples.size(); ++i) {
    const Sample& s = chunk.samples[i];
    const int64_t id = static_cast<int64_t>(base + i);
    st.outcome.timed_wall += s.latency();
    st.outcome.attributed += (s.send - s.due) + (s.encoded - s.send) + transport + s.queue_s +
                             s.compute_s + (s.decoded - s.read);
    const int parent = tracer.Record("serve.request", s.due, s.decoded, -1, id);
    tracer.Record("gen.wait", s.due, s.send, parent, id);
    tracer.Record("wire.encode", s.send, s.encoded, parent, id);
    tracer.Record("socket.write", s.encoded, s.written, parent, id);
    tracer.Record("socket.read", s.written, s.read, parent, id);
    tracer.Record("wire.decode", s.read, s.decoded, parent, id);
  }
  st.reference.rate = rate;
  st.reference.seconds += seconds;
  for (size_t i = 0; i < chunk.samples.size(); ++i) {
    st.reference.planned.push_back(std::move(chunk.planned[i]));
    st.reference.samples.push_back(std::move(chunk.samples[i]));
  }
  st.Drain();
  return true;
}

bool ServeWorkload::SearchCapacity() {
  State& st = *state_;
  const double t0 = Now();
  st.capacity.push_back(st.SearchCapacity(context_.smoke ? kSmokeRps : kReferenceRps));
  context_.tracer->Record("serve.capacity_search", t0, Now());
  return true;
}

bool ServeWorkload::Finish() {
  State& st = *state_;
  if (st.server == nullptr || st.reference.samples.empty()) {
    return false;
  }
  // Served plans must equal an in-process compile of the same request.
  serve::InProcessPlanService local;
  for (size_t i = 0; i < st.reference.samples.size(); ++i) {
    const Sample& s = st.reference.samples[i];
    if (!s.has_plan) {
      continue;
    }
    const serve::ServeRequest& r = st.reference.planned[i].request;
    serve::PlanRequest request;
    request.graph = r.graph;
    request.cluster = r.cluster;
    request.options = r.options;
    request.options.use_plan_cache = false;
    const alpa::StatusOr<alpa::ParallelPlan> plan = local.Parallelize(request);
    if (!plan.ok() || !alpa::PlanEquals(plan->pipeline, s.plan.pipeline)) {
      st.outcome.error = std::string("serve-mix: a served ") +
                         kClassNames[st.reference.planned[i].cls] +
                         " plan differs from the in-process compile of the same request";
      return false;
    }
  }
  if (st.outcome.failed > 0) {
    st.outcome.error = "serve-mix: " + std::to_string(st.outcome.failed) + " requests failed";
    return false;
  }
  return true;
}

const PartOutcome& ServeWorkload::outcome() const { return state_->outcome; }

void ServeWorkload::Emit(bool traced, Results* results) const {
  const State& st = *state_;
  const Step& ref = st.reference;
  // A latency percentile of one class (-1: all) over every reference
  // request of the run. The p99 of all requests falls among the compiles
  // (6-7% of the stream: misses, failovers speculation did not cover,
  // evicted keys), and it spread by 20-80% between runs on a shared 4-vCPU
  // VM, so it is a per-layer metric of the traced run, not an end-to-end
  // one.
  const auto pooled_ms = [&](int cls, double p) {
    std::vector<double> ms;
    for (size_t i = 0; i < ref.samples.size(); ++i) {
      if (cls < 0 || ref.planned[i].cls == cls) {
        ms.push_back(ref.samples[i].ok ? ref.samples[i].latency() * 1e3 : HUGE_VAL);
      }
    }
    return Percentile(ms, p);
  };
  std::fprintf(stderr, "serve: reference %.0f req/s in %zu chunks, %zu requests\n", ref.rate,
               st.chunk_transport.size(), ref.samples.size());
  for (int c = 0; c < 3; ++c) {
    std::fprintf(stderr, "  %-8s attempted %lld failed %lld refused %lld expired %lld\n",
                 kClassNames[c], static_cast<long long>(st.class_attempted[c]),
                 static_cast<long long>(st.class_failed[c]),
                 static_cast<long long>(st.class_refused[c]),
                 static_cast<long long>(st.class_expired[c]));
  }
  for (size_t k = 0; k < st.capacity.size(); ++k) {
    std::fprintf(stderr, "  capacity search %zu: saturated %.0f done/s, sustained %.0f req/s\n",
                 k + 1, st.saturation[k], st.capacity[k]);
  }
  if (!traced) {
    results->Add("serve_p50_ms", "ms", pooled_ms(-1, 0.50));
    results->Add("serve_miss_p50_ms", "ms", pooled_ms(kMiss, 0.50));
    results->Add("failover_p50_ms", "ms", pooled_ms(kFailover, 0.50));
    return;
  }
  std::vector<double> lag, conn_wait, encode, decode, queue, compute, rest, kb;
  for (const Sample& s : ref.samples) {
    lag.push_back((s.send - s.due) * 1e3);
    conn_wait.push_back(std::max(0.0, s.claim - s.due) * 1e3);
    encode.push_back((s.encoded - s.send) * 1e6);
    decode.push_back((s.decoded - s.read) * 1e6);
    queue.push_back(s.queue_s * 1e3);
    compute.push_back(s.compute_s * 1e3);
    kb.push_back(static_cast<double>(s.response_bytes) / 1024.0);
    rest.push_back((s.latency() - (s.send - s.due) - (s.encoded - s.send) - s.queue_s -
                    s.compute_s - (s.decoded - s.read)) *
                   1e3);
  }
  const MetricSnapshot& d = st.delta;
  const int64_t hits = d["plan_cache/memory_hits"] + d["plan_cache/disk_hits"];
  const int64_t lookups = hits + d["plan_cache/misses"];
  results->Add("serve.p99_ms", "ms", pooled_ms(-1, 0.99));
  results->Add("gen.lag_p99_ms", "ms", Percentile(lag, 0.99));
  results->Add("gen.conn_wait_p50_ms", "ms", Percentile(conn_wait, 0.50));
  results->Add("serve.wire_encode_us", "us", Mean(encode));
  results->Add("serve.wire_decode_us", "us", Mean(decode));
  results->Add("serve.response_kb", "KiB", Mean(kb));
  const double transport = Median(st.chunk_transport);
  results->Add("serve.transport_us", "us", transport * 1e6);
  results->Add("serve.queue_ms", "ms", Mean(queue));
  results->Add("serve.server_ms", "ms", Mean(compute));
  results->Add("serve.max_rps", "req/s", Median(st.capacity));
  results->Add("serve.saturation_rps", "req/s", Median(st.saturation));
  results->Add("serve.cache_hit_ratio", "ratio",
               lookups > 0 ? static_cast<double>(hits) / lookups : 0.0);
  results->Add("serve.disk_hits", "count", static_cast<double>(d["plan_cache/disk_hits"]));
  results->Add("serve.evictions", "count", static_cast<double>(d["plan_cache/evictions"]));
  results->Add("serve.compiles", "count", static_cast<double>(d["serve/compiles"]));
  results->Add("serve.flight_followers", "count",
               static_cast<double>(d["plan_cache/flight_followers"]));
  results->Add("serve.rejected", "count", static_cast<double>(st.rejected));
  results->Add("serve.expired", "count", static_cast<double>(st.expired));
  results->Add("elastic.speculations", "count", static_cast<double>(st.speculations));
  results->Add("elastic.spec_hit_ratio", "ratio",
               st.speculations > 0 ? static_cast<double>(st.spec_hits) / st.speculations : 0.0);
  results->Add("elastic.wasted_presolves", "count", static_cast<double>(st.wasted));
  results->Add("serve.unattributed_ms", "ms", Mean(rest) - transport * 1e3);
}

}  // namespace perfbench
