#include "src/elastic/speculator.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "src/support/strings.h"
#include "src/support/trace.h"

namespace alpa {
namespace elastic {

namespace {

// Announced events further out than this are not worth presolving yet
// (their plan would be recomputed closer to the event anyway); failure
// likelihoods are taken over the same window.
constexpr double kLookaheadSeconds = 86400.0;

Metric* SpeculationsMetric() {
  static Metric* m = Metrics::Get("ilp.elastic.speculations");
  return m;
}
Metric* HitsMetric() {
  static Metric* m = Metrics::Get("ilp.elastic.speculative_hits");
  return m;
}
Metric* MissesMetric() {
  static Metric* m = Metrics::Get("ilp.elastic.speculative_misses");
  return m;
}
Metric* WastedMetric() {
  static Metric* m = Metrics::Get("ilp.elastic.wasted_presolves");
  return m;
}

}  // namespace

std::vector<CandidateConfig> EnumerateLikelyConfigs(const ClusterSpec& current,
                                                    const std::vector<ChurnEvent>& announced,
                                                    double now, double host_mtbf_seconds,
                                                    const SpeculationOptions& options) {
  std::vector<CandidateConfig> candidates;
  std::set<uint64_t> seen;
  seen.insert(current.Fingerprint());  // The status quo needs no presolve.
  const auto add = [&](ClusterSpec cluster, std::string reason, double likelihood) {
    const uint64_t fingerprint = cluster.Fingerprint();
    if (!seen.insert(fingerprint).second) {
      return;
    }
    candidates.push_back(CandidateConfig{std::move(cluster), std::move(reason), likelihood});
  };

  // Announced events first: they WILL happen, so they outrank any failure
  // guess. Apply each to the current spec in isolation (if several land
  // before the next replan, the later ones re-speculate from there).
  for (const ChurnEvent& event : announced) {
    if (!event.announced() || event.time < now ||
        event.time > now + kLookaheadSeconds) {
      continue;
    }
    LiveCluster live(current);
    if (live.Apply(event).ok()) {
      add(live.spec(), StrFormat("announced %s", ToString(event.kind)), 1.0);
    }
  }

  // Each alive host failing within the lookahead window. On a homogeneous
  // cluster all of these collapse to one fingerprint; mixed generations
  // yield one candidate per distinct surviving mix.
  const double p_fail =
      host_mtbf_seconds > 0.0
          ? 1.0 - std::exp(-kLookaheadSeconds / host_mtbf_seconds)
          : 0.0;
  for (int host = 0; host < current.num_hosts; ++host) {
    ChurnEvent failure;
    failure.kind = ChurnEventKind::kHostFailure;
    failure.host = host;
    LiveCluster live(current);
    if (live.Apply(failure).ok()) {
      add(live.spec(), StrFormat("host %d down", host), p_fail);
    }
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const CandidateConfig& a, const CandidateConfig& b) {
                     return a.likelihood > b.likelihood;
                   });
  if (options.k >= 0 && candidates.size() > static_cast<size_t>(options.k)) {
    candidates.resize(static_cast<size_t>(options.k));
  }
  return candidates;
}

SpeculativePlanner::SpeculativePlanner(SolveFn solve, SpeculationOptions options,
                                       ThreadPool* pool)
    : solve_(std::move(solve)), options_(options), pool_(pool) {}

SpeculativePlanner::~SpeculativePlanner() { Drain(); }

void SpeculativePlanner::set_presolved_hook(PresolvedHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

void SpeculativePlanner::Speculate(const ClusterSpec& current,
                                   const std::vector<ChurnEvent>& announced, double now,
                                   double host_mtbf_seconds) {
  const std::vector<CandidateConfig> candidates =
      EnumerateLikelyConfigs(current, announced, now, host_mtbf_seconds, options_);
  for (const CandidateConfig& candidate : candidates) {
    const uint64_t fingerprint = candidate.cluster.Fingerprint();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cache_.count(fingerprint) > 0) {
        continue;  // Already presolved (or in flight).
      }
      cache_.emplace(fingerprint, Entry{});
      ++in_flight_;
      ++speculations_;
    }
    SpeculationsMetric()->Add(1);
    if (pool_ != nullptr) {
      ClusterSpec cluster = candidate.cluster;
      pool_->Submit([this, fingerprint, cluster = std::move(cluster)]() mutable {
        Presolve(fingerprint, std::move(cluster));
      });
    } else {
      Presolve(fingerprint, candidate.cluster);
    }
  }
}

void SpeculativePlanner::Presolve(uint64_t fingerprint, ClusterSpec cluster) {
  StatusOr<ParallelPlan> plan = solve_(cluster);
  PresolvedHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = cache_[fingerprint];
    entry.done = true;
    if (plan.ok()) {
      entry.usable = true;
      entry.plan = *plan;
      hook = hook_;
    }
    --in_flight_;
    // Notify while still holding mu_: once the lock drops with
    // in_flight_ == 0, Drain() may return and the planner be destroyed,
    // so an unlocked notify would touch a dead condvar.
    idle_.notify_all();
  }
  if (hook) {
    hook(cluster, *plan);
  }
}

void SpeculativePlanner::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

std::optional<ParallelPlan> SpeculativePlanner::Fetch(const ClusterSpec& target) {
  const uint64_t fingerprint = target.Fingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(fingerprint);
  if (it != cache_.end() && it->second.done && it->second.usable) {
    it->second.fetched = true;
    ++hits_;
    HitsMetric()->Add(1);
    return it->second.plan;
  }
  ++misses_;
  MissesMetric()->Add(1);
  return std::nullopt;
}

int64_t SpeculativePlanner::speculations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return speculations_;
}

int64_t SpeculativePlanner::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t SpeculativePlanner::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t SpeculativePlanner::WastedPresolves() const {
  int64_t wasted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [fingerprint, entry] : cache_) {
      if (entry.done && entry.usable && !entry.fetched) {
        ++wasted;
      }
    }
  }
  WastedMetric()->Set(wasted);
  return wasted;
}

}  // namespace elastic
}  // namespace alpa
