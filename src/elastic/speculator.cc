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
  static Metric* m = Metrics::Get("elastic/speculations");
  return m;
}
Metric* HitsMetric() {
  static Metric* m = Metrics::Get("elastic/speculative_hits");
  return m;
}
Metric* MissesMetric() {
  static Metric* m = Metrics::Get("elastic/speculative_misses");
  return m;
}
Metric* WastedMetric() {
  static Metric* m = Metrics::Get("elastic/wasted_presolves");
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

Speculator::Speculator(ThreadPool* pool) : pool_(pool) {}

Speculator::~Speculator() { Drain(); }

void Speculator::Speculate(const std::vector<CandidateConfig>& candidates,
                           const Presolver& presolver) {
  for (const CandidateConfig& candidate : candidates) {
    PresolveKey key;
    if (!presolver.key(candidate.cluster, &key)) {
      continue;
    }
    // The ledger before the store: a claimed key needs no store probe (the
    // daemon's probe is a plan-cache lookup that counts a hit and refreshes
    // the entry's LRU age).
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (claims_.count(key) > 0) {
        continue;
      }
    }
    if (presolver.holds(key)) {
      continue;  // Stored without speculation's help: not a speculation.
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!claims_.emplace(key, State::kInFlight).second) {
        continue;  // Another thread claimed it since the check above.
      }
      ++in_flight_;
      ++counts_.speculations;
      SpeculationsMetric()->Add(1);
    }
    if (pool_ != nullptr) {
      pool_->Submit([this, key, cluster = candidate.cluster, presolve = presolver.presolve] {
        Presolve(key, cluster, presolve);
      });
    } else {
      Presolve(key, candidate.cluster, presolver.presolve);
    }
  }
}

void Speculator::Presolve(const PresolveKey& key, const ClusterSpec& cluster,
                          const std::function<bool(const ClusterSpec&)>& presolve) {
  const bool usable = presolve(cluster);
  std::lock_guard<std::mutex> lock(mu_);
  if (usable) {
    claims_[key] = State::kUsable;
    WastedMetric()->Set(++counts_.wasted);
  } else {
    claims_[key] = State::kFailed;
    ++counts_.failed;
  }
  --in_flight_;
  // Notify while still holding mu_: once the lock drops with
  // in_flight_ == 0, Drain() may return and the Speculator be destroyed,
  // so an unlocked notify would touch a dead condvar.
  idle_.notify_all();
}

void Speculator::Record(const PresolveKey& key, bool compiled) {
  std::lock_guard<std::mutex> lock(mu_);
  if (compiled) {
    ++counts_.misses;
    MissesMetric()->Add(1);
    return;
  }
  auto it = claims_.find(key);
  if (it != claims_.end() && it->second == State::kUsable) {
    it->second = State::kUsed;
    ++counts_.hits;
    HitsMetric()->Add(1);
    WastedMetric()->Set(--counts_.wasted);
  }
}

void Speculator::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

SpeculationCounts Speculator::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

}  // namespace elastic
}  // namespace alpa
