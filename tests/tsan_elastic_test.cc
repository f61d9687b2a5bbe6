// ThreadSanitizer harness for the elastic runtime.
//
// Runs the full churn loop with BACKGROUND speculative presolves (a real
// thread pool, concurrent Parallelize calls mutating independent graph
// copies) twice, under -fsanitize=thread, and requires the determinism
// fingerprints to be bit-identical — both to each other and to an inline
// (threads=0) run. Any race in the ledger's claim/in-flight accounting,
// its drain, the loop's plan store, or a presolve sharing mutable graph
// state fails the run. Then several threads share one ledger with inline
// presolves, as the alpa_serve --elastic workers do, recording served
// plans and speculating their failovers; every claimed key must be
// presolved exactly once and the counters must balance. Kept small: TSan
// slows execution by an order of magnitude.
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/elastic/elastic.h"
#include "src/elastic/speculator.h"
#include "src/models/mlp.h"

namespace {

using namespace alpa;

// The daemon's usage of the ledger: workers serve plans from a shared
// store (compiling the ones it lacks), record each, and speculate the
// served cluster's likely failovers with inline presolves. Returns false
// when a key was presolved twice or the counters do not balance.
bool LedgerHoldsUnderConcurrentWorkers() {
  elastic::Speculator speculator(/*pool=*/nullptr);
  std::mutex store_mu;
  std::map<elastic::PresolveKey, int> store;  // Key -> presolves of it.
  std::atomic<int64_t> presolves{0};
  elastic::Presolver presolver;
  presolver.key = [](const ClusterSpec& cluster, elastic::PresolveKey* key) {
    *key = {cluster.Fingerprint(), 0};
    return true;
  };
  presolver.holds = [&](const elastic::PresolveKey& key) {
    std::lock_guard<std::mutex> lock(store_mu);
    return store.count(key) > 0;
  };
  presolver.presolve = [&](const ClusterSpec& cluster) {
    ++presolves;
    std::lock_guard<std::mutex> lock(store_mu);
    ++store[{cluster.Fingerprint(), 0}];
    return cluster.num_hosts % 5 != 0;  // Some presolves fail.
  };

  constexpr int kWorkers = 4;
  constexpr int kRounds = 150;
  elastic::SpeculationOptions options;
  options.k = 2;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        const int hosts = 2 + (round * 7 + w) % 12;
        const ClusterSpec served = ClusterSpec::MixedGeneration(hosts / 2, hosts - hosts / 2, 2);
        const elastic::PresolveKey key{served.Fingerprint(), 0};
        bool compiled = false;
        {
          std::lock_guard<std::mutex> lock(store_mu);
          compiled = store.emplace(key, 0).second;
        }
        speculator.Record(key, compiled);
        speculator.Speculate(
            elastic::EnumerateLikelyConfigs(served, {}, 0.0, 86400.0, options), presolver);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  speculator.Drain();

  const elastic::SpeculationCounts counts = speculator.counts();
  for (const auto& [key, times] : store) {
    if (times > 1) {
      std::fprintf(stderr, "ledger: one key presolved %d times\n", times);
      return false;
    }
  }
  if (presolves.load() != counts.speculations ||
      counts.speculations != counts.hits + counts.wasted + counts.failed ||
      counts.speculations == 0) {
    std::fprintf(stderr,
                 "ledger: %lld presolves, %lld speculations = %lld hits + %lld wasted + "
                 "%lld failed?\n",
                 static_cast<long long>(presolves.load()),
                 static_cast<long long>(counts.speculations),
                 static_cast<long long>(counts.hits), static_cast<long long>(counts.wasted),
                 static_cast<long long>(counts.failed));
    return false;
  }
  std::printf("ledger: %lld speculations = %lld hits + %lld wasted + %lld failed, %lld misses\n",
              static_cast<long long>(counts.speculations), static_cast<long long>(counts.hits),
              static_cast<long long>(counts.wasted), static_cast<long long>(counts.failed),
              static_cast<long long>(counts.misses));
  return true;
}

}  // namespace

int main() {

  const Graph graph = BuildMlp(MlpConfig{});
  const ClusterSpec initial = ClusterSpec::AwsP3(2, 2);
  ParallelizeOptions options;
  options.num_microbatches = 4;
  options.inter.target_layers = 2;

  elastic::ElasticOptions elastic;
  elastic.churn.horizon_seconds = 2000.0;
  elastic.churn.host_mtbf_seconds = 400.0;
  elastic.churn.seed = 0x5eedULL;
  elastic.churn.scheduled.push_back(
      {600.0, elastic::ChurnEventKind::kHostJoin, -1, DeviceSpec::V100()});
  elastic.churn.scheduled.push_back(
      {1200.0, elastic::ChurnEventKind::kHostJoin, -1, DeviceSpec::A100()});
  elastic.speculative = true;

  uint64_t fingerprints[3] = {};
  const int thread_counts[3] = {4, 4, 0};  // Two pooled runs + inline reference.
  for (int i = 0; i < 3; ++i) {
    elastic.threads = thread_counts[i];
    const StatusOr<elastic::ElasticRunResult> run =
        elastic::RunElasticLoop(graph, initial, options, elastic);
    if (!run.ok()) {
      std::fprintf(stderr, "RunElasticLoop failed: %s\n", run.status().ToString().c_str());
      return 1;
    }
    if (run->events_applied == 0) {
      std::fprintf(stderr, "churn stream applied no events; scenario too quiet\n");
      return 1;
    }
    fingerprints[i] = run->DeterminismFingerprint();
  }
  if (fingerprints[0] != fingerprints[1] || fingerprints[0] != fingerprints[2]) {
    std::fprintf(stderr,
                 "fingerprint mismatch: pooled %016llx / %016llx vs inline %016llx\n",
                 static_cast<unsigned long long>(fingerprints[0]),
                 static_cast<unsigned long long>(fingerprints[1]),
                 static_cast<unsigned long long>(fingerprints[2]));
    return 1;
  }
  std::printf("elastic loop deterministic under TSan: %016llx\n",
              static_cast<unsigned long long>(fingerprints[0]));
  return LedgerHoldsUnderConcurrentWorkers() ? 0 : 1;
}
