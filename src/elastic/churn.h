// Deterministic churn event stream for the elastic runtime.
//
// The paper assumes a static, healthy cluster for the lifetime of a job;
// a production service sees hosts fail (Poisson, at a per-host MTBF),
// new hosts join (announced capacity), and hosts drain (announced
// maintenance). The churn engine turns those into a single deterministic,
// time-sorted event stream: the same (initial cluster, options) pair
// always yields the same stream, bit for bit, which is what makes the
// elastic loop's goodput accounting reproducible across reruns and thread
// counts.
#ifndef SRC_ELASTIC_CHURN_H_
#define SRC_ELASTIC_CHURN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mesh/cluster_spec.h"
#include "src/support/status.h"

namespace alpa {
namespace elastic {

enum class ChurnEventKind {
  kHostFailure = 0,  // Unannounced permanent loss of one host.
  kHostJoin = 1,     // Announced capacity add (one host of `device`).
  kHostDrain = 2,    // Announced removal (maintenance) of one host.
};

const char* ToString(ChurnEventKind kind);

struct ChurnEvent {
  double time = 0.0;  // Simulated seconds from run start.
  ChurnEventKind kind = ChurnEventKind::kHostFailure;
  // Failure/drain target: the host index AT EVENT TIME (indices shift as
  // earlier events remove hosts).
  int host = -1;
  // kHostJoin only: the generation of the joining host.
  DeviceSpec device;

  // Joins and drains are announced in advance (the speculative re-planner
  // may presolve them); failures never are.
  bool announced() const { return kind != ChurnEventKind::kHostFailure; }

  std::string ToString() const;
};

struct ChurnOptions {
  // Length of the simulated run. The default is the benchmark's "one week
  // of production churn".
  double horizon_seconds = 7 * 86400.0;
  // Per-host mean time between permanent failures; the cluster-wide
  // failure process is Poisson with rate (alive hosts / MTBF). <= 0
  // disables sampled failures (only `scheduled` events fire).
  double host_mtbf_seconds = 2.5 * 86400.0;
  uint64_t seed = 0x5eedULL;
  // Announced joins/drains, merged into the sampled failures by time.
  std::vector<ChurnEvent> scheduled;
};

// Samples the merged event stream over `options.horizon_seconds`:
// exponential inter-arrival failures at the current alive-host count's
// aggregate rate (the failing host uniform over the alive hosts), merged
// in time order with the scheduled events. Failures and drains that would
// leave no host alive are dropped (a dead cluster has nothing to plan
// for). Purely a function of (initial, options) — no wall clock, no
// global state.
std::vector<ChurnEvent> SampleChurnEvents(const ClusterSpec& initial,
                                          const ChurnOptions& options);

// A ClusterSpec under mutation by churn events.
class LiveCluster {
 public:
  explicit LiveCluster(ClusterSpec spec);

  const ClusterSpec& spec() const { return spec_; }

  // Applies one event, mutating the spec ONLY on success. Failures/drains
  // drop host `event.host` (per-host generation overrides shift down);
  // joins append one host of `event.device`. Errors: kInvalidArgument
  // (host out of range), kInfeasible (removal would leave zero hosts).
  Status Apply(const ChurnEvent& event);

 private:
  ClusterSpec spec_;
};

}  // namespace elastic
}  // namespace alpa

#endif  // SRC_ELASTIC_CHURN_H_
