#include "src/elastic/churn.h"

#include <algorithm>
#include <cmath>

#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace alpa {
namespace elastic {

namespace {

// Failures and drains that would leave fewer than this many hosts are
// dropped from the stream (a dead cluster has nothing left to plan for).
constexpr int kMinHosts = 1;

}  // namespace

const char* ToString(ChurnEventKind kind) {
  switch (kind) {
    case ChurnEventKind::kHostFailure:
      return "failure";
    case ChurnEventKind::kHostJoin:
      return "join";
    case ChurnEventKind::kHostDrain:
      return "drain";
  }
  return "unknown";
}

std::string ChurnEvent::ToString() const {
  if (kind == ChurnEventKind::kHostJoin) {
    return StrFormat("%s@%s", elastic::ToString(kind), HumanSeconds(time).c_str());
  }
  return StrFormat("%s host %d @%s", elastic::ToString(kind), host,
                   HumanSeconds(time).c_str());
}

std::vector<ChurnEvent> SampleChurnEvents(const ClusterSpec& initial,
                                          const ChurnOptions& options) {
  std::vector<ChurnEvent> scheduled = options.scheduled;
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) { return a.time < b.time; });

  std::vector<ChurnEvent> events;
  Rng rng(options.seed);
  int alive = initial.num_hosts;
  double now = 0.0;
  size_t next_scheduled = 0;
  // Walk simulated time: at each step the next event is either the next
  // scheduled join/drain or the next sampled failure, whichever is
  // earlier. The failure process is re-sampled from the CURRENT alive
  // count (rate alive/MTBF), so scale-downs slow the failure clock and
  // joins speed it up, as they would in production.
  while (now < options.horizon_seconds) {
    double next_failure = options.horizon_seconds + 1.0;
    if (options.host_mtbf_seconds > 0.0 && alive > kMinHosts) {
      const double rate = static_cast<double>(alive) / options.host_mtbf_seconds;
      next_failure = now - std::log(1.0 - rng.NextDouble()) / rate;
    }
    const bool have_scheduled = next_scheduled < scheduled.size() &&
                                scheduled[next_scheduled].time < options.horizon_seconds;
    if (have_scheduled && scheduled[next_scheduled].time <= next_failure) {
      ChurnEvent event = scheduled[next_scheduled++];
      event.time = std::max(event.time, now);
      now = event.time;
      if (event.kind == ChurnEventKind::kHostJoin) {
        ++alive;
      } else if (alive > kMinHosts && event.host >= 0 && event.host < alive) {
        --alive;
      } else {
        continue;  // A drain below kMinHosts (or of a gone host) never fires.
      }
      events.push_back(event);
      continue;
    }
    if (next_failure >= options.horizon_seconds) {
      break;
    }
    now = next_failure;
    ChurnEvent event;
    event.time = now;
    event.kind = ChurnEventKind::kHostFailure;
    event.host = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(alive)));
    --alive;
    events.push_back(event);
  }
  return events;
}

LiveCluster::LiveCluster(ClusterSpec spec) : spec_(std::move(spec)) {
  ALPA_CHECK_GE(spec_.num_hosts, 1);
}

Status LiveCluster::Apply(const ChurnEvent& event) {
  switch (event.kind) {
    case ChurnEventKind::kHostFailure:
    case ChurnEventKind::kHostDrain: {
      if (event.host < 0 || event.host >= spec_.num_hosts) {
        return Status::InvalidArgument(
            StrFormat("churn event targets host %d of a %d-host cluster", event.host,
                      spec_.num_hosts));
      }
      if (spec_.num_hosts == 1) {
        return Status::Infeasible("removing the last host leaves nothing to plan for");
      }
      spec_ = spec_.WithoutHosts({event.host});
      return Status::Ok();
    }
    case ChurnEventKind::kHostJoin: {
      // A join of the reference generation keeps a homogeneous cluster
      // homogeneous; any other generation forces the per-host overlay.
      if (spec_.host_devices.empty() && !(event.device == spec_.device)) {
        spec_.host_devices.assign(static_cast<size_t>(spec_.num_hosts), spec_.device);
      }
      spec_.num_hosts += 1;
      if (!spec_.host_devices.empty()) {
        spec_.host_devices.push_back(event.device);
      }
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown churn event kind");
}

}  // namespace elastic
}  // namespace alpa
