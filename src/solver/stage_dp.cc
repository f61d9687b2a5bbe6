#include "src/solver/stage_dp.h"

#include <algorithm>
#include <cmath>

#include "src/support/logging.h"
#include "src/support/trace.h"

namespace alpa {

namespace {

// Minimum spacing of enumerated t_max values (the epsilon of 5.2).
constexpr double kTmaxEpsilon = 1e-6;

struct DpTables {
  // f[s][k][d]: min sum of stage latencies slicing layers [k, L) into s
  // stages on exactly d devices, each stage latency <= t_max and memory
  // feasible. choice packs (end_layer, shape_index).
  std::vector<double> f;
  std::vector<int> choice_end;
  std::vector<int> choice_shape;
  int num_layers = 0;
  int num_devices = 0;
  int max_stages = 0;

  size_t Index(int s, int k, int d) const {
    return (static_cast<size_t>(s) * static_cast<size_t>(num_layers + 1) +
            static_cast<size_t>(k)) *
               static_cast<size_t>(num_devices + 1) +
           static_cast<size_t>(d);
  }
};

}  // namespace

StageDpResult SolveStageDp(int num_layers, int num_microbatches, const ClusterSpec& cluster,
                           const std::vector<SubmeshShape>& shapes, const StageProfileFn& profile,
                           const StageDpOptions& options) {
  ALPA_CHECK_GT(num_layers, 0);
  ALPA_CHECK_GT(num_microbatches, 0);
  ALPA_CHECK(!shapes.empty());

  const int total_devices = cluster.num_devices();
  const double device_memory = options.device_memory_override > 0.0
                                   ? options.device_memory_override
                                   : cluster.device.memory_bytes;
  const int max_stages = std::min(num_layers, total_devices);

  StageDpResult result;

  // Cache all profiles once: they are reused across every t_max pass.
  const int num_shapes = static_cast<int>(shapes.size());
  std::vector<StageProfile> profiles(static_cast<size_t>(num_layers) *
                                     static_cast<size_t>(num_layers) *
                                     static_cast<size_t>(num_shapes));
  auto profile_index = [&](int begin, int end, int shape) {
    return (static_cast<size_t>(begin) * static_cast<size_t>(num_layers) +
            static_cast<size_t>(end)) *
               static_cast<size_t>(num_shapes) +
           static_cast<size_t>(shape);
  };
  // Effective stage cost: per-microbatch latency, the amortized share of the
  // once-per-iteration gradient sync, and a vanishing memory tiebreak that
  // prefers the memory-lean variant among equal-time ones. Candidates and
  // transitions MUST use the same formula.
  const auto effective = [num_microbatches](const StageProfile& p) {
    return p.t_intra + p.t_per_iteration / static_cast<double>(num_microbatches) +
           1e-18 * (p.weight_bytes + p.act_bytes_per_microbatch);
  };
  // Fill the profile table and collect the t_max candidates in one pass.
  std::vector<double> tmax_candidates;
  {
    TraceSpan precompute_span("dp_profile_precompute");
    for (int begin = 0; begin < num_layers; ++begin) {
      for (int end = begin; end < num_layers; ++end) {
        for (int shape = 0; shape < num_shapes; ++shape) {
          const StageProfile& p = profiles[profile_index(begin, end, shape)] =
              profile(begin, end, shape);
          if (std::isfinite(p.t_intra)) {
            tmax_candidates.push_back(effective(p));
          }
        }
      }
    }
  }
  if (tmax_candidates.empty()) {
    return result;  // No feasible stage at all.
  }
  std::sort(tmax_candidates.begin(), tmax_candidates.end());
  if (options.max_tmax_candidates > 0 &&
      static_cast<int>(tmax_candidates.size()) > options.max_tmax_candidates) {
    if (options.max_tmax_candidates == 1) {
      // Single slot: keep only the largest candidate. Any smaller threshold
      // could rule out every slicing and report a solvable problem
      // infeasible; the largest keeps exactly the unconstrained-t_max DP.
      tmax_candidates = {tmax_candidates.back()};
    } else {
      std::vector<double> sampled;
      sampled.reserve(static_cast<size_t>(options.max_tmax_candidates));
      const double step = static_cast<double>(tmax_candidates.size() - 1) /
                          (options.max_tmax_candidates - 1);
      for (int i = 0; i < options.max_tmax_candidates; ++i) {
        sampled.push_back(
            tmax_candidates[static_cast<size_t>(static_cast<double>(i) * step + 0.5)]);
      }
      tmax_candidates = std::move(sampled);
    }
  }

  DpTables dp;
  dp.num_layers = num_layers;
  dp.num_devices = total_devices;
  dp.max_stages = max_stages;
  const size_t table_size = static_cast<size_t>(max_stages + 1) *
                            static_cast<size_t>(num_layers + 1) *
                            static_cast<size_t>(total_devices + 1);
  dp.f.resize(table_size);
  dp.choice_end.resize(table_size);
  dp.choice_shape.resize(table_size);

  double last_tmax = -kInfCost;
  for (double tmax : tmax_candidates) {
    if (tmax - last_tmax < kTmaxEpsilon) {
      continue;  // Optimization #1b: skip near-duplicate thresholds.
    }
    last_tmax = tmax;
    ++result.num_tmax_tried;
    // Optimization #1a: larger t_max cannot beat the incumbent once
    // (B-1) * t_max alone exceeds it.
    if (result.feasible && (num_microbatches - 1) * tmax >= result.total_latency) {
      break;
    }

    std::fill(dp.f.begin(), dp.f.end(), kInfCost);
    // Base case: zero layers left, zero stages, zero devices.
    dp.f[dp.Index(0, num_layers, 0)] = 0.0;

    for (int k = num_layers - 1; k >= 0; --k) {
      for (int s = 1; s <= max_stages; ++s) {
        for (int end = k; end < num_layers; ++end) {
          for (int shape = 0; shape < num_shapes; ++shape) {
            const StageProfile& p = profiles[profile_index(k, end, shape)];
            const double t_eff = effective(p);
            // Epsilon tolerance pairs with the candidate skip above and
            // keeps the B*epsilon optimality bound of 5.2.
            if (!(t_eff <= tmax + kTmaxEpsilon)) {
              continue;
            }
            // The stage being placed is the s-th from the pipeline end, so
            // it keeps s in-flight microbatch activations (1F1B).
            if (p.weight_bytes + static_cast<double>(s) * p.act_bytes_per_microbatch +
                    p.work_bytes >
                device_memory) {
              continue;
            }
            const int stage_devices = shapes[static_cast<size_t>(shape)].num_devices();
            for (int d = stage_devices; d <= total_devices; ++d) {
              ++result.dp_transitions;
              const double rest = dp.f[dp.Index(s - 1, end + 1, d - stage_devices)];
              if (!std::isfinite(rest)) {
                continue;
              }
              const size_t idx = dp.Index(s, k, d);
              if (t_eff + rest < dp.f[idx]) {
                dp.f[idx] = t_eff + rest;
                dp.choice_end[idx] = end;
                dp.choice_shape[idx] = shape;
              }
            }
          }
        }
      }
    }

    // Eq. 4: min over stage counts, requiring all devices be used.
    for (int s = 1; s <= max_stages; ++s) {
      const double sum_latency = dp.f[dp.Index(s, 0, total_devices)];
      if (!std::isfinite(sum_latency)) {
        continue;
      }
      // Reconstruct to obtain the realized max stage latency (<= tmax).
      std::vector<StageAssignment> stages;
      double realized_max = 0.0;
      int k = 0;
      int d = total_devices;
      int remaining = s;
      bool ok = true;
      while (k < num_layers) {
        const size_t idx = dp.Index(remaining, k, d);
        if (!std::isfinite(dp.f[idx])) {
          ok = false;
          break;
        }
        const int end = dp.choice_end[idx];
        const int shape = dp.choice_shape[idx];
        const StageProfile& p = profiles[profile_index(k, end, shape)];
        stages.push_back(StageAssignment{k, end, shape, p.t_intra});
        realized_max = std::max(
            realized_max,
            p.t_intra + p.t_per_iteration / static_cast<double>(num_microbatches));
        d -= shapes[static_cast<size_t>(shape)].num_devices();
        k = end + 1;
        --remaining;
      }
      if (!ok || remaining != 0 || d != 0) {
        continue;
      }
      const double total =
          sum_latency + static_cast<double>(num_microbatches - 1) * realized_max;
      if (total < result.total_latency) {
        result.feasible = true;
        result.total_latency = total;
        result.stage_latency_sum = sum_latency;
        result.max_stage_latency = realized_max;
        result.stages = std::move(stages);
      }
    }
  }
  static Metric* transitions_metric = Metrics::Get("stage_dp/transitions");
  transitions_metric->Add(result.dp_transitions);
  static Metric* tmax_metric = Metrics::Get("stage_dp/tmax_candidates");
  tmax_metric->Add(result.num_tmax_tried);
  return result;
}

}  // namespace alpa
