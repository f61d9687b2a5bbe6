#include "src/solver/grasp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"

namespace alpa {
namespace {

// Base of the per-restart SplitMix64 streams.
constexpr uint64_t kGraspSeed = 0x4752415350ULL;  // "GRASP"
// Restricted-candidate-list width: a choice joins the list when its
// conditioned cost is within kRclAlpha * (max - min) of the minimum.
// 0 = pure greedy (ties still sampled), 1 = uniform over all feasible.
constexpr double kRclAlpha = 0.3;

// Fixed construction order: descending degree (high-degree nodes decided
// first, while the candidate lists are still cheap to condition), ties by
// ascending id. One order for every restart keeps restarts comparable;
// diversification comes from the randomized choice sampling.
std::vector<int> ConstructionOrder(const FlatCore& f) {
  std::vector<int> order(static_cast<size_t>(f.n));
  for (int v = 0; v < f.n; ++v) order[static_cast<size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int da = f.degree(a);
    const int db = f.degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  return order;
}

struct RestartResult {
  std::vector<int> choice;
  double objective = kFlatLarge;
  int64_t evaluations = 0;
};

// One randomized greedy construction + ICM polish, fully determined by
// (f, order, seed).
RestartResult RunRestart(const FlatCore& f, const std::vector<int>& order, uint64_t seed) {
  Rng rng(seed);
  RestartResult r;
  std::vector<int> choice(static_cast<size_t>(f.n), 0);
  std::vector<char> assigned(static_cast<size_t>(f.n), 0);
  std::vector<double> cond;   // Conditioned costs of the current node.
  std::vector<int> rcl;       // Indices in the restricted candidate list.
  std::vector<double> weight; // Sampling weights, parallel to rcl.
  for (int v : order) {
    const int k = f.K(v);
    cond.assign(static_cast<size_t>(k), 0.0);
    const double* row = f.unary.data() + f.off[static_cast<size_t>(v)];
    for (int i = 0; i < k; ++i) cond[static_cast<size_t>(i)] = row[i];
    for (int a = f.arc_off[static_cast<size_t>(v)]; a < f.arc_off[static_cast<size_t>(v) + 1]; ++a) {
      const FlatCore::Arc& arc = f.arcs[static_cast<size_t>(a)];
      if (!assigned[static_cast<size_t>(arc.peer)]) continue;
      const int pc = choice[static_cast<size_t>(arc.peer)];
      for (int i = 0; i < k; ++i) {
        cond[static_cast<size_t>(i)] += f.ArcCost(arc, i, pc);
      }
      r.evaluations += k;
    }
    // Feasible range of the conditioned row.
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    int argmin = 0;
    for (int i = 0; i < k; ++i) {
      const double c = cond[static_cast<size_t>(i)];
      if (c < cond[static_cast<size_t>(argmin)]) argmin = i;
      if (c >= kFlatInfeasible) continue;
      mn = std::min(mn, c);
      mx = std::max(mx, c);
    }
    if (!std::isfinite(mn)) {
      // No feasible choice under the current partial assignment; take the
      // least-bad one and let the ICM polish try to repair the neighbors.
      choice[static_cast<size_t>(v)] = argmin;
      assigned[static_cast<size_t>(v)] = 1;
      continue;
    }
    // Restricted candidate list, sampled cost-weighted: weights fall
    // linearly from 2 (at the conditioned minimum) to 1 (at the list's
    // threshold), so cheap choices are favored but the tail stays alive.
    const double width = mx - mn;
    const double threshold = mn + kRclAlpha * width;
    rcl.clear();
    weight.clear();
    double total = 0.0;
    for (int i = 0; i < k; ++i) {
      const double c = cond[static_cast<size_t>(i)];
      if (c >= kFlatInfeasible || c > threshold) continue;
      const double span = threshold - mn;
      const double w = span > 0.0 ? 1.0 + (threshold - c) / span : 1.0;
      rcl.push_back(i);
      weight.push_back(w);
      total += w;
    }
    int picked = rcl.front();
    if (rcl.size() > 1) {
      double ticket = rng.NextDouble() * total;
      for (size_t j = 0; j < rcl.size(); ++j) {
        ticket -= weight[j];
        if (ticket <= 0.0) {
          picked = rcl[j];
          break;
        }
      }
    }
    choice[static_cast<size_t>(v)] = picked;
    assigned[static_cast<size_t>(v)] = 1;
  }
  // Dirty-worklist local search, shared with the branch & bound's
  // incumbent polish.
  r.choice = FlatIcm(f, std::move(choice));
  r.objective = FlatValue(f, r.choice);
  // The polish cost is not instrumented; charge a flat estimate of two
  // full conditioning sweeps so the portfolio's budget accounting stays a
  // deterministic function of the problem shape.
  for (int v = 0; v < f.n; ++v) {
    r.evaluations += 2LL * f.K(v) * f.degree(v);
  }
  return r;
}

}  // namespace

GraspResult RunGrasp(const FlatCore& f, const GraspOptions& options) {
  ALPA_CHECK_GT(f.n, 0);
  const int restarts = std::max(1, options.restarts);
  const std::vector<int> order = ConstructionOrder(f);

  std::vector<RestartResult> results(static_cast<size_t>(restarts));
  ParallelFor(options.pool, restarts, [&](int64_t r) {
    results[static_cast<size_t>(r)] = RunRestart(f, order, kGraspSeed + static_cast<uint64_t>(r));
  });

  // Deterministic reduce in restart order, first-wins on value ties.
  GraspResult best;
  best.restarts_run = restarts;
  for (const RestartResult& r : results) {
    best.evaluations += r.evaluations;
    if (r.objective < best.objective) {
      best.objective = r.objective;
      best.choice = r.choice;
    }
  }
  if (best.choice.empty() && !results.empty()) {
    best.choice = results.front().choice;
    best.objective = results.front().objective;
  }
  best.feasible = best.objective < kFlatInfeasible;
  return best;
}

}  // namespace alpa
