#include "src/solver/anneal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"

namespace alpa {
namespace {

// Base of the per-chain SplitMix64 streams.
constexpr uint64_t kAnnealSeed = 0x414e4e45414cULL;  // "ANNEAL"
// The schedule cools geometrically from T0 (calibrated) down to
// T0 * kFinalTemperatureRatio across the chain's steps.
constexpr double kFinalTemperatureRatio = 1e-4;

// Exact objective change of re-assigning v from its current choice to j,
// given the rest of the assignment.
double MoveDelta(const FlatCore& f, const std::vector<int>& choice, int v, int j) {
  const int cur = choice[static_cast<size_t>(v)];
  const double* row = f.unary.data() + f.off[static_cast<size_t>(v)];
  double delta = row[j] - row[cur];
  for (int a = f.arc_off[static_cast<size_t>(v)]; a < f.arc_off[static_cast<size_t>(v) + 1]; ++a) {
    const FlatCore::Arc& arc = f.arcs[static_cast<size_t>(a)];
    const int pc = choice[static_cast<size_t>(arc.peer)];
    delta += f.ArcCost(arc, j, pc) - f.ArcCost(arc, cur, pc);
  }
  return delta;
}

struct ChainResult {
  std::vector<int> choice;
  double objective = kFlatLarge;
  int64_t accepted = 0;
};

ChainResult RunChain(const FlatCore& f, const std::vector<int>& start, double start_value,
                     uint64_t seed, int64_t steps, const std::vector<int>& movable) {
  Rng rng(seed);
  ChainResult r;
  std::vector<int> current = start;
  double cur_val = start_value;
  r.choice = start;
  r.objective = start_value;

  // Calibrate T0 from the mean |delta| of a deterministic pre-sample:
  // high enough that typical uphill moves start near 50% acceptance.
  // Clamped-infeasible deltas (~1e30) would wreck the mean, so they are
  // skipped; if every sampled move is clamped the start is deep in an
  // infeasible region and a tiny T (pure descent) is the right schedule.
  double abs_sum = 0.0;
  int sampled = 0;
  const int kCalibration = 32;
  for (int s = 0; s < kCalibration; ++s) {
    const int v = movable[static_cast<size_t>(rng.NextBounded(movable.size()))];
    const int k = f.K(v);
    int j = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k - 1)));
    if (j >= current[static_cast<size_t>(v)]) ++j;
    const double d = std::abs(MoveDelta(f, current, v, j));
    if (d < kFlatInfeasible) {
      abs_sum += d;
      ++sampled;
    }
  }
  const double t0 = sampled > 0 ? std::max(abs_sum / sampled, 1e-12) : 1e-12;
  const double rate =
      steps > 1 ? std::pow(kFinalTemperatureRatio, 1.0 / static_cast<double>(steps - 1)) : 1.0;

  double temperature = t0;
  for (int64_t s = 0; s < steps; ++s, temperature *= rate) {
    const int v = movable[static_cast<size_t>(rng.NextBounded(movable.size()))];
    const int k = f.K(v);
    int j = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k - 1)));
    if (j >= current[static_cast<size_t>(v)]) ++j;
    const double delta = MoveDelta(f, current, v, j);
    bool accept = delta <= 0.0;
    if (!accept) {
      // exp underflows well before 700; skip the draw when acceptance is
      // numerically zero (the rng stream stays deterministic either way:
      // consumption is a pure function of the trajectory).
      const double exponent = delta / temperature;
      accept = exponent < 40.0 && rng.NextDouble() < std::exp(-exponent);
    }
    if (!accept) continue;
    current[static_cast<size_t>(v)] = j;
    cur_val += delta;
    ++r.accepted;
    if (cur_val < r.objective) {
      // Re-evaluate from scratch on record improvements: incremental
      // deltas drift in floating point over thousands of accepted moves,
      // and the recorded objective must match the recorded assignment so
      // cross-chain and cross-engine reduces stay exact.
      const double exact = FlatValue(f, current);
      cur_val = exact;
      if (exact < r.objective) {
        r.objective = exact;
        r.choice = current;
      }
    }
  }
  return r;
}

}  // namespace

AnnealResult RunAnneal(const FlatCore& f, const std::vector<int>& start,
                       const AnnealOptions& options) {
  ALPA_CHECK_GT(f.n, 0);
  ALPA_CHECK_EQ(static_cast<int>(start.size()), f.n);
  AnnealResult best;
  best.choice = start;
  best.objective = FlatValue(f, start);

  // Nodes with at least two choices; single-choice nodes cannot move.
  std::vector<int> movable;
  for (int v = 0; v < f.n; ++v) {
    if (f.K(v) > 1) movable.push_back(v);
  }
  if (movable.empty() || options.steps_per_chain <= 0 || options.chains <= 0) {
    best.feasible = best.objective < kFlatInfeasible;
    return best;
  }

  const int chains = options.chains;
  std::vector<ChainResult> results(static_cast<size_t>(chains));
  ParallelFor(options.pool, chains, [&](int64_t c) {
    results[static_cast<size_t>(c)] =
        RunChain(f, start, best.objective, kAnnealSeed + static_cast<uint64_t>(c),
                 options.steps_per_chain, movable);
  });

  // Deterministic reduce in chain order, first-wins on value ties.
  for (const ChainResult& r : results) {
    best.steps += options.steps_per_chain;
    best.accepted += r.accepted;
    if (r.objective < best.objective) {
      best.objective = r.objective;
      best.choice = r.choice;
    }
  }
  best.feasible = best.objective < kFlatInfeasible;
  return best;
}

}  // namespace alpa
