#include "src/solver/portfolio.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/solver/anneal.h"
#include "src/solver/grasp.h"
#include "src/support/logging.h"
#include "src/support/trace.h"

namespace alpa {
namespace {

// The shared incumbent: advanced only at round boundaries by deterministic
// reduces, read by the next round as its starting bound/seed.
struct SharedIncumbent {
  std::vector<int> choice;
  double value = kFlatLarge * 2.0;  // Above any clamped assignment value.

  // Returns true when `candidate` strictly improves the incumbent.
  bool Offer(const std::vector<int>& candidate, double candidate_value) {
    if (candidate_value < value) {
      value = candidate_value;
      choice = candidate;
      return true;
    }
    return false;
  }
};

// Cores below these sizes solve in microseconds; skipping the
// metaheuristics keeps the portfolio's overhead at exactly zero there.
// Both gates are functions of (core, budget) only, so the rounds that run
// are deterministic.
constexpr int kMinNodesForMeta = 6;
constexpr int64_t kMinBudgetForMeta = 4096;

// Metaheuristic sizing caps; the actual allocation shrinks with the budget
// so tiny solves stay metaheuristic-free.
constexpr int kMaxGraspRestarts = 24;
constexpr int kSaChains = 4;
constexpr int64_t kMaxSaStepsPerChain = 30'000;

// The metaheuristics are denominated in arena lookups; the branch & bound
// budget is denominated in node expansions. One expansion conditions every
// unassigned neighbor's row, i.e. ~sum_w K(w) over neighbors lookups, so
// S / n (S = sum_v K(v) * degree(v)) converts between the two currencies.
struct BudgetPlan {
  int grasp_restarts = 0;
  int64_t sa_steps_per_chain = 0;
  int64_t meta_node_charge = 0;  // Node-units deducted from the search.
};

BudgetPlan PlanBudget(const FlatCore& f, const PortfolioOptions& options) {
  BudgetPlan plan;
  if (f.n < kMinNodesForMeta || options.budget < kMinBudgetForMeta) {
    return plan;
  }
  int64_t weighted_choices = 0;  // S: arena lookups of one full conditioning sweep.
  int64_t arcs2 = 0;             // 2 * |E|: per-SA-step lookup cost is ~2 * degree.
  for (int v = 0; v < f.n; ++v) {
    weighted_choices += static_cast<int64_t>(f.K(v)) * f.degree(v);
    arcs2 += f.degree(v);
  }
  const int64_t lookups_per_node = std::max<int64_t>(1, weighted_choices / f.n);
  const int64_t avg_step_lookups = std::max<int64_t>(2, 2 * arcs2 / f.n + 2);

  // One restart = construction (~S lookups) + ICM polish (~2S, the flat
  // estimate grasp.cc charges), so ~3S lookups = ~3n node-units.
  const int64_t restart_nodes = std::max<int64_t>(1, 3 * weighted_choices / lookups_per_node);
  const int64_t grasp_alloc = options.budget / 16;
  plan.grasp_restarts = static_cast<int>(std::clamp<int64_t>(
      grasp_alloc / restart_nodes, 0, kMaxGraspRestarts));
  if (plan.grasp_restarts < 2) plan.grasp_restarts = 0;  // Not worth a round.
  plan.meta_node_charge += plan.grasp_restarts * restart_nodes;

  const int64_t sa_alloc_lookups = (options.budget / 16) * lookups_per_node;
  plan.sa_steps_per_chain = std::clamp<int64_t>(
      sa_alloc_lookups / (kSaChains * avg_step_lookups), 0, kMaxSaStepsPerChain);
  if (plan.sa_steps_per_chain < 512) plan.sa_steps_per_chain = 0;
  plan.meta_node_charge +=
      plan.sa_steps_per_chain * kSaChains * avg_step_lookups / lookups_per_node;
  return plan;
}

void RecordMetrics(const PortfolioResult& r) {
  static Metric* races = Metrics::Get("ilp/portfolio/races");
  static Metric* won_grasp = Metrics::Get("ilp/portfolio/won_grasp");
  static Metric* won_sa = Metrics::Get("ilp/portfolio/won_sa");
  static Metric* won_bnb = Metrics::Get("ilp/portfolio/won_bnb");
  static Metric* won_seed = Metrics::Get("ilp/portfolio/won_seed");
  static Metric* handoffs = Metrics::Get("ilp/portfolio/incumbent_handoffs");
  static Metric* prunes = Metrics::Get("ilp/portfolio/bound_prunes");
  static Metric* restarts = Metrics::Get("ilp/portfolio/grasp_restarts");
  static Metric* sa_steps = Metrics::Get("ilp/portfolio/sa_steps");
  races->Add(1);
  switch (r.winner) {
    case PortfolioWinner::kGrasp: won_grasp->Add(1); break;
    case PortfolioWinner::kAnneal: won_sa->Add(1); break;
    case PortfolioWinner::kBnb: won_bnb->Add(1); break;
    case PortfolioWinner::kSeed: won_seed->Add(1); break;
  }
  handoffs->Add(r.incumbent_handoffs);
  prunes->Add(r.bound_prune_events);
  restarts->Add(r.grasp_restarts);
  sa_steps->Add(r.sa_steps);
}

}  // namespace

PortfolioResult SolvePortfolio(const IlpProblem& core, const PortfolioOptions& options) {
  ALPA_CHECK_GT(core.num_nodes(), 0);
  const FlatCore f = BuildFlatCore(core);
  const BudgetPlan plan = PlanBudget(f, options);

  PortfolioResult result;

  if (plan.grasp_restarts == 0 && plan.sa_steps_per_chain == 0) {
    // Trivial or starved core: no metaheuristic round is worth its charge,
    // so the portfolio degenerates to the plain exact search with zero
    // overhead.
    FlatSearchOptions fopt;
    fopt.budget = std::max<int64_t>(1, options.budget);
    fopt.pool = options.pool;
    const FlatSearchResult search = SolveCoreOnFlat(f, fopt);
    result.choice = search.choice;
    result.objective = search.objective;
    result.feasible = search.feasible;
    result.aborted = search.aborted;
    result.lower_bound = search.lower_bound;
    result.explored = search.explored;
    result.bnb_budget = fopt.budget;
    result.bound_prune_events = search.root_branches_pruned;
    result.winner = PortfolioWinner::kBnb;
    RecordMetrics(result);
    return result;
  }

  // Round 1 — the exact probe: branch & bound under the full budget minus
  // the metaheuristic reserve. No round-0 seeding happens before the probe
  // — the search already builds the same ICM-polished argmin start
  // internally, and recomputing it here would double-pay on every race.
  FlatSearchOptions fopt;
  fopt.budget = std::max<int64_t>(1, options.budget - plan.meta_node_charge);
  fopt.pool = options.pool;
  const FlatSearchResult search = SolveCoreOnFlat(f, fopt);

  result.explored = search.explored;
  result.bnb_budget = fopt.budget;
  result.bound_prune_events = search.root_branches_pruned;
  result.lower_bound = search.lower_bound;
  result.aborted = search.aborted;

  if (!search.aborted) {
    // The probe proved optimality — the reserve is never spent, and the
    // portfolio costs nothing over the plain exact search here.
    result.choice = search.choice;
    result.objective = search.objective;
    result.feasible = search.feasible;
    result.winner = PortfolioWinner::kBnb;
    RecordMetrics(result);
    return result;
  }

  // The probe exhausted its share with an open gap: spend the reserve on
  // the metaheuristics. Round 0 happens lazily here — the ICM-polished
  // argmin start reduces into the shared incumbent as the metaheuristic
  // baseline, then the aborted search's own best joins it: the exact side
  // hands the metaheuristics its incumbent, just as they hand theirs back
  // through the final reduce.
  SharedIncumbent incumbent;
  const std::vector<int> base = FlatIcm(f, ArgminStart(f));
  incumbent.Offer(base, FlatValue(f, base));
  const double seed_value = incumbent.value;

  if (search.feasible && incumbent.Offer(search.choice, search.objective)) {
    ++result.incumbent_handoffs;
  }
  const double bnb_value = incumbent.value;

  // Round 2 — GRASP.
  if (plan.grasp_restarts > 0) {
    GraspOptions gopt;
    gopt.restarts = plan.grasp_restarts;
    gopt.pool = options.pool;
    const GraspResult grasp = RunGrasp(f, gopt);
    result.grasp_restarts = grasp.restarts_run;
    if (!grasp.choice.empty() && incumbent.Offer(grasp.choice, grasp.objective)) {
      ++result.incumbent_handoffs;
    }
  }
  const double grasp_value = incumbent.value;

  // Round 3 — simulated annealing, seeded from the shared incumbent.
  if (plan.sa_steps_per_chain > 0) {
    AnnealOptions aopt;
    aopt.chains = kSaChains;
    aopt.steps_per_chain = plan.sa_steps_per_chain;
    aopt.pool = options.pool;
    const AnnealResult sa = RunAnneal(f, incumbent.choice, aopt);
    result.sa_steps = sa.steps;
    if (!sa.choice.empty() && incumbent.Offer(sa.choice, sa.objective)) {
      ++result.incumbent_handoffs;
    }
  }
  const double sa_value = incumbent.value;

  // Final reduce: the best assignment any round produced, paired with the
  // probe's proven lower bound (anytime contract).
  result.choice = incumbent.choice;
  result.objective = incumbent.value;
  result.feasible = incumbent.value < kFlatInfeasible;
  if (result.feasible && result.objective <= result.lower_bound) {
    // A metaheuristic round reached the probe's proven bound: the gap is
    // closed even though the search itself ran out of budget.
    result.aborted = false;
  }
  result.lower_bound = std::min(result.lower_bound, result.objective);

  if (sa_value < grasp_value) {
    result.winner = PortfolioWinner::kAnneal;
  } else if (grasp_value < bnb_value) {
    result.winner = PortfolioWinner::kGrasp;
  } else if (bnb_value < seed_value) {
    result.winner = PortfolioWinner::kBnb;
  } else {
    result.winner = PortfolioWinner::kSeed;
  }
  RecordMetrics(result);
  return result;
}

}  // namespace alpa
