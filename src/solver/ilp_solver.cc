#include "src/solver/ilp_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/solver/flat_bnb.h"
#include "src/solver/ilp_presolve.h"
#include "src/support/hashing.h"
#include "src/support/logging.h"
#include "src/support/trace.h"

namespace alpa {

CostMatrix::CostMatrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(static_cast<int>(rows.size())),
      cols_(rows.size() == 0 ? 0 : static_cast<int>(rows.begin()->size())) {
  cells_.reserve(static_cast<size_t>(rows_) * static_cast<size_t>(cols_));
  for (const std::initializer_list<double>& row : rows) {
    ALPA_CHECK_EQ(static_cast<int>(row.size()), cols_) << "ragged cost matrix literal";
    cells_.insert(cells_.end(), row.begin(), row.end());
  }
}

void CostMatrix::Keep(const std::vector<int>& rows, const std::vector<int>& cols) {
  const int kept_rows = rows.empty() ? rows_ : static_cast<int>(rows.size());
  const int kept_cols = cols.empty() ? cols_ : static_cast<int>(cols.size());
  // Kept indices ascend, so every cell moves to an index at or below its
  // own and the row-major compaction never reads a cell it already wrote.
  size_t out = 0;
  for (int r = 0; r < kept_rows; ++r) {
    const double* src = row(rows.empty() ? r : rows[static_cast<size_t>(r)]);
    for (int c = 0; c < kept_cols; ++c) {
      cells_[out++] = src[cols.empty() ? c : cols[static_cast<size_t>(c)]];
    }
  }
  cells_.resize(out);
  rows_ = kept_rows;
  cols_ = kept_cols;
}

double IlpProblem::Evaluate(const std::vector<int>& choice) const {
  ALPA_CHECK_EQ(static_cast<int>(choice.size()), num_nodes());
  double total = 0.0;
  for (int v = 0; v < num_nodes(); ++v) {
    total += node_costs[static_cast<size_t>(v)][static_cast<size_t>(choice[static_cast<size_t>(v)])];
  }
  for (const Edge& e : edges) {
    total += e.cost.at(choice[static_cast<size_t>(e.u)], choice[static_cast<size_t>(e.v)]);
  }
  return total;
}

double IlpSolution::optimality_gap() const {
  if (optimal || !feasible || !std::isfinite(objective)) {
    return 0.0;
  }
  // A relative gap is meaningless at zero or negative objectives (all-zero
  // cost plateaus, reward-shifted test instances): dividing would produce
  // garbage ratios or sign flips, so report 0 rather than divide.
  if (objective <= 0.0) {
    return 0.0;
  }
  const double gap = objective - lower_bound;
  if (gap <= 0.0) {
    return 0.0;
  }
  return gap / objective;
}

void IlpProblem::Validate() const {
  for (int v = 0; v < num_nodes(); ++v) {
    ALPA_CHECK_GT(num_choices(v), 0) << "node " << v << " has no choices";
  }
  for (const Edge& e : edges) {
    ALPA_CHECK_GE(e.u, 0);
    ALPA_CHECK_LT(e.u, num_nodes());
    ALPA_CHECK_GE(e.v, 0);
    ALPA_CHECK_LT(e.v, num_nodes());
    ALPA_CHECK_NE(e.u, e.v);
    ALPA_CHECK_EQ(e.cost.rows(), num_choices(e.u));
    ALPA_CHECK_EQ(e.cost.cols(), num_choices(e.v));
  }
}

namespace {

// Process-wide memo of core solves. The stage profiler solves the same
// presolved core many times across mesh variants whose differences folded
// away in presolve; the key covers everything the core search depends on
// (core fingerprint and budget), so a hit is exact. Cleared by
// IlpMemoCache::Clear() via ClearIlpCoreMemo().
struct CoreEntry {
  std::vector<int> choice;  // Core-compact.
  bool aborted = false;
  int64_t explored = 0;
  // Core-space (clamped) lower bound from the search; only meaningful
  // when `aborted` (a completed search proves optimality instead).
  double lower_bound = 0.0;
};

struct CoreMemo {
  std::mutex mu;
  std::unordered_map<uint64_t, CoreEntry> entries;
};

CoreMemo& GlobalCoreMemo() {
  static CoreMemo* memo = new CoreMemo();
  return *memo;
}

constexpr size_t kCoreMemoCap = 65536;

void RecordPresolveMetrics(const IlpProblem& raw, const PresolvedProblem& pre) {
  static Metric* nodes_in = Metrics::Get("ilp/presolve/nodes_in");
  static Metric* nodes_out = Metrics::Get("ilp/presolve/nodes_out");
  static Metric* choices_in = Metrics::Get("ilp/presolve/choices_in");
  static Metric* choices_out = Metrics::Get("ilp/presolve/choices_out");
  static Metric* edges_in = Metrics::Get("ilp/presolve/edges_in");
  static Metric* edges_out = Metrics::Get("ilp/presolve/edges_out");
  static Metric* merged = Metrics::Get("ilp/presolve/parallel_edges_merged");
  static Metric* eliminated = Metrics::Get("ilp/presolve/choices_eliminated");
  static Metric* folded = Metrics::Get("ilp/presolve/nodes_folded");
  static Metric* edges_folded = Metrics::Get("ilp/presolve/edges_folded");
  int64_t raw_choices = 0;
  for (const auto& costs : raw.node_costs) raw_choices += static_cast<int64_t>(costs.size());
  int64_t core_choices = 0;
  for (const auto& costs : pre.core.node_costs) core_choices += static_cast<int64_t>(costs.size());
  nodes_in->Add(raw.num_nodes());
  nodes_out->Add(pre.core.num_nodes());
  choices_in->Add(raw_choices);
  choices_out->Add(core_choices);
  edges_in->Add(static_cast<int64_t>(raw.edges.size()));
  edges_out->Add(static_cast<int64_t>(pre.core.edges.size()));
  merged->Add(pre.stats.parallel_edges_merged);
  eliminated->Add(pre.stats.choices_eliminated);
  folded->Add(pre.stats.nodes_folded);
  edges_folded->Add(pre.stats.edges_folded);
}

void RecordOutcomeMetrics(const IlpSolution& solution) {
  static Metric* optimal = Metrics::Get("ilp/outcome/optimal");
  static Metric* aborted = Metrics::Get("ilp/outcome/aborted");
  static Metric* explored = Metrics::Get("ilp/outcome/explored");
  static Metric* gap_sum = Metrics::Get("ilp/outcome/gap_ppm_sum");
  static Metric* gap_max = Metrics::Get("ilp/outcome/gap_ppm_max");
  (solution.optimal ? optimal : aborted)->Add(1);
  explored->Add(solution.nodes_explored);
  if (!solution.optimal && solution.feasible) {
    // Gaps in parts-per-million: integral metrics, with the per-solve max
    // surviving as the metric's high-water mark (Metrics::MaxValue).
    const int64_t ppm = static_cast<int64_t>(std::llround(solution.optimality_gap() * 1e6));
    gap_sum->Add(ppm);
    gap_max->Set(ppm);
  }
}

}  // namespace

void ClearIlpCoreMemo() {
  CoreMemo& memo = GlobalCoreMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  memo.entries.clear();
}

IlpSolution IlpSolver::Solve(const IlpProblem& raw) const {
  raw.Validate();
  if (raw.num_nodes() == 0) {
    IlpSolution empty;
    empty.objective = 0.0;
    empty.optimal = true;
    empty.feasible = true;
    empty.method = "empty";
    return empty;
  }

  static Metric* presolve_micros = Metrics::Get("ilp/presolve/micros");
  static Metric* bnb_micros = Metrics::Get("ilp/bnb/micros");
  const auto pre_t0 = std::chrono::steady_clock::now();
  const PresolvedProblem pre = Presolve(raw);
  presolve_micros->Add(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - pre_t0)
                           .count());
  RecordPresolveMetrics(raw, pre);
  if (pre.infeasible) {
    IlpSolution infeasible;
    infeasible.method = "presolve";
    return infeasible;  // Some node has no feasible choice.
  }

  static Metric* dp_path = Metrics::Get("ilp/path/dp");
  static Metric* search_path = Metrics::Get("ilp/path/search");
  static Metric* memo_hits = Metrics::Get("ilp/core_memo/hits");
  static Metric* memo_misses = Metrics::Get("ilp/core_memo/misses");

  IlpSolution solution;
  if (pre.core.num_nodes() == 0) {
    // The whole problem folded away: chains, trees, and dominance-decided
    // graphs are solved exactly by presolve alone.
    dp_path->Add(1);
    solution.choice = pre.Reconstruct({});
    solution.objective = raw.Evaluate(solution.choice);
    solution.feasible = std::isfinite(solution.objective);
    solution.optimal = solution.feasible;
    solution.lower_bound = solution.objective;
    solution.method = "dp-forest";
    return solution;
  }

  // Search results depend on the budget (ties and incumbents on aborts),
  // so the memo key covers it next to the core.
  static Metric* key_micros = Metrics::Get("ilp/core_memo/key_micros");
  const auto key_t0 = std::chrono::steady_clock::now();
  const uint64_t key =
      WordHash64().U64(IlpProblemFingerprint(pre.core)).I64(options_.max_search_nodes).hash();
  key_micros->Add(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - key_t0)
                      .count());
  CoreEntry entry;
  bool have_entry = false;
  {
    CoreMemo& memo = GlobalCoreMemo();
    std::lock_guard<std::mutex> lock(memo.mu);
    const auto it = memo.entries.find(key);
    if (it != memo.entries.end()) {
      entry = it->second;
      have_entry = true;
      memo_hits->Add(1);
    } else {
      memo_misses->Add(1);
    }
  }

  if (!have_entry) {
    // Times the flat-core build, its diffusion and the search together.
    const auto bnb_t0 = std::chrono::steady_clock::now();
    FlatSearchResult res = SolveCore(pre.core, std::max<int64_t>(1, options_.max_search_nodes));
    bnb_micros->Add(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - bnb_t0)
                        .count());
    entry.choice = std::move(res.choice);
    entry.aborted = res.aborted;
    entry.explored = res.explored;
    entry.lower_bound = res.lower_bound;
    CoreMemo& memo = GlobalCoreMemo();
    std::lock_guard<std::mutex> lock(memo.mu);
    if (memo.entries.size() < kCoreMemoCap) {
      memo.entries.emplace(key, entry);
    }
  }

  search_path->Add(1);
  solution.choice = pre.Reconstruct(entry.choice);
  solution.objective = raw.Evaluate(solution.choice);
  solution.nodes_explored = entry.explored;
  // Anytime bound, lifted from core space to raw space. Presolve folds
  // carry a constant offset between the core objective and the raw
  // objective of the reconstructed assignment, so the same offset lifts
  // the core lower bound.
  double raw_lb = solution.objective;
  if (entry.aborted && std::isfinite(solution.objective)) {
    const double core_val = pre.core.Evaluate(entry.choice);
    if (std::isfinite(core_val)) {
      raw_lb = entry.lower_bound + (solution.objective - core_val);
    }
  }
  solution.feasible = std::isfinite(solution.objective);
  solution.lower_bound = std::min(raw_lb, solution.objective);
  solution.method = entry.aborted ? "search(budget)" : "search";
  solution.optimal = !entry.aborted && solution.feasible;
  RecordOutcomeMetrics(solution);
  return solution;
}

}  // namespace alpa
