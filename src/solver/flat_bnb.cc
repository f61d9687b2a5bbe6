#include "src/solver/flat_bnb.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/solver/flat_core.h"

namespace alpa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Depth-first search state, reused across the components of one core.
struct Searcher {
  const FlatCore* f = nullptr;
  const std::vector<int>* nodes = nullptr;  // Current component, ids ascending.

  // cond[off[v] + i]: unary[v][i] plus the matrix rows of every assigned
  // neighbor of v — the exact incremental cost of assigning v := i now.
  std::vector<double> cond;
  std::vector<char> assigned;
  std::vector<int> choice;
  std::vector<double> node_lb;  // min of cond row (valid while unassigned).
  // Gap between the best and second-best cond entries (valid while
  // unassigned); maintained incrementally in Push/Pop like node_lb so
  // SelectVar is O(nodes) instead of O(nodes * choices).
  std::vector<double> regret;
  double sum_node_lb = 0.0;     // Over unassigned nodes of the component.
  double sum_edge_min = 0.0;    // Over edges with both endpoints unassigned.
  int unassigned = 0;

  double best_obj = kInf;
  std::vector<int> best_choice;
  int64_t explored = 0;  // Expanded nodes; never exceeds `budget`.
  int64_t budget = 0;
  bool aborted = false;
  // On an abort: the pre-push bound of the root choice the budget cut off.
  // Root choices run in ascending bound order, so it bounds every subtree
  // the search left unexplored.
  double abort_bound = kInf;

  // Undo stacks: Pop restores neighbor cond rows by copy and the scalar
  // sums from frame-saved values (running-sum arithmetic undo would drift
  // in floating point).
  struct UndoRec {
    int node = 0;
    double old_lb = 0.0;
    double old_regret = 0.0;
  };
  std::vector<UndoRec> undo;
  std::vector<double> undo_cond;

  struct Frame {
    size_t undo_mark = 0;
    size_t cond_mark = 0;
    double saved_sum_node_lb = 0.0;
    double saved_sum_edge_min = 0.0;
  };

  // Best and second-best of a cond row; regret as used by SelectVar.
  static double RowRegret(const double* row, int k) {
    if (k == 1) {
      return std::numeric_limits<double>::max();
    }
    double m1 = kInf, m2 = kInf;
    for (int i = 0; i < k; ++i) {
      if (row[i] < m1) {
        m2 = m1;
        m1 = row[i];
      } else if (row[i] < m2) {
        m2 = row[i];
      }
    }
    return m2 - m1;
  }

  void Init(const FlatCore& flat) {
    f = &flat;
    cond.assign(flat.unary.begin(), flat.unary.end());
    assigned.assign(static_cast<size_t>(flat.n), 0);
    choice.assign(static_cast<size_t>(flat.n), 0);
    node_lb.assign(static_cast<size_t>(flat.n), 0.0);
    regret.assign(static_cast<size_t>(flat.n), 0.0);
  }

  void InitComponent(const std::vector<int>& comp) {
    nodes = &comp;
    unassigned = static_cast<int>(comp.size());
    sum_node_lb = 0.0;
    sum_edge_min = 0.0;
    for (int v : comp) {
      const int ov = f->off[static_cast<size_t>(v)];
      double mn = kInf;
      for (int i = 0; i < f->K(v); ++i) {
        // Reset in case a previous component's search left residue.
        cond[static_cast<size_t>(ov + i)] = f->unary[static_cast<size_t>(ov + i)];
        mn = std::min(mn, cond[static_cast<size_t>(ov + i)]);
      }
      node_lb[static_cast<size_t>(v)] = mn;
      regret[static_cast<size_t>(v)] = RowRegret(cond.data() + ov, f->K(v));
      sum_node_lb += mn;
      for (int a = f->arc_off[static_cast<size_t>(v)]; a < f->arc_off[static_cast<size_t>(v) + 1]; ++a) {
        const FlatCore::Arc& arc = f->arcs[static_cast<size_t>(a)];
        if (arc.peer > v) sum_edge_min += f->edge_min[static_cast<size_t>(arc.edge)];
      }
    }
    best_obj = kInf;
    best_choice.clear();
    explored = 0;
    aborted = false;
    undo.clear();
    undo_cond.clear();
  }

  // Max-regret variable selection: the unassigned node whose best and
  // second-best conditioned costs are farthest apart is decided first
  // (single-choice nodes immediately). Ties keep the lowest node id.
  int SelectVar() const {
    int v = -1;
    double best_regret = -1.0;
    for (int w : *nodes) {
      if (assigned[static_cast<size_t>(w)]) continue;
      if (regret[static_cast<size_t>(w)] > best_regret) {
        best_regret = regret[static_cast<size_t>(w)];
        v = w;
      }
    }
    return v;
  }

  // Choices of v in ascending conditioned cost (stable on ties via the
  // index in the pair). Values at or above the infeasibility threshold are
  // dropped: they can never be part of a feasible assignment.
  void ScoreVar(int v, std::vector<std::pair<double, int>>* scored) const {
    const double* row = cond.data() + f->off[static_cast<size_t>(v)];
    scored->clear();
    for (int i = 0; i < f->K(v); ++i) {
      if (row[i] < kFlatInfeasible) scored->emplace_back(row[i], i);
    }
    std::sort(scored->begin(), scored->end());
  }

  Frame Push(int v, int c) {
    Frame fr{undo.size(), undo_cond.size(), sum_node_lb, sum_edge_min};
    for (int a = f->arc_off[static_cast<size_t>(v)]; a < f->arc_off[static_cast<size_t>(v) + 1]; ++a) {
      const FlatCore::Arc& arc = f->arcs[static_cast<size_t>(a)];
      const int w = arc.peer;
      if (assigned[static_cast<size_t>(w)]) continue;
      const int ow = f->off[static_cast<size_t>(w)];
      const int kw = f->K(w);
      undo.push_back(
          UndoRec{w, node_lb[static_cast<size_t>(w)], regret[static_cast<size_t>(w)]});
      undo_cond.insert(undo_cond.end(), cond.begin() + ow, cond.begin() + ow + kw);
      const double* row = f->arena.data() + arc.base + static_cast<int64_t>(c) * kw;
      double* cw = cond.data() + ow;
      double m1 = kInf, m2 = kInf;
      for (int i = 0; i < kw; ++i) {
        cw[i] += row[i];
        if (cw[i] < m1) {
          m2 = m1;
          m1 = cw[i];
        } else if (cw[i] < m2) {
          m2 = cw[i];
        }
      }
      sum_node_lb += m1 - node_lb[static_cast<size_t>(w)];
      node_lb[static_cast<size_t>(w)] = m1;
      regret[static_cast<size_t>(w)] =
          kw == 1 ? std::numeric_limits<double>::max() : m2 - m1;
      sum_edge_min -= f->edge_min[static_cast<size_t>(arc.edge)];
    }
    assigned[static_cast<size_t>(v)] = 1;
    choice[static_cast<size_t>(v)] = c;
    sum_node_lb -= node_lb[static_cast<size_t>(v)];
    --unassigned;
    return fr;
  }

  void Pop(const Frame& fr, int v) {
    ++unassigned;
    assigned[static_cast<size_t>(v)] = 0;
    size_t cpos = undo_cond.size();
    for (size_t r = undo.size(); r > fr.undo_mark; --r) {
      const UndoRec& u = undo[r - 1];
      const int ow = f->off[static_cast<size_t>(u.node)];
      const int kw = f->K(u.node);
      cpos -= static_cast<size_t>(kw);
      std::copy(undo_cond.begin() + static_cast<int64_t>(cpos),
                undo_cond.begin() + static_cast<int64_t>(cpos) + kw, cond.begin() + ow);
      node_lb[static_cast<size_t>(u.node)] = u.old_lb;
      regret[static_cast<size_t>(u.node)] = u.old_regret;
    }
    undo.resize(fr.undo_mark);
    undo_cond.resize(fr.cond_mark);
    sum_node_lb = fr.saved_sum_node_lb;
    sum_edge_min = fr.saved_sum_edge_min;
  }

  // Per-depth scoring scratch so the hot Dfs path never allocates after
  // the first descent.
  std::vector<std::vector<std::pair<double, int>>> scored_stack;
  int depth = 0;

  void Dfs(double cost) {
    if (unassigned == 0) {
      if (cost < best_obj) {
        best_obj = cost;
        best_choice = choice;
      }
      return;
    }
    const int v = SelectVar();
    if (depth >= static_cast<int>(scored_stack.size())) {
      scored_stack.resize(static_cast<size_t>(depth) + 1);
    }
    std::vector<std::pair<double, int>>& scored = scored_stack[static_cast<size_t>(depth)];
    ScoreVar(v, &scored);
    const double without_v = sum_node_lb - node_lb[static_cast<size_t>(v)];
    for (const auto& [val, i] : scored) {
      // Admissible pre-push bound; later choices only cost more.
      const double bound = cost + val + without_v + sum_edge_min;
      if (bound >= best_obj) break;
      if (explored == budget) {
        aborted = true;
      } else {
        ++explored;
        const Frame fr = Push(v, i);
        // Tighter post-push bound: neighbor minima now conditioned on i.
        if (cost + val + sum_node_lb + sum_edge_min < best_obj) {
          ++depth;
          Dfs(cost + val);
          --depth;
        }
        Pop(fr, v);
      }
      if (aborted) {
        if (depth == 0) abort_bound = bound;
        return;
      }
    }
  }
};

}  // namespace

FlatSearchResult SolveCore(const IlpProblem& core, int64_t budget) {
  FlatSearchResult result;
  result.objective = 0.0;
  if (core.num_nodes() == 0) {
    result.feasible = true;
    return result;
  }
  const FlatCore f = BuildFlatCore(core);
  // The initial incumbent: the ICM-polished per-node argmin start.
  result.choice = FlatIcm(f, ArgminStart(f));

  Searcher s;
  s.Init(f);
  s.budget = budget / static_cast<int64_t>(f.comps.size());
  for (const std::vector<int>& comp : f.comps) {
    s.InitComponent(comp);
    // Component-local incumbent: the start restricted to this component.
    s.best_obj = ComponentValue(f, comp, result.choice);
    s.Dfs(0.0);
    if (!s.best_choice.empty()) {
      for (int v : comp) {
        result.choice[static_cast<size_t>(v)] = s.best_choice[static_cast<size_t>(v)];
      }
    }
    result.objective += s.best_obj;
    result.explored += s.explored;
    result.aborted = result.aborted || s.aborted;
    result.lower_bound += s.aborted ? std::min(s.best_obj, s.abort_bound) : s.best_obj;
  }
  result.feasible = result.objective < kFlatInfeasible;
  if (result.aborted && result.feasible && result.lower_bound >= result.objective) {
    // The budget ran out, but the proven bound already meets the incumbent:
    // the incumbent is optimal, no further search could improve it.
    result.aborted = false;
  }
  if (!result.aborted || !result.feasible) {
    result.lower_bound = result.objective;
  }
  return result;
}

}  // namespace alpa
