#include "src/solver/flat_bnb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/solver/flat_core.h"
#include "src/support/thread_pool.h"

namespace alpa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Depth-first search state over one component. Copyable: root-level
// parallel branching clones the initialized state per root choice.
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
  int64_t explored = 0;
  int64_t budget = 0;
  bool aborted = false;

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
  void ScoreVarInto(int v, std::vector<std::pair<double, int>>* scored) const {
    const double* row = cond.data() + f->off[static_cast<size_t>(v)];
    scored->clear();
    for (int i = 0; i < f->K(v); ++i) {
      if (row[i] < kFlatInfeasible) scored->emplace_back(row[i], i);
    }
    std::sort(scored->begin(), scored->end());
  }

  std::vector<std::pair<double, int>> ScoreVar(int v) const {
    std::vector<std::pair<double, int>> scored;
    ScoreVarInto(v, &scored);
    return scored;
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
  // the first descent; Searcher copies (root-parallel branching) copy the
  // buffers along, keeping each clone self-contained.
  std::vector<std::vector<std::pair<double, int>>> scored_stack;
  int depth = 0;

  void Dfs(double cost) {
    if (aborted) return;
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
    ScoreVarInto(v, &scored);
    const double without_v = sum_node_lb - node_lb[static_cast<size_t>(v)];
    for (const auto& [val, i] : scored) {
      // Admissible pre-push bound; later choices only cost more.
      if (cost + val + without_v + sum_edge_min >= best_obj) break;
      if (++explored > budget) {
        aborted = true;
        return;
      }
      const Frame fr = Push(v, i);
      // Tighter post-push bound: neighbor minima now conditioned on i.
      if (cost + val + sum_node_lb + sum_edge_min < best_obj) {
        ++depth;
        Dfs(cost + val);
        --depth;
      }
      Pop(fr, v);
      if (aborted) return;
    }
  }
};

}  // namespace

FlatSearchResult SolveCore(const IlpProblem& core, const FlatSearchOptions& options) {
  FlatSearchResult result;
  result.objective = 0.0;
  if (core.num_nodes() == 0) {
    result.feasible = true;
    return result;
  }
  const FlatCore f = BuildFlatCore(core);
  result.choice.assign(static_cast<size_t>(f.n), 0);

  // The initial incumbent: the ICM-polished per-node argmin start.
  const std::vector<int> start = FlatIcm(f, ArgminStart(f));

  const int64_t budget_per_comp =
      std::max<int64_t>(1, options.budget / static_cast<int64_t>(f.comps.size()));

  Searcher base;
  base.Init(f);
  for (const std::vector<int>& comp : f.comps) {
    base.InitComponent(comp);

    // Component-local incumbent: the start restricted to this component.
    const double inc_val = ComponentValue(f, comp, start);

    // Root-level branching: every surviving root choice becomes an
    // independent search with a fixed budget slice and the incumbent as its
    // only initial bound, so results do not depend on the pool (or on
    // having one at all); the deterministic in-order reduce below keeps
    // first-wins tie behaviour identical to a serial loop.
    const int root = base.SelectVar();
    const std::vector<std::pair<double, int>> scored = base.ScoreVar(root);
    const double without_root = base.sum_node_lb - base.node_lb[static_cast<size_t>(root)];
    std::vector<std::pair<double, int>> tasks;
    for (const auto& t : scored) {
      if (t.first + without_root + base.sum_edge_min >= inc_val) break;
      tasks.push_back(t);
    }

    double comp_obj = inc_val;
    const std::vector<int>* comp_choice_src = &start;
    std::vector<int> comp_choice_owned;
    bool comp_aborted = false;
    double comp_lb = inc_val;

    if (!tasks.empty()) {
      struct TaskResult {
        double obj = kInf;
        std::vector<int> choice;
        bool aborted = false;
        int64_t spent = 0;  // Cumulative expansions across reruns.
      };
      std::vector<TaskResult> task_results(tasks.size());
      std::vector<int64_t> task_budget(
          tasks.size(),
          std::max<int64_t>(1, budget_per_comp / static_cast<int64_t>(tasks.size())));
      std::vector<size_t> pending(tasks.size());
      for (size_t t = 0; t < tasks.size(); ++t) pending[t] = t;
      double round_inc = inc_val;

      // Budget redistribution: after the even first-round split, branches
      // left aborted rerun with their old slice plus an equal share of the
      // budget the finished branches left unused (and with the tightest
      // incumbent found so far). Every round is a barrier reduced in index
      // order and each branch is a deterministic function of its (budget,
      // incumbent), so results stay bit-identical for any thread count.
      constexpr int kMaxRounds = 4;
      for (int round = 0; round < kMaxRounds && !pending.empty(); ++round) {
        ParallelFor(options.pool, static_cast<int64_t>(pending.size()), [&](int64_t pi) {
          const size_t t = pending[static_cast<size_t>(pi)];
          Searcher s = base;
          s.budget = task_budget[t];
          s.explored = 1;  // The root push below.
          s.best_obj = round_inc;
          const auto [val, i] = tasks[t];
          s.Push(root, i);
          if (val + s.sum_node_lb + s.sum_edge_min < s.best_obj) {
            s.Dfs(val);
          }
          TaskResult& r = task_results[t];
          // A rerun under a tighter incumbent may find nothing below it;
          // keep the earlier round's (obj, choice) pair in that case.
          // Updating obj alone would stamp the cross-branch incumbent
          // onto this branch's stale choice, and the first-wins reduce
          // below could then report an objective the stored choice does
          // not actually achieve.
          if (!s.best_choice.empty()) {
            r.obj = s.best_obj;
            r.choice = std::move(s.best_choice);
          }
          r.spent += s.explored;
          r.aborted = s.aborted;
        });
        std::vector<size_t> still_aborted;
        int64_t total_spent = 0;
        for (size_t t = 0; t < tasks.size(); ++t) {
          round_inc = std::min(round_inc, task_results[t].obj);
          total_spent += task_results[t].spent;
          if (task_results[t].aborted) still_aborted.push_back(t);
        }
        pending = std::move(still_aborted);
        const int64_t leftover = budget_per_comp - total_spent;
        if (pending.empty() || leftover < static_cast<int64_t>(pending.size())) {
          break;
        }
        const int64_t share = leftover / static_cast<int64_t>(pending.size());
        for (size_t t : pending) {
          task_budget[t] += share;
        }
      }

      for (size_t t = 0; t < task_results.size(); ++t) {
        result.explored += task_results[t].spent;
        comp_aborted = comp_aborted || task_results[t].aborted;
        if (task_results[t].obj < comp_obj && !task_results[t].choice.empty()) {
          comp_obj = task_results[t].obj;
          comp_choice_owned = task_results[t].choice;
          comp_choice_src = &comp_choice_owned;
        }
      }
      // Anytime bound: a finished branch proved its subtree holds nothing
      // better than comp_obj; an aborted branch is only bounded below by
      // its root pre-push bound. Root choices pruned from `tasks` had
      // bounds >= inc_val >= comp_obj, so they never lower it.
      comp_lb = comp_obj;
      for (size_t t = 0; t < task_results.size(); ++t) {
        if (task_results[t].aborted) {
          comp_lb = std::min(
              comp_lb, tasks[t].first + without_root + base.sum_edge_min);
        }
      }
    }

    for (int v : comp) {
      result.choice[static_cast<size_t>(v)] = (*comp_choice_src)[static_cast<size_t>(v)];
    }
    result.objective += comp_obj;
    result.aborted = result.aborted || comp_aborted;
    result.lower_bound += std::min(comp_lb, comp_obj);
  }
  result.feasible = result.objective < kFlatInfeasible;
  if (result.aborted && result.feasible && result.lower_bound >= result.objective) {
    // The budget ran out, but the proven bound already meets the incumbent:
    // the incumbent is optimal, no further search could improve it. Common
    // once the diffusion bound is tight — the search finds the optimum
    // early and burns the rest of its budget failing to beat it.
    result.aborted = false;
  }
  if (!result.aborted || !result.feasible) {
    result.lower_bound = result.objective;
  }
  return result;
}

}  // namespace alpa
