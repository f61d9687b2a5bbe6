#include "src/solver/ilp_presolve.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "src/support/hashing.h"
#include "src/support/logging.h"

namespace alpa {

namespace {

// Working state: matrices stay in the original choice coordinates and
// eliminated choices are masked, so no reindexing happens until the core is
// emitted at the end.
struct Work {
  const IlpProblem* original = nullptr;
  std::vector<std::vector<double>> unary;       // Mutated by folding.
  std::vector<std::vector<char>> choice_alive;  // Per node, per original choice.
  std::vector<IlpProblem::Edge> edges;          // Merged; canonical u < v.
  std::vector<char> edge_alive;
  std::vector<char> node_alive;
  std::vector<std::vector<int>> adj;  // Node -> incident edge ids.
  std::vector<int> degree;            // Count of alive incident edges.
  std::vector<char> dirty;  // Nodes whose dominance inputs changed since last pass.
  PresolvedProblem* out = nullptr;
  // Scratch reused across folds and dominance scans.
  std::vector<int> choices;
  std::vector<double> rows_a, rows_b, partial;
  std::vector<double> lo, hi;

  // Dominance at a node depends on the peers' alive choice sets and the
  // incident edge matrices, so any mutation there re-queues the neighbors.
  void MarkPeersDirty(int v) {
    for (int e : adj[static_cast<size_t>(v)]) {
      if (edge_alive[static_cast<size_t>(e)]) {
        dirty[static_cast<size_t>(Peer(edges[static_cast<size_t>(e)], v))] = 1;
      }
    }
  }

  double Cost(const IlpProblem::Edge& e, int node, int self_choice, int peer_choice) const {
    return node == e.u ? e.cost.at(self_choice, peer_choice) : e.cost.at(peer_choice, self_choice);
  }
  int Peer(const IlpProblem::Edge& e, int node) const { return node == e.u ? e.v : e.u; }
};

// Sums parallel edges into canonical (min, max) oriented matrices via an
// endpoint-pair hash map; O(E) instead of the old O(E^2) linear scan. Each
// raw matrix is read once, row by row: a flipped edge's row r lands in
// column r of its accumulator. Accumulators start at 0.0 and add.
void MergeEdges(const IlpProblem& problem, Work& w) {
  std::unordered_map<uint64_t, int> index;
  index.reserve(problem.edges.size() * 2);
  for (const IlpProblem::Edge& e : problem.edges) {
    const int u = std::min(e.u, e.v);
    const int v = std::max(e.u, e.v);
    const bool flipped = (u != e.u);
    const uint64_t key = (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
    auto [it, inserted] = index.emplace(key, static_cast<int>(w.edges.size()));
    if (inserted) {
      w.edges.push_back(
          IlpProblem::Edge{u, v, CostMatrix(problem.num_choices(u), problem.num_choices(v))});
    } else {
      ++w.out->stats.parallel_edges_merged;
    }
    CostMatrix& acc = w.edges[static_cast<size_t>(it->second)].cost;
    for (int r = 0; r < e.cost.rows(); ++r) {
      const double* src = e.cost.row(r);
      if (flipped) {
        for (int c = 0; c < e.cost.cols(); ++c) {
          acc.at(c, r) += src[c];
        }
      } else {
        double* dst = acc.row(r);
        for (int c = 0; c < e.cost.cols(); ++c) {
          dst[c] += src[c];
        }
      }
    }
  }
}

// Folds the degree-2 node v into a synthesized edge between its two
// neighbors (series reduction): entry (i, j) of the new matrix is v's best
// response given the neighbors pick i and j. The matrix is summed into an
// existing (a, b) edge when one exists so the graph stays simple; otherwise
// a fresh edge is appended. Exact for any costs, including infinities.
void FoldSeriesNode(Work& w, int v) {
  int e1 = -1;
  int e2 = -1;
  for (int e : w.adj[static_cast<size_t>(v)]) {
    if (!w.edge_alive[static_cast<size_t>(e)]) {
      continue;
    }
    (e1 < 0 ? e1 : e2) = e;
  }
  ALPA_CHECK_GE(e2, 0);
  const int a = w.Peer(w.edges[static_cast<size_t>(e1)], v);
  const int b = w.Peer(w.edges[static_cast<size_t>(e2)], v);
  const auto& alive = w.choice_alive[static_cast<size_t>(v)];
  const auto& costs = w.unary[static_cast<size_t>(v)];
  // v's alive choices, ascending. The first is the fallback pick for pairs
  // that have no feasible response.
  std::vector<int>& choices = w.choices;
  choices.clear();
  for (size_t i = 0; i < costs.size(); ++i) {
    if (alive[i]) {
      choices.push_back(static_cast<int>(i));
    }
  }
  ALPA_CHECK(!choices.empty());
  const size_t nc = choices.size();

  // Each edge's costs as one row per neighbor choice over v's alive
  // choices: rows[j * nc + x] is the edge's cost when the neighbor picks j
  // and v picks choices[x], so the best-response scans below read
  // contiguous rows.
  const auto gather = [&](const IlpProblem::Edge& e, std::vector<double>* rows) {
    if (v == e.v) {
      rows->resize(static_cast<size_t>(e.cost.rows()) * nc);
      for (int j = 0; j < e.cost.rows(); ++j) {
        const double* src = e.cost.row(j);
        double* dst = rows->data() + static_cast<size_t>(j) * nc;
        for (size_t x = 0; x < nc; ++x) {
          dst[x] = src[choices[x]];
        }
      }
    } else {
      rows->resize(static_cast<size_t>(e.cost.cols()) * nc);
      for (size_t x = 0; x < nc; ++x) {
        const double* src = e.cost.row(choices[x]);
        for (int j = 0; j < e.cost.cols(); ++j) {
          (*rows)[static_cast<size_t>(j) * nc + x] = src[j];
        }
      }
    }
  };
  gather(w.edges[static_cast<size_t>(e1)], &w.rows_a);
  gather(w.edges[static_cast<size_t>(e2)], &w.rows_b);

  // The folded entries go straight into the (a, b) edge: added to an
  // existing one, or written into a fresh matrix.
  int ab = -1;
  for (int e : w.adj[static_cast<size_t>(a)]) {
    if (w.edge_alive[static_cast<size_t>(e)] &&
        w.Peer(w.edges[static_cast<size_t>(e)], a) == b) {
      ab = e;
      break;
    }
  }
  const int ka = static_cast<int>(w.unary[static_cast<size_t>(a)].size());
  const int kb = static_cast<int>(w.unary[static_cast<size_t>(b)].size());
  const bool a_is_u = ab >= 0 ? w.edges[static_cast<size_t>(ab)].u == a : a < b;
  CostMatrix created;
  if (ab < 0) {
    created = CostMatrix(a_is_u ? ka : kb, a_is_u ? kb : ka);
  }
  CostMatrix& target = ab >= 0 ? w.edges[static_cast<size_t>(ab)].cost : created;

  FoldRecord record;
  record.v = v;
  record.into = a;
  record.into2 = b;
  record.into2_choices = kb;
  record.pick2.assign(static_cast<size_t>(ka) * static_cast<size_t>(kb), choices[0]);
  const auto& a_alive = w.choice_alive[static_cast<size_t>(a)];
  const auto& b_alive = w.choice_alive[static_cast<size_t>(b)];
  std::vector<double>& partial = w.partial;  // v's unary plus e1, per alive choice.
  partial.resize(nc);
  for (int ja = 0; ja < ka; ++ja) {
    if (a_alive[static_cast<size_t>(ja)]) {
      const double* row_a = w.rows_a.data() + static_cast<size_t>(ja) * nc;
      for (size_t x = 0; x < nc; ++x) {
        partial[x] = costs[static_cast<size_t>(choices[x])] + row_a[x];
      }
    }
    for (int jb = 0; jb < kb; ++jb) {
      // Dead neighbor choices and all-infinite columns leave the entry at
      // kInfCost, correctly marking the pair infeasible.
      double value = kInfCost;
      if (a_alive[static_cast<size_t>(ja)] && b_alive[static_cast<size_t>(jb)]) {
        const double* row_b = w.rows_b.data() + static_cast<size_t>(jb) * nc;
        double best = kInfCost;
        size_t best_x = 0;
        for (size_t x = 0; x < nc; ++x) {
          const double c = partial[x] + row_b[x];
          if (x == 0 || c < best) {
            best = c;
            best_x = x;
          }
        }
        if (std::isfinite(best)) {
          value = best;
          record.pick2[static_cast<size_t>(ja) * static_cast<size_t>(kb) +
                       static_cast<size_t>(jb)] = choices[best_x];
        }
      }
      double& cell = a_is_u ? target.at(ja, jb) : target.at(jb, ja);
      if (ab >= 0) {
        cell += value;
      } else {
        cell = value;
      }
    }
  }
  w.out->folds.push_back(std::move(record));

  // Retire v and its edges. The (a, b) matrix changed, so both endpoints
  // need a fresh dominance look.
  w.dirty[static_cast<size_t>(a)] = 1;
  w.dirty[static_cast<size_t>(b)] = 1;
  w.edge_alive[static_cast<size_t>(e1)] = 0;
  w.edge_alive[static_cast<size_t>(e2)] = 0;
  --w.degree[static_cast<size_t>(a)];
  --w.degree[static_cast<size_t>(b)];
  if (ab >= 0) {
    w.out->stats.edges_folded += 2;
  } else {
    const int id = static_cast<int>(w.edges.size());
    w.edges.push_back(IlpProblem::Edge{std::min(a, b), std::max(a, b), std::move(created)});
    w.edge_alive.push_back(1);
    w.adj[static_cast<size_t>(a)].push_back(id);
    w.adj[static_cast<size_t>(b)].push_back(id);
    ++w.degree[static_cast<size_t>(a)];
    ++w.degree[static_cast<size_t>(b)];
    w.out->stats.edges_folded += 1;  // Two consumed, one created.
  }
}

// Decides degree-0/1/2 nodes. A leaf's best response per neighbor choice is
// folded into the neighbor's cost vector; a degree-2 node folds into a
// synthesized neighbor-neighbor edge (series reduction). Each fold records
// the argmin for reconstruction. Returns true when anything folded; sets
// out->infeasible when a node ran out of choices.
bool PeelPass(Work& w) {
  const int n = static_cast<int>(w.unary.size());
  bool any = false;
  bool progress = true;
  while (progress && !w.out->infeasible) {
    progress = false;
    for (int v = 0; v < n && !w.out->infeasible; ++v) {
      if (!w.node_alive[static_cast<size_t>(v)] || w.degree[static_cast<size_t>(v)] > 2) {
        continue;
      }
      if (w.degree[static_cast<size_t>(v)] == 2) {
        FoldSeriesNode(w, v);
        w.node_alive[static_cast<size_t>(v)] = 0;
        w.degree[static_cast<size_t>(v)] = 0;
        ++w.out->stats.nodes_folded;
        any = true;
        progress = true;
        continue;
      }
      const auto& alive = w.choice_alive[static_cast<size_t>(v)];
      const auto& costs = w.unary[static_cast<size_t>(v)];
      if (w.degree[static_cast<size_t>(v)] == 0) {
        // Isolated: decide by argmin (first-wins). Infinite minima are kept
        // here — the final Evaluate on the original problem reports them as
        // infeasible, matching the legacy forest DP.
        double best = kInfCost;
        int best_i = -1;
        for (size_t i = 0; i < costs.size(); ++i) {
          if (alive[i] && (best_i < 0 || costs[i] < best)) {
            best = costs[i];
            best_i = static_cast<int>(i);
          }
        }
        if (best_i < 0) {
          w.out->infeasible = true;
          break;
        }
        FoldRecord isolated;
        isolated.v = v;
        isolated.pick = {best_i};
        w.out->folds.push_back(std::move(isolated));
      } else {
        int edge_id = -1;
        for (int e : w.adj[static_cast<size_t>(v)]) {
          if (w.edge_alive[static_cast<size_t>(e)]) {
            edge_id = e;
            break;
          }
        }
        ALPA_CHECK_GE(edge_id, 0);
        const IlpProblem::Edge& edge = w.edges[static_cast<size_t>(edge_id)];
        const int u = w.Peer(edge, v);
        auto& u_alive = w.choice_alive[static_cast<size_t>(u)];
        auto& u_unary = w.unary[static_cast<size_t>(u)];
        FoldRecord record;
        record.v = v;
        record.into = u;
        record.pick.assign(u_unary.size(), -1);
        for (size_t j = 0; j < u_unary.size(); ++j) {
          if (!u_alive[j]) {
            continue;
          }
          double best = kInfCost;
          int best_i = -1;
          for (size_t i = 0; i < costs.size(); ++i) {
            if (!alive[i]) {
              continue;
            }
            const double c = costs[i] + w.Cost(edge, v, static_cast<int>(i), static_cast<int>(j));
            if (best_i < 0 || c < best) {
              best = c;
              best_i = static_cast<int>(i);
            }
          }
          if (best_i < 0 || std::isinf(best)) {
            // No feasible response: u cannot pick j.
            u_alive[j] = 0;
            ++w.out->stats.choices_eliminated;
            continue;
          }
          record.pick[j] = best_i;
          u_unary[j] += best;
        }
        if (std::none_of(u_alive.begin(), u_alive.end(), [](char a) { return a != 0; })) {
          w.out->infeasible = true;
          break;
        }
        w.out->folds.push_back(std::move(record));
        w.edge_alive[static_cast<size_t>(edge_id)] = 0;
        --w.degree[static_cast<size_t>(u)];
        ++w.out->stats.edges_folded;
        // u's unary vector (and possibly alive set) changed: u and the nodes
        // that read u's alive set need re-examination.
        w.dirty[static_cast<size_t>(u)] = 1;
        w.MarkPeersDirty(u);
      }
      w.node_alive[static_cast<size_t>(v)] = 0;
      w.degree[static_cast<size_t>(v)] = 0;
      ++w.out->stats.nodes_folded;
      any = true;
      progress = true;
    }
  }
  return any;
}

// Per-node dominated-choice elimination. Choice j is dropped when some
// choice i satisfies worst(i) <= best(j) (pointwise dominance certificate):
// on ties the lower index survives, matching first-wins argmin everywhere
// else in the solver. Infeasible choices (best == inf) are dropped when a
// feasible sibling exists.
bool DominancePass(Work& w) {
  const int n = static_cast<int>(w.unary.size());
  bool any = false;
  std::vector<double> best, worst;
  std::vector<int> peer_js;
  for (int v = 0; v < n && !w.out->infeasible; ++v) {
    if (!w.node_alive[static_cast<size_t>(v)] || w.degree[static_cast<size_t>(v)] == 0 ||
        !w.dirty[static_cast<size_t>(v)]) {
      continue;
    }
    // Re-examining a node whose inputs (its unary vector, incident edge
    // matrices, and peers' alive sets) are unchanged is a no-op, so the
    // dirty-skip reproduces the full-sweep fixpoint exactly.
    w.dirty[static_cast<size_t>(v)] = 0;
    auto& alive = w.choice_alive[static_cast<size_t>(v)];
    const auto& costs = w.unary[static_cast<size_t>(v)];
    const size_t k = costs.size();
    best.assign(k, kInfCost);
    worst.assign(k, kInfCost);
    for (size_t i = 0; i < k; ++i) {
      if (!alive[i]) {
        continue;
      }
      best[i] = costs[i];
      worst[i] = costs[i];
    }
    for (int e : w.adj[static_cast<size_t>(v)]) {
      if (!w.edge_alive[static_cast<size_t>(e)]) {
        continue;
      }
      const IlpProblem::Edge& edge = w.edges[static_cast<size_t>(e)];
      const int peer = w.Peer(edge, v);
      const auto& peer_alive = w.choice_alive[static_cast<size_t>(peer)];
      peer_js.clear();
      for (size_t j = 0; j < peer_alive.size(); ++j) {
        if (peer_alive[j]) {
          peer_js.push_back(static_cast<int>(j));
        }
      }
      if (edge.u == v) {
        for (size_t i = 0; i < k; ++i) {
          if (!alive[i]) {
            continue;
          }
          const double* row = edge.cost.row(static_cast<int>(i));
          double lo = kInfCost;
          double hi = -kInfCost;
          for (int j : peer_js) {
            const double c = row[j];
            lo = std::min(lo, c);
            hi = std::max(hi, c);
          }
          best[i] += lo;
          worst[i] += hi;
        }
        continue;
      }
      // v owns the columns: walk the peer's alive rows, each one folding
      // into every column's envelope. Each column still sees its cells in
      // ascending row order.
      std::vector<double>& lo = w.lo;
      std::vector<double>& hi = w.hi;
      lo.assign(k, kInfCost);
      hi.assign(k, -kInfCost);
      for (int j : peer_js) {
        const double* row = edge.cost.row(j);
        for (size_t i = 0; i < k; ++i) {
          lo[i] = std::min(lo[i], row[i]);
          hi[i] = std::max(hi[i], row[i]);
        }
      }
      for (size_t i = 0; i < k; ++i) {
        if (alive[i]) {
          best[i] += lo[i];
          worst[i] += hi[i];
        }
      }
    }
    // Drop infeasible choices first (keep them only if nothing is feasible;
    // the search then reports infeasibility with the right structure).
    const bool any_feasible =
        std::any_of(best.begin(), best.end(), [](double b) { return std::isfinite(b); });
    bool dropped_here = false;
    for (size_t j = 0; j < k; ++j) {
      if (!alive[j]) {
        continue;
      }
      bool drop = any_feasible && std::isinf(best[j]);
      for (size_t i = 0; i < k && !drop; ++i) {
        if (i == j || !alive[i]) {
          continue;
        }
        drop = i < j ? worst[i] <= best[j] : worst[i] < best[j];
      }
      if (drop) {
        alive[j] = 0;
        ++w.out->stats.choices_eliminated;
        dropped_here = true;
        any = true;
      }
    }
    if (dropped_here) {
      // v's alive set shrank, so every peer's lo/hi envelope may tighten.
      // v itself stays clean: a dominated choice is never a dominator the
      // survivors depended on, so no new drop at v can be enabled.
      w.MarkPeersDirty(v);
    }
    ALPA_CHECK(std::any_of(alive.begin(), alive.end(), [](char a) { return a != 0; }))
        << "presolve dropped every choice of node " << v;
  }
  return any;
}

}  // namespace

PresolvedProblem Presolve(const IlpProblem& problem) {
  PresolvedProblem out;
  const int n = problem.num_nodes();
  Work w;
  w.original = &problem;
  w.out = &out;
  w.unary = problem.node_costs;
  w.choice_alive.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    w.choice_alive[static_cast<size_t>(v)].assign(
        problem.node_costs[static_cast<size_t>(v)].size(), 1);
  }
  w.node_alive.assign(static_cast<size_t>(n), 1);
  w.dirty.assign(static_cast<size_t>(n), 1);
  MergeEdges(problem, w);
  w.edge_alive.assign(w.edges.size(), 1);
  w.adj.resize(static_cast<size_t>(n));
  w.degree.assign(static_cast<size_t>(n), 0);
  for (size_t e = 0; e < w.edges.size(); ++e) {
    w.adj[static_cast<size_t>(w.edges[e].u)].push_back(static_cast<int>(e));
    w.adj[static_cast<size_t>(w.edges[e].v)].push_back(static_cast<int>(e));
    ++w.degree[static_cast<size_t>(w.edges[e].u)];
    ++w.degree[static_cast<size_t>(w.edges[e].v)];
  }

  // Reductions enable each other (folding reshapes cost vectors, dominance
  // lowers degrees indirectly by shrinking matrices to single columns), so
  // iterate to a fixpoint. The guard is paranoia: every productive pass
  // removes at least one node or choice, so |iterations| <= nodes + choices.
  bool changed = true;
  for (int guard = 0; changed && !out.infeasible && guard < 4 * (n + 1); ++guard) {
    changed = PeelPass(w);
    if (!out.infeasible) {
      changed |= DominancePass(w);
    }
  }
  if (out.infeasible) {
    return out;
  }

  // Emit the compacted core.
  out.kept.resize(static_cast<size_t>(n));
  std::vector<int> core_index(static_cast<size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    if (!w.node_alive[static_cast<size_t>(v)]) {
      continue;
    }
    core_index[static_cast<size_t>(v)] = static_cast<int>(out.core_nodes.size());
    out.core_nodes.push_back(v);
    auto& kept = out.kept[static_cast<size_t>(v)];
    std::vector<double>& costs = w.unary[static_cast<size_t>(v)];
    for (size_t i = 0; i < costs.size(); ++i) {
      if (w.choice_alive[static_cast<size_t>(v)][i]) {
        costs[kept.size()] = costs[i];
        kept.push_back(static_cast<int>(i));
      }
    }
    costs.resize(kept.size());
    out.core.node_costs.push_back(std::move(costs));
  }
  // Each surviving matrix shrinks in place to its kept rows and columns
  // and moves into the core.
  for (size_t e = 0; e < w.edges.size(); ++e) {
    if (!w.edge_alive[e]) {
      continue;
    }
    IlpProblem::Edge& edge = w.edges[e];
    const auto& ku = out.kept[static_cast<size_t>(edge.u)];
    const auto& kv = out.kept[static_cast<size_t>(edge.v)];
    if (static_cast<int>(ku.size()) != edge.cost.rows() ||
        static_cast<int>(kv.size()) != edge.cost.cols()) {
      edge.cost.Keep(ku, kv);
    }
    out.core.edges.push_back(IlpProblem::Edge{core_index[static_cast<size_t>(edge.u)],
                                              core_index[static_cast<size_t>(edge.v)],
                                              std::move(edge.cost)});
  }
  return out;
}

std::vector<int> PresolvedProblem::Reconstruct(const std::vector<int>& core_choice) const {
  ALPA_CHECK_EQ(static_cast<int>(core_choice.size()), core.num_nodes());
  std::vector<int> full(kept.size(), -1);
  for (size_t c = 0; c < core_nodes.size(); ++c) {
    const int v = core_nodes[c];
    full[static_cast<size_t>(v)] =
        kept[static_cast<size_t>(v)][static_cast<size_t>(core_choice[c])];
  }
  // Folds recorded earliest-first; later folds only depend on nodes that
  // survived longer, so reverse order resolves every dependency.
  for (auto it = folds.rbegin(); it != folds.rend(); ++it) {
    if (it->into < 0) {
      full[static_cast<size_t>(it->v)] = it->pick[0];
    } else if (it->into2 >= 0) {
      const int ca = full[static_cast<size_t>(it->into)];
      const int cb = full[static_cast<size_t>(it->into2)];
      ALPA_CHECK_GE(ca, 0);
      ALPA_CHECK_GE(cb, 0);
      full[static_cast<size_t>(it->v)] =
          it->pick2[static_cast<size_t>(ca) * static_cast<size_t>(it->into2_choices) +
                    static_cast<size_t>(cb)];
    } else {
      const int into_choice = full[static_cast<size_t>(it->into)];
      ALPA_CHECK_GE(into_choice, 0);
      full[static_cast<size_t>(it->v)] = it->pick[static_cast<size_t>(into_choice)];
      ALPA_CHECK_GE(full[static_cast<size_t>(it->v)], 0);
    }
  }
  return full;
}

uint64_t IlpProblemFingerprint(const IlpProblem& problem) {
  // Sizes delimit the cost lists, so moving a choice between nodes or an
  // entry between rows changes the hash even when the flattened costs
  // stay the same. Each cost vector and each matrix is one span.
  WordHash64 hasher;
  hasher.I64(problem.num_nodes());
  for (const auto& costs : problem.node_costs) {
    hasher.I64(static_cast<int64_t>(costs.size()));
    hasher.Doubles(costs.data(), costs.size());
  }
  hasher.I64(static_cast<int64_t>(problem.edges.size()));
  for (const IlpProblem::Edge& e : problem.edges) {
    hasher.I64(e.u).I64(e.v);
    hasher.Doubles(e.cost.data(), e.cost.size());
  }
  return hasher.hash();
}

}  // namespace alpa
