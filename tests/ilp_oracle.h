// The solver tests' shared reference: an exhaustive brute-force oracle for
// small ILPs, the random instance generator the randomized checks draw
// from, and a reference copy of BuildFlatCore's reparametrization.
// Header-only and free of gtest, so the sanitizer harnesses built from
// library sources can use it too.
#ifndef TESTS_ILP_ORACLE_H_
#define TESTS_ILP_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/solver/flat_core.h"
#include "src/solver/ilp_solver.h"
#include "src/support/rng.h"

namespace alpa {

// Exhaustive search over every assignment (odometer order, node 0
// fastest). Returns the optimal objective, kInfCost when no assignment is
// feasible; `best_choice`, when given, receives the first assignment that
// attains it (left untouched when none is feasible).
inline double BruteForce(const IlpProblem& problem, std::vector<int>* best_choice = nullptr) {
  std::vector<int> choice(static_cast<size_t>(problem.num_nodes()), 0);
  double best = kInfCost;
  while (true) {
    const double value = problem.Evaluate(choice);
    if (value < best) {
      best = value;
      if (best_choice != nullptr) {
        *best_choice = choice;
      }
    }
    int i = 0;
    while (i < problem.num_nodes()) {
      if (++choice[static_cast<size_t>(i)] < problem.num_choices(i)) {
        break;
      }
      choice[static_cast<size_t>(i)] = 0;
      ++i;
    }
    if (i == problem.num_nodes()) {
      break;
    }
  }
  return best;
}

// `nodes` nodes with 1..max_choices choices each, node costs in [0, 10).
inline IlpProblem RandomNodes(Rng& rng, int nodes, int max_choices) {
  IlpProblem problem;
  problem.node_costs.resize(static_cast<size_t>(nodes));
  for (int v = 0; v < nodes; ++v) {
    const int k = 1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(max_choices)));
    for (int i = 0; i < k; ++i) {
      problem.node_costs[static_cast<size_t>(v)].push_back(rng.NextDouble(0, 10));
    }
  }
  return problem;
}

// An edge u -> v with costs in [0, 5), drawn row by row.
inline IlpProblem::Edge RandomEdge(Rng& rng, const IlpProblem& problem, int u, int v) {
  IlpProblem::Edge edge{u, v, CostMatrix(problem.num_choices(u), problem.num_choices(v))};
  for (int i = 0; i < edge.cost.rows(); ++i) {
    for (int j = 0; j < edge.cost.cols(); ++j) {
      edge.cost.at(i, j) = rng.NextDouble(0, 5);
    }
  }
  return edge;
}

// RandomNodes plus an edge on each node pair with probability `edge_prob`,
// costs in [0, 5); each edge cost is infeasible with probability
// `inf_prob` (no random draw is spent on that when it is 0).
inline IlpProblem RandomProblem(Rng& rng, int nodes, int max_choices, double edge_prob,
                                double inf_prob = 0.0) {
  IlpProblem problem = RandomNodes(rng, nodes, max_choices);
  for (int u = 0; u < nodes; ++u) {
    for (int v = u + 1; v < nodes; ++v) {
      if (rng.NextDouble() > edge_prob) {
        continue;
      }
      IlpProblem::Edge edge{u, v, CostMatrix(problem.num_choices(u), problem.num_choices(v))};
      for (int i = 0; i < edge.cost.rows(); ++i) {
        for (int j = 0; j < edge.cost.cols(); ++j) {
          double c = rng.NextDouble(0, 5);
          if (inf_prob > 0 && rng.NextDouble() < inf_prob) {
            c = kInfCost;
          }
          edge.cost.at(i, j) = c;
        }
      }
      problem.edges.push_back(std::move(edge));
    }
  }
  return problem;
}

// Reference for BuildFlatCore's arena and bound arrays: the two-orientation
// min-sum diffusion BuildFlatCore ran before its single-orientation
// rewrite, kept as the oracle. Every edge block is stored twice ([u][v],
// then the transposed [v][u]); each node update rescans its incident rows
// for their minima and writes every delta into both copies. BuildFlatCore
// must reproduce off, arc_off, arcs, unary, arena and edge_min bit for bit
// (for inputs without negative zeros, whose sign the two layouts may
// round differently). `comps` is left empty. `sweeps`, when given,
// receives the number of diffusion sweeps run.
inline FlatCore ReferenceFlatCore(const IlpProblem& p, int* sweeps = nullptr) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto clamp = [](double c) { return std::isfinite(c) ? c : kFlatLarge; };
  FlatCore f;
  f.n = p.num_nodes();
  const size_t num_edges = p.edges.size();
  f.off.assign(static_cast<size_t>(f.n) + 1, 0);
  for (int v = 0; v < f.n; ++v) {
    f.off[static_cast<size_t>(v) + 1] = f.off[static_cast<size_t>(v)] + p.num_choices(v);
  }
  for (int v = 0; v < f.n; ++v) {
    for (double c : p.node_costs[static_cast<size_t>(v)]) f.unary.push_back(clamp(c));
  }

  // Both orientations of edge k: [u][v] at base_uv[k], [v][u] at base_vu[k].
  std::vector<int64_t> base_uv(num_edges);
  std::vector<int64_t> base_vu(num_edges);
  int64_t pos = 0;
  for (size_t k = 0; k < num_edges; ++k) {
    const int64_t block =
        static_cast<int64_t>(p.num_choices(p.edges[k].u)) * p.num_choices(p.edges[k].v);
    base_uv[k] = pos;
    base_vu[k] = pos + block;
    pos += 2 * block;
  }
  f.arena.resize(static_cast<size_t>(pos));
  std::vector<std::vector<FlatCore::Arc>> by_node(static_cast<size_t>(f.n));
  for (size_t k = 0; k < num_edges; ++k) {
    const IlpProblem::Edge& e = p.edges[k];
    const int ku = p.num_choices(e.u);
    const int kv = p.num_choices(e.v);
    for (int i = 0; i < ku; ++i) {
      for (int j = 0; j < kv; ++j) {
        const double c = clamp(e.cost.at(i, j));
        f.arena[static_cast<size_t>(base_uv[k] + int64_t{i} * kv + j)] = c;
        f.arena[static_cast<size_t>(base_vu[k] + int64_t{j} * ku + i)] = c;
      }
    }
    const int edge = static_cast<int>(k);
    by_node[static_cast<size_t>(e.u)].push_back(FlatCore::Arc{e.v, edge, base_uv[k]});
    by_node[static_cast<size_t>(e.v)].push_back(FlatCore::Arc{e.u, edge, base_vu[k]});
  }
  f.arc_off.assign(static_cast<size_t>(f.n) + 1, 0);
  for (int v = 0; v < f.n; ++v) {
    const std::vector<FlatCore::Arc>& arcs = by_node[static_cast<size_t>(v)];
    f.arc_off[static_cast<size_t>(v) + 1] =
        f.arc_off[static_cast<size_t>(v)] + static_cast<int>(arcs.size());
    f.arcs.insert(f.arcs.end(), arcs.begin(), arcs.end());
  }
  // The other orientation of an arc's block.
  const auto transposed = [&](const FlatCore::Arc& a) {
    const size_t k = static_cast<size_t>(a.edge);
    return a.base == base_uv[k] ? base_vu[k] : base_uv[k];
  };

  // Soft arc consistency, on both copies: u-side rows, then v-side rows.
  f.edge_min.resize(num_edges);
  for (size_t k = 0; k < num_edges; ++k) {
    const IlpProblem::Edge& e = p.edges[k];
    const int ku = p.num_choices(e.u);
    const int kv = p.num_choices(e.v);
    double* uv = f.arena.data() + base_uv[k];
    double* vu = f.arena.data() + base_vu[k];
    for (int i = 0; i < ku; ++i) {
      double mn = inf;
      for (int j = 0; j < kv; ++j) mn = std::min(mn, uv[int64_t{i} * kv + j]);
      if (mn == 0.0) continue;
      f.unary[static_cast<size_t>(f.off[static_cast<size_t>(e.u)] + i)] += mn;
      for (int j = 0; j < kv; ++j) {
        uv[int64_t{i} * kv + j] -= mn;
        vu[int64_t{j} * ku + i] -= mn;
      }
    }
    for (int j = 0; j < kv; ++j) {
      double mn = inf;
      for (int i = 0; i < ku; ++i) mn = std::min(mn, vu[int64_t{j} * ku + i]);
      if (mn == 0.0) continue;
      f.unary[static_cast<size_t>(f.off[static_cast<size_t>(e.v)] + j)] += mn;
      for (int i = 0; i < ku; ++i) {
        vu[int64_t{j} * ku + i] -= mn;
        uv[int64_t{i} * kv + j] -= mn;
      }
    }
    double mn = inf;
    for (int64_t c = 0; c < int64_t{ku} * kv; ++c) mn = std::min(mn, uv[c]);
    f.edge_min[k] = mn;
  }

  // Min-sum diffusion: each dirty node splits, per choice, its unary plus
  // its incident row minima into deg + 1 equal shares and moves each
  // arc's difference onto that arc's rows, in both copies.
  std::vector<double> node_min(static_cast<size_t>(f.n));
  for (int u = 0; u < f.n; ++u) {
    const auto first = f.unary.begin() + f.off[static_cast<size_t>(u)];
    node_min[static_cast<size_t>(u)] = *std::min_element(first, first + f.K(u));
  }
  std::vector<char> dirty(static_cast<size_t>(f.n), 1);
  double prev_lb = -inf;
  int sweep = 0;
  while (sweep < 64) {
    ++sweep;
    std::vector<char> next_dirty(static_cast<size_t>(f.n), 0);
    for (int u = 0; u < f.n; ++u) {
      const int K = f.K(u);
      const int deg = f.degree(u);
      if (!dirty[static_cast<size_t>(u)] || deg == 0) continue;
      const int a0 = f.arc_off[static_cast<size_t>(u)];
      double* unary = f.unary.data() + f.off[static_cast<size_t>(u)];
      // m[ai][i]: minimum of row i of arc ai's block, by a fresh scan.
      std::vector<std::vector<double>> m(static_cast<size_t>(deg), std::vector<double>(K));
      std::vector<double> t(unary, unary + K);
      for (int ai = 0; ai < deg; ++ai) {
        const FlatCore::Arc& arc = f.arcs[static_cast<size_t>(a0 + ai)];
        const int kp = f.K(arc.peer);
        for (int i = 0; i < K; ++i) {
          const double* row = f.arena.data() + arc.base + int64_t{i} * kp;
          double mn = inf;
          for (int j = 0; j < kp; ++j) mn = std::min(mn, row[j]);
          m[static_cast<size_t>(ai)][static_cast<size_t>(i)] = mn;
          t[static_cast<size_t>(i)] += mn;
        }
      }
      std::vector<double> share(static_cast<size_t>(K), inf);
      for (int i = 0; i < K; ++i) {
        if (t[static_cast<size_t>(i)] < kFlatInfeasible) {
          share[static_cast<size_t>(i)] = t[static_cast<size_t>(i)] / (deg + 1);
        }
      }
      std::vector<double> applied(static_cast<size_t>(K), 0.0);
      bool moved = false;
      for (int ai = 0; ai < deg; ++ai) {
        const std::vector<double>& mi = m[static_cast<size_t>(ai)];
        std::vector<double> dv(static_cast<size_t>(K), 0.0);
        bool any = false;
        for (int i = 0; i < K; ++i) {
          const double s = share[static_cast<size_t>(i)];
          if (s == inf) continue;
          const double d = s - mi[static_cast<size_t>(i)];
          if (std::abs(d) <= 1e-12 * (std::abs(s) + 1e-300)) continue;
          dv[static_cast<size_t>(i)] = d;
          applied[static_cast<size_t>(i)] += d;
          any = true;
        }
        if (!any) continue;
        moved = true;
        const FlatCore::Arc& arc = f.arcs[static_cast<size_t>(a0 + ai)];
        const int kp = f.K(arc.peer);
        double* blk = f.arena.data() + arc.base;
        double* rblk = f.arena.data() + transposed(arc);
        for (int i = 0; i < K; ++i) {
          if (dv[static_cast<size_t>(i)] == 0.0) continue;
          for (int j = 0; j < kp; ++j) blk[int64_t{i} * kp + j] += dv[static_cast<size_t>(i)];
        }
        for (int j = 0; j < kp; ++j) {
          for (int i = 0; i < K; ++i) rblk[int64_t{j} * K + i] += dv[static_cast<size_t>(i)];
        }
        double em = inf;
        for (int i = 0; i < K; ++i) {
          em = std::min(em, mi[static_cast<size_t>(i)] + dv[static_cast<size_t>(i)]);
        }
        f.edge_min[static_cast<size_t>(arc.edge)] = em;
      }
      for (int i = 0; i < K; ++i) unary[i] -= applied[static_cast<size_t>(i)];
      if (moved) {
        node_min[static_cast<size_t>(u)] = *std::min_element(unary, unary + K);
        next_dirty[static_cast<size_t>(u)] = 1;
        for (int ai = 0; ai < deg; ++ai) {
          next_dirty[static_cast<size_t>(f.arcs[static_cast<size_t>(a0 + ai)].peer)] = 1;
        }
      }
    }
    dirty = next_dirty;
    if (std::find(dirty.begin(), dirty.end(), 1) == dirty.end()) break;
    // Dual-bound stall check every fourth sweep.
    if (sweep % 4 == 0) {
      double lb = 0.0;
      for (double mn : node_min) lb += std::min(mn, kFlatLarge);
      for (double mn : f.edge_min) lb += std::min(mn, kFlatLarge);
      if (lb <= prev_lb + 1e-6 * std::abs(lb) + 1e-300) break;
      prev_lb = lb;
    }
  }
  if (sweeps != nullptr) {
    *sweeps = sweep;
  }
  return f;
}

}  // namespace alpa

#endif  // TESTS_ILP_ORACLE_H_
