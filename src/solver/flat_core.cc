#include "src/solver/flat_core.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/support/trace.h"

namespace alpa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Clamp(double c) { return std::isfinite(c) ? c : kFlatLarge; }

// The two block kernels of min-sum diffusion. Both walk an edge's row-major
// [u][v] block (rows: u's choices, columns: v's choices), add one
// endpoint's per-choice deltas, and read the other endpoint's row minima
// off the cells just written. They only add and take minima, so
// vectorizing them reassociates nothing: every cell gets the same
// additions in the same order, and a minimum is exact in any order.

// u's update: row i shifts by dv[i] (rows with a zero delta are left
// alone); col_min[j] receives the new minimum of column j, v's row minima.
void AddRowsTakeColumnMinima(double* blk, int rows, int cols, const double* dv,
                             double* __restrict col_min) {
  std::fill(col_min, col_min + cols, kInf);
  for (int i = 0; i < rows; ++i) {
    double* __restrict row = blk + static_cast<int64_t>(i) * cols;
    const double d = dv[i];
    if (d != 0.0) {
      for (int j = 0; j < cols; ++j) {
        const double x = row[j] + d;
        row[j] = x;
        col_min[j] = std::min(col_min[j], x);
      }
    } else {
      for (int j = 0; j < cols; ++j) col_min[j] = std::min(col_min[j], row[j]);
    }
  }
}

// v's update: column j shifts by dv[j]; row_min[i] receives the new minimum
// of row i, u's row minima. The row minimum runs on independent lane
// accumulators; the lane loop must stay a loop (not unrolled into four
// scalar chains) for GCC to map the lanes onto vector registers.
void AddColumnsTakeRowMinima(double* blk, int rows, int cols, const double* __restrict dv,
                             double* __restrict row_min) {
  constexpr int kLanes = 4;
  for (int i = 0; i < rows; ++i) {
    double* __restrict row = blk + static_cast<int64_t>(i) * cols;
    double acc[kLanes] = {kInf, kInf, kInf, kInf};
    int j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
#pragma GCC unroll 1
      for (int l = 0; l < kLanes; ++l) {
        const double x = row[j + l] + dv[j + l];
        row[j + l] = x;
        acc[l] = std::min(acc[l], x);
      }
    }
    for (; j < cols; ++j) {
      const double x = row[j] + dv[j];
      row[j] = x;
      acc[0] = std::min(acc[0], x);
    }
    row_min[i] = std::min(std::min(acc[0], acc[1]), std::min(acc[2], acc[3]));
  }
}

}  // namespace

FlatCore BuildFlatCore(const IlpProblem& p) {
  FlatCore f;
  f.n = p.num_nodes();
  const size_t num_edges = p.edges.size();
  f.off.assign(static_cast<size_t>(f.n) + 1, 0);
  for (int v = 0; v < f.n; ++v) {
    f.off[static_cast<size_t>(v) + 1] = f.off[static_cast<size_t>(v)] + p.num_choices(v);
  }
  f.unary.resize(static_cast<size_t>(f.off[static_cast<size_t>(f.n)]));
  for (int v = 0; v < f.n; ++v) {
    for (int i = 0; i < p.num_choices(v); ++i) {
      f.unary[static_cast<size_t>(f.off[static_cast<size_t>(v)] + i)] =
          Clamp(p.node_costs[static_cast<size_t>(v)][static_cast<size_t>(i)]);
    }
  }

  // Arena: per edge, the row-major [u][v] block, then its transpose. Only
  // the [u][v] block is live until diffusion ends; the transpose is
  // written once, at the end.
  std::vector<int64_t> base_uv(num_edges);
  int64_t arena_size = 0;
  for (size_t k = 0; k < num_edges; ++k) {
    const IlpProblem::Edge& e = p.edges[k];
    base_uv[k] = arena_size;
    arena_size += 2LL * p.num_choices(e.u) * p.num_choices(e.v);
  }
  f.arena.resize(static_cast<size_t>(arena_size));
  f.edge_min.resize(num_edges);

  // Arcs grouped by node, each node's in edge order. rev[a] is the same
  // edge's arc at the other endpoint. Arc a caches its endpoint's row
  // minima for the diffusion sweeps at arc_min[arc_min_off[a]], K(self)
  // of them.
  f.arc_off.assign(static_cast<size_t>(f.n) + 1, 0);
  for (const IlpProblem::Edge& e : p.edges) {
    ++f.arc_off[static_cast<size_t>(e.u) + 1];
    ++f.arc_off[static_cast<size_t>(e.v) + 1];
  }
  for (int v = 0; v < f.n; ++v) {
    f.arc_off[static_cast<size_t>(v) + 1] += f.arc_off[static_cast<size_t>(v)];
  }
  f.arcs.resize(2 * num_edges);
  std::vector<int> rev(2 * num_edges);
  std::vector<int> arc_u(num_edges);  // Edge k's arc at e.u.
  {
    std::vector<int> next(f.arc_off.begin(), f.arc_off.end() - 1);
    for (size_t k = 0; k < num_edges; ++k) {
      const IlpProblem::Edge& e = p.edges[k];
      const int ku = p.num_choices(e.u);
      const int kv = p.num_choices(e.v);
      const int au = next[static_cast<size_t>(e.u)]++;
      const int av = next[static_cast<size_t>(e.v)]++;
      f.arcs[static_cast<size_t>(au)] = FlatCore::Arc{e.v, static_cast<int>(k), base_uv[k]};
      f.arcs[static_cast<size_t>(av)] =
          FlatCore::Arc{e.u, static_cast<int>(k), base_uv[k] + static_cast<int64_t>(ku) * kv};
      rev[static_cast<size_t>(au)] = av;
      rev[static_cast<size_t>(av)] = au;
      arc_u[k] = au;
    }
  }
  std::vector<int64_t> arc_min_off(f.arcs.size() + 1, 0);
  for (int u = 0; u < f.n; ++u) {
    for (int a = f.arc_off[static_cast<size_t>(u)]; a < f.arc_off[static_cast<size_t>(u) + 1];
         ++a) {
      arc_min_off[static_cast<size_t>(a) + 1] = arc_min_off[static_cast<size_t>(a)] + f.K(u);
    }
  }
  std::vector<double> arc_min(static_cast<size_t>(arc_min_off.back()));

  // Soft arc consistency: project each edge row's minimum into the unary
  // cost of the incident endpoint (u-side rows first, then v-side rows of
  // the residual, i.e. the block's columns). Every full assignment keeps
  // its exact total — the shift moves cost between tables, it never
  // creates or destroys any — but the per-node unary minima that every
  // engine prunes with absorb cost that was invisible while it lived on the
  // edge matrices. Rows whose minimum is at or above kFlatInfeasible mark
  // the choice itself infeasible: the whole row folds into the unary entry,
  // and ScoreVar drops the choice. One pass per direction reaches the
  // fixpoint of this projection (edge blocks never receive cost back from
  // unaries).
  //
  // Two row-major passes per block. The first loads each row clamped,
  // projects it, and folds it into the column minima; the second shifts
  // every column by its minimum (+0.0 where the minimum is a zero, which
  // leaves every cell as it is) and takes the projected block's minima.
  std::vector<double> col_shift;
  for (size_t k = 0; k < num_edges; ++k) {
    const IlpProblem::Edge& e = p.edges[k];
    const int ku = p.num_choices(e.u);
    const int kv = p.num_choices(e.v);
    double* uv = f.arena.data() + base_uv[k];
    double* unary_u = f.unary.data() + f.off[static_cast<size_t>(e.u)];
    double* unary_v = f.unary.data() + f.off[static_cast<size_t>(e.v)];
    col_shift.assign(static_cast<size_t>(kv), kInf);
    double* shift = col_shift.data();
    for (int i = 0; i < ku; ++i) {
      const double* src = e.cost.row(i);
      double* row = uv + static_cast<int64_t>(i) * kv;
      double mn = kInf;
      for (int j = 0; j < kv; ++j) {
        row[j] = Clamp(src[j]);
        mn = std::min(mn, row[j]);
      }
      if (mn != 0.0) {
        unary_u[i] += mn;
        for (int j = 0; j < kv; ++j) row[j] -= mn;
      }
      for (int j = 0; j < kv; ++j) shift[j] = std::min(shift[j], row[j]);
    }
    for (int j = 0; j < kv; ++j) {
      if (shift[j] != 0.0) {
        unary_v[j] += shift[j];
      } else {
        shift[j] = 0.0;
      }
    }
    // The projected block's row minima from both sides, and its minimum.
    // Only an edge's two endpoints ever change its block, and the one that
    // does refreshes both sides, so these caches always equal a fresh scan.
    const size_t au = static_cast<size_t>(arc_u[k]);
    double* u_min = arc_min.data() + arc_min_off[au];
    double* v_min = arc_min.data() + arc_min_off[static_cast<size_t>(rev[au])];
    std::fill(v_min, v_min + kv, kInf);
    double em = kInf;
    for (int i = 0; i < ku; ++i) {
      double* row = uv + static_cast<int64_t>(i) * kv;
      double mn = kInf;
      for (int j = 0; j < kv; ++j) {
        row[j] -= shift[j];
        mn = std::min(mn, row[j]);
        v_min[j] = std::min(v_min[j], row[j]);
      }
      u_min[i] = mn;
      em = std::min(em, mn);
    }
    f.edge_min[k] = em;
  }

  // Min-sum diffusion: equalize, per node and choice, the unary cost with
  // the row minima of every incident edge block, so each local minimum
  // carries an equal share of the choice's unavoidable cost. Like the row
  // projection above this only moves cost between tables — every full
  // assignment keeps its exact total — but iterating it propagates cost
  // ACROSS edges, driving the per-node and per-edge minima toward the
  // Schlesinger LP dual value. On the frustrated communication cores that
  // defeat the plain projection (every single edge can be zero-cost, the
  // positive cost only emerges globally), this turns a bound that proves
  // nothing into one that is usually tight: budget-bound searches that
  // could not close in tens of millions of nodes close in hundreds.
  // Deterministic: fixed sweep order, early stop on the dual bound alone.
  {
    static Metric* diffusion_micros = Metrics::Get("ilp/diffusion/micros");
    static Metric* diffusion_sweeps = Metrics::Get("ilp/diffusion/sweeps");
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kMaxSweeps = 64;
    std::vector<double> t, share, dv, applied;
    double prev_lb = -kInf;
    // Dirty worklist: a node re-equalizes only while it or a neighbor still
    // moved cost last sweep, so converged regions stop paying. Same
    // trajectory as full sweeps (an untouched node's update is a no-op).
    std::vector<char> dirty(static_cast<size_t>(f.n), 1);
    std::vector<char> next_dirty(static_cast<size_t>(f.n), 0);
    // Per-node unary minima, maintained incrementally alongside the sweeps
    // (f.edge_min is maintained the same way below), so the dual-bound
    // stall check costs O(n + E) instead of a full arena scan.
    std::vector<double> node_min(static_cast<size_t>(f.n), kInf);
    for (int u = 0; u < f.n; ++u) {
      double mn = kInf;
      for (int i = 0; i < f.K(u); ++i) {
        mn = std::min(mn, f.unary[static_cast<size_t>(f.off[static_cast<size_t>(u)] + i)]);
      }
      node_min[static_cast<size_t>(u)] = mn;
    }
    int sweeps = 0;
    for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
      ++sweeps;
      std::fill(next_dirty.begin(), next_dirty.end(), 0);
      for (int u = 0; u < f.n; ++u) {
        if (!dirty[static_cast<size_t>(u)]) continue;
        const int K = f.K(u);
        const int deg = f.degree(u);
        if (deg == 0) continue;
        const int ou = f.off[static_cast<size_t>(u)];
        const int a0 = f.arc_off[static_cast<size_t>(u)];
        t.assign(f.unary.begin() + ou, f.unary.begin() + ou + K);
        for (int a = a0; a < a0 + deg; ++a) {
          const double* m = arc_min.data() + arc_min_off[static_cast<size_t>(a)];
          for (int i = 0; i < K; ++i) t[static_cast<size_t>(i)] += m[i];
        }
        bool moved = false;
        share.assign(static_cast<size_t>(K), kInf);
        applied.assign(static_cast<size_t>(K), 0.0);
        for (int i = 0; i < K; ++i) {
          // A choice whose total already marks it infeasible is left alone:
          // spreading a kFlatLarge share would poison finite peer entries.
          if (t[static_cast<size_t>(i)] >= kFlatInfeasible) continue;
          share[static_cast<size_t>(i)] = t[static_cast<size_t>(i)] / (deg + 1);
        }
        for (int a = a0; a < a0 + deg; ++a) {
          double* m = arc_min.data() + arc_min_off[static_cast<size_t>(a)];
          dv.assign(static_cast<size_t>(K), 0.0);
          bool any = false;
          for (int i = 0; i < K; ++i) {
            if (share[static_cast<size_t>(i)] == kInf) continue;
            const double d = share[static_cast<size_t>(i)] - m[i];
            // Sub-relative-epsilon shifts keep ping-ponging rounding noise
            // between tables forever; leave them where they lie.
            if (std::abs(d) <= 1e-12 * (std::abs(share[static_cast<size_t>(i)]) + 1e-300)) continue;
            dv[static_cast<size_t>(i)] = d;
            applied[static_cast<size_t>(i)] += d;
            any = true;
          }
          if (!any) continue;
          moved = true;
          // One pass over the [u][v] block applies the deltas and refreshes
          // the peer's cached minima from the cells just written.
          const FlatCore::Arc& arc = f.arcs[static_cast<size_t>(a)];
          const int r = rev[static_cast<size_t>(a)];
          double* peer_min = arc_min.data() + arc_min_off[static_cast<size_t>(r)];
          if (p.edges[static_cast<size_t>(arc.edge)].u == u) {
            AddRowsTakeColumnMinima(f.arena.data() + arc.base, K, f.K(arc.peer), dv.data(),
                                    peer_min);
          } else {
            AddColumnsTakeRowMinima(f.arena.data() + f.arcs[static_cast<size_t>(r)].base,
                                    f.K(arc.peer), K, dv.data(), peer_min);
          }
          // Shifting a whole row by d moves its minimum from m to exactly
          // m + d (rounding is monotone), so u's own minima and the edge
          // minimum stay exact without rescanning the block.
          double em = kInf;
          for (int i = 0; i < K; ++i) {
            m[i] += dv[static_cast<size_t>(i)];
            em = std::min(em, m[i]);
          }
          f.edge_min[static_cast<size_t>(arc.edge)] = em;
        }
        // The unary keeps exactly what the edges did not take, so every
        // assignment's total is preserved even when tiny shifts stay put.
        for (int i = 0; i < K; ++i) {
          f.unary[static_cast<size_t>(ou + i)] -= applied[static_cast<size_t>(i)];
        }
        if (moved) {
          double nm = kInf;
          for (int i = 0; i < K; ++i) {
            nm = std::min(nm, f.unary[static_cast<size_t>(ou + i)]);
          }
          node_min[static_cast<size_t>(u)] = nm;
          next_dirty[static_cast<size_t>(u)] = 1;
          for (int a = a0; a < a0 + deg; ++a) {
            next_dirty[static_cast<size_t>(f.arcs[static_cast<size_t>(a)].peer)] = 1;
          }
        }
      }
      dirty.swap(next_dirty);
      bool any_dirty = false;
      for (int u = 0; u < f.n && !any_dirty; ++u) any_dirty = dirty[static_cast<size_t>(u)] != 0;
      if (!any_dirty) break;
      // Stall check every few sweeps, against the incrementally maintained
      // minima — O(n + E), no arena scan. A loose stop would forfeit real
      // proving power: the budget-bound search often needs the last
      // fraction of a percent of this bound to close.
      if ((sweep & 3) == 3) {
        double lb = 0.0;
        for (int u = 0; u < f.n; ++u) {
          lb += std::min(node_min[static_cast<size_t>(u)], kFlatLarge);
        }
        for (size_t k = 0; k < num_edges; ++k) {
          lb += std::min(f.edge_min[k], kFlatLarge);
        }
        if (lb <= prev_lb + 1e-6 * std::abs(lb) + 1e-300) break;
        prev_lb = lb;
      }
    }
    // The engines read each block from both endpoints: write the
    // transposed [v][u] copies now that the [u][v] blocks are final.
    for (size_t k = 0; k < num_edges; ++k) {
      const IlpProblem::Edge& e = p.edges[k];
      const int ku = p.num_choices(e.u);
      const int kv = p.num_choices(e.v);
      const double* uv = f.arena.data() + base_uv[k];
      double* vu = f.arena.data() + base_uv[k] + static_cast<int64_t>(ku) * kv;
      for (int j = 0; j < kv; ++j) {
        for (int i = 0; i < ku; ++i) {
          vu[static_cast<int64_t>(j) * ku + i] = uv[static_cast<int64_t>(i) * kv + j];
        }
      }
    }
    diffusion_sweeps->Add(sweeps);
    diffusion_micros->Add(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }

  // Connected components (union-find), node ids ascending within each.
  std::vector<int> parent(static_cast<size_t>(f.n));
  for (int v = 0; v < f.n; ++v) parent[static_cast<size_t>(v)] = v;
  auto find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] = parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const IlpProblem::Edge& e : p.edges) {
    const int a = find(e.u);
    const int b = find(e.v);
    if (a != b) parent[static_cast<size_t>(a)] = b;
  }
  std::vector<int> comp_of(static_cast<size_t>(f.n), -1);
  for (int v = 0; v < f.n; ++v) {
    const int r = find(v);
    if (comp_of[static_cast<size_t>(r)] < 0) {
      comp_of[static_cast<size_t>(r)] = static_cast<int>(f.comps.size());
      f.comps.emplace_back();
    }
    comp_of[static_cast<size_t>(v)] = comp_of[static_cast<size_t>(r)];
    f.comps[static_cast<size_t>(comp_of[static_cast<size_t>(v)])].push_back(v);
  }
  return f;
}

std::vector<int> ArgminStart(const FlatCore& f) {
  std::vector<int> choice(static_cast<size_t>(f.n), 0);
  for (int v = 0; v < f.n; ++v) {
    const double* row = f.unary.data() + f.off[static_cast<size_t>(v)];
    int best_i = 0;
    for (int i = 1; i < f.K(v); ++i) {
      if (row[i] < row[best_i]) best_i = i;
    }
    choice[static_cast<size_t>(v)] = best_i;
  }
  return choice;
}

std::vector<int> FlatIcm(const FlatCore& f, std::vector<int> choice) {
  std::vector<char> dirty(static_cast<size_t>(f.n), 1);
  bool improved = true;
  int sweeps = 0;
  while (improved && sweeps < 50) {
    improved = false;
    ++sweeps;
    for (int v = 0; v < f.n; ++v) {
      if (!dirty[static_cast<size_t>(v)]) continue;
      dirty[static_cast<size_t>(v)] = 0;
      const double* row = f.unary.data() + f.off[static_cast<size_t>(v)];
      double best = kInf;
      int best_i = choice[static_cast<size_t>(v)];
      for (int i = 0; i < f.K(v); ++i) {
        double c = row[i];
        for (int a = f.arc_off[static_cast<size_t>(v)]; a < f.arc_off[static_cast<size_t>(v) + 1]; ++a) {
          const FlatCore::Arc& arc = f.arcs[static_cast<size_t>(a)];
          c += f.ArcCost(arc, i, choice[static_cast<size_t>(arc.peer)]);
        }
        if (c < best) {
          best = c;
          best_i = i;
        }
      }
      if (best_i != choice[static_cast<size_t>(v)]) {
        choice[static_cast<size_t>(v)] = best_i;
        improved = true;
        for (int a = f.arc_off[static_cast<size_t>(v)]; a < f.arc_off[static_cast<size_t>(v) + 1]; ++a) {
          dirty[static_cast<size_t>(f.arcs[static_cast<size_t>(a)].peer)] = 1;
        }
      }
    }
  }
  return choice;
}

double ComponentValue(const FlatCore& f, const std::vector<int>& nodes,
                      const std::vector<int>& full) {
  double total = 0.0;
  for (int v : nodes) {
    total += f.unary[static_cast<size_t>(f.off[static_cast<size_t>(v)] + full[static_cast<size_t>(v)])];
    for (int a = f.arc_off[static_cast<size_t>(v)]; a < f.arc_off[static_cast<size_t>(v) + 1]; ++a) {
      const FlatCore::Arc& arc = f.arcs[static_cast<size_t>(a)];
      if (arc.peer > v) {
        total += f.ArcCost(arc, full[static_cast<size_t>(v)], full[static_cast<size_t>(arc.peer)]);
      }
    }
  }
  return total;
}

}  // namespace alpa
