// BuildFlatCore against the two-orientation reference diffusion in
// tests/ilp_oracle.h. The single-orientation sweeps with cached row minima
// must reproduce the reference's layout, unary costs, both orientations of
// every edge block and the edge minima byte for byte, and must run the
// same number of sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/solver/flat_core.h"
#include "src/support/trace.h"
#include "tests/ilp_oracle.h"

namespace alpa {
namespace {

bool SameBytes(const double* a, const double* b, size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(double)) == 0;
}

// What one comparison saw, so the suites can check they covered the
// shapes they name.
struct Coverage {
  int cores = 0;
  int multi_sweep = 0;      // Diffusion ran more than one sweep.
  int isolated_nodes = 0;   // Degree-0 nodes.
  int single_choice = 0;    // Nodes with one choice and at least one edge.
  int multi_component = 0;  // Cores with two or more components.
  int large_cells = 0;      // Arena cells clamped to kFlatLarge.
};

void ExpectMatchesReference(const IlpProblem& problem, Coverage* coverage) {
  int ref_sweeps = 0;
  const FlatCore ref = ReferenceFlatCore(problem, &ref_sweeps);
  const int64_t sweeps_before = Metrics::Value("ilp/diffusion/sweeps");
  const FlatCore f = BuildFlatCore(problem);
  EXPECT_EQ(Metrics::Value("ilp/diffusion/sweeps") - sweeps_before, ref_sweeps);

  ASSERT_EQ(f.n, ref.n);
  ASSERT_EQ(f.off, ref.off);
  ASSERT_EQ(f.arc_off, ref.arc_off);
  ASSERT_EQ(f.arcs.size(), ref.arcs.size());
  for (size_t a = 0; a < f.arcs.size(); ++a) {
    ASSERT_EQ(f.arcs[a].peer, ref.arcs[a].peer) << "arc " << a;
    ASSERT_EQ(f.arcs[a].edge, ref.arcs[a].edge) << "arc " << a;
    ASSERT_EQ(f.arcs[a].base, ref.arcs[a].base) << "arc " << a;
  }
  ASSERT_EQ(f.unary.size(), ref.unary.size());
  EXPECT_TRUE(SameBytes(f.unary.data(), ref.unary.data(), f.unary.size()));
  ASSERT_EQ(f.edge_min.size(), ref.edge_min.size());
  EXPECT_TRUE(SameBytes(f.edge_min.data(), ref.edge_min.data(), f.edge_min.size()));
  ASSERT_EQ(f.arena.size(), ref.arena.size());
  // Each arc owns one orientation of its edge's block: [self][peer].
  for (int v = 0; v < f.n; ++v) {
    for (int a = f.arc_off[static_cast<size_t>(v)]; a < f.arc_off[static_cast<size_t>(v) + 1];
         ++a) {
      const FlatCore::Arc& arc = f.arcs[static_cast<size_t>(a)];
      const size_t cells = static_cast<size_t>(f.K(v)) * static_cast<size_t>(f.K(arc.peer));
      EXPECT_TRUE(SameBytes(f.arena.data() + arc.base, ref.arena.data() + arc.base, cells))
          << "edge " << arc.edge << ", block [" << v << "][" << arc.peer << "]";
    }
  }
  EXPECT_TRUE(SameBytes(f.arena.data(), ref.arena.data(), f.arena.size()));

  ++coverage->cores;
  coverage->multi_sweep += ref_sweeps > 1 ? 1 : 0;
  for (int v = 0; v < f.n; ++v) {
    coverage->isolated_nodes += f.degree(v) == 0 ? 1 : 0;
    coverage->single_choice += f.K(v) == 1 && f.degree(v) > 0 ? 1 : 0;
  }
  coverage->multi_component += f.comps.size() >= 2 ? 1 : 0;
  for (double c : f.arena) coverage->large_cells += c == kFlatLarge ? 1 : 0;
}

// Scales every edge of `problem` by its own power of ten in [1e-6, 1e3],
// so the shares and deltas mix magnitudes the way simulated seconds and
// byte-derived costs do.
void ScaleEdges(Rng& rng, IlpProblem& problem) {
  for (IlpProblem::Edge& e : problem.edges) {
    const double scale = std::pow(10.0, static_cast<double>(rng.NextBounded(10)) - 6.0);
    for (size_t c = 0; c < e.cost.size(); ++c) e.cost.data()[c] *= scale;
  }
}

TEST(FlatCoreOracle, MatchesReferenceOnRandomCores) {
  Rng rng(1301);
  Coverage coverage;
  for (int trial = 0; trial < 240; ++trial) {
    const int nodes = 2 + static_cast<int>(rng.NextBounded(11));
    const int max_choices = 1 + static_cast<int>(rng.NextBounded(9));
    const double edge_prob = rng.NextDouble(0.15, 0.95);
    IlpProblem problem = RandomProblem(rng, nodes, max_choices, edge_prob);
    if (trial % 2 == 1) {
      ScaleEdges(rng, problem);
    }
    ExpectMatchesReference(problem, &coverage);
  }
  EXPECT_EQ(coverage.cores, 240);
  EXPECT_GT(coverage.multi_sweep, 120);
  EXPECT_GT(coverage.single_choice, 0);
}

TEST(FlatCoreOracle, MatchesReferenceWithInfeasibleCells) {
  Rng rng(1302);
  Coverage coverage;
  for (int trial = 0; trial < 120; ++trial) {
    const int nodes = 3 + static_cast<int>(rng.NextBounded(8));
    const int max_choices = 2 + static_cast<int>(rng.NextBounded(6));
    const double inf_prob = trial % 3 == 0 ? 0.5 : 0.15;
    IlpProblem problem = RandomProblem(rng, nodes, max_choices, 0.6, inf_prob);
    // Some infeasible node choices too.
    for (auto& costs : problem.node_costs) {
      if (costs.size() > 1 && rng.NextDouble() < 0.2) {
        costs[rng.NextBounded(costs.size())] = kInfCost;
      }
    }
    ExpectMatchesReference(problem, &coverage);
  }
  EXPECT_GT(coverage.large_cells, 0);
  EXPECT_GT(coverage.multi_sweep, 60);
}

TEST(FlatCoreOracle, MatchesReferenceOnDisconnectedCores) {
  Rng rng(1303);
  Coverage coverage;
  for (int trial = 0; trial < 80; ++trial) {
    // Two dense random blocks side by side, then isolated nodes, some with
    // a single choice: several components and degree-0 nodes in one core.
    const IlpProblem a = RandomProblem(rng, 2 + static_cast<int>(rng.NextBounded(6)), 6, 0.7);
    const IlpProblem b = RandomProblem(rng, 2 + static_cast<int>(rng.NextBounded(6)), 6, 0.7);
    IlpProblem problem = a;
    const int shift = a.num_nodes();
    problem.node_costs.insert(problem.node_costs.end(), b.node_costs.begin(),
                              b.node_costs.end());
    for (IlpProblem::Edge e : b.edges) {
      e.u += shift;
      e.v += shift;
      problem.edges.push_back(std::move(e));
    }
    const int isolated = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < isolated; ++i) {
      problem.node_costs.push_back({rng.NextDouble(0, 10)});
    }
    ExpectMatchesReference(problem, &coverage);
  }
  EXPECT_EQ(coverage.multi_component, 80);
  EXPECT_GT(coverage.isolated_nodes, 80);
  EXPECT_GT(coverage.multi_sweep, 40);
}

}  // namespace
}  // namespace alpa
