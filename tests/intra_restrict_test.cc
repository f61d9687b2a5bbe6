// Bitwise oracle for RestrictIntraOpProblem. The stage profiler builds each
// (layer, mesh) ILP once and derives the ZeRO-2 and ZeRO-3 problems from it
// by in-place restriction; the oracle is a build with the memory mode's
// predicate as IntraOpOptions::filter. Every algorithm's specs and costs,
// the per-iteration flags, the node costs and every edge's (u, v, cost)
// must agree byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/inter/inter_pass.h"
#include "src/inter/stage_extraction.h"
#include "src/inter/stage_profiler.h"
#include "src/intra/intra_pass.h"
#include "src/mesh/submesh.h"
#include "src/models/gpt.h"
#include "src/models/mlp.h"
#include "src/models/moe.h"
#include "src/models/wide_resnet.h"
#include "src/solver/operator_clustering.h"
#include "src/support/strings.h"

namespace alpa {
namespace {

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBytes(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

::testing::AssertionResult ProblemsIdentical(const IntraOpProblem& expected,
                                             const IntraOpProblem& actual) {
  if (expected.merge.decision_ops != actual.merge.decision_ops) {
    return ::testing::AssertionFailure() << "decision ops differ";
  }
  if (expected.node_per_iteration != actual.node_per_iteration ||
      expected.edge_per_iteration != actual.edge_per_iteration) {
    return ::testing::AssertionFailure() << "per-iteration flags differ";
  }
  if (expected.algorithms.size() != actual.algorithms.size() ||
      expected.ilp.node_costs.size() != actual.ilp.node_costs.size()) {
    return ::testing::AssertionFailure() << "node counts differ";
  }
  for (size_t n = 0; n < expected.algorithms.size(); ++n) {
    const auto& want = expected.algorithms[n];
    const auto& got = actual.algorithms[n];
    if (want.size() != got.size()) {
      return ::testing::AssertionFailure()
             << "node " << n << ": " << got.size() << " choices, expected " << want.size();
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (want[i].name != got[i].name || !(want[i].output_spec == got[i].output_spec) ||
          want[i].input_specs != got[i].input_specs ||
          !SameBytes(want[i].comm_cost, got[i].comm_cost) ||
          !SameBytes(want[i].compute_cost, got[i].compute_cost)) {
        return ::testing::AssertionFailure()
               << "node " << n << " choice " << i << ": '" << got[i].name << "', expected '"
               << want[i].name << "'";
      }
    }
    if (!SameBytes(expected.ilp.node_costs[n], actual.ilp.node_costs[n])) {
      return ::testing::AssertionFailure() << "node " << n << ": node costs differ";
    }
  }
  if (expected.ilp.edges.size() != actual.ilp.edges.size()) {
    return ::testing::AssertionFailure() << "edge counts differ";
  }
  for (size_t e = 0; e < expected.ilp.edges.size(); ++e) {
    const IlpProblem::Edge& want = expected.ilp.edges[e];
    const IlpProblem::Edge& got = actual.ilp.edges[e];
    if (want.u != got.u || want.v != got.v || want.cost.rows() != got.cost.rows() ||
        want.cost.cols() != got.cost.cols()) {
      return ::testing::AssertionFailure() << "edge " << e << ": endpoints or shape differ";
    }
    for (int i = 0; i < want.cost.rows(); ++i) {
      if (std::memcmp(want.cost.row(i), got.cost.row(i),
                      static_cast<size_t>(want.cost.cols()) * sizeof(double)) != 0) {
        return ::testing::AssertionFailure() << "edge " << e << " row " << i << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// The oracle: a build with `keep` composed into the options' own filter.
IntraOpProblem FilteredBuild(const Graph& graph, const DeviceMesh& mesh, IntraOpOptions options,
                             const AlgorithmFilter& keep) {
  const AlgorithmFilter base = options.filter;
  options.filter = [base, keep](const Graph& g, const DeviceMesh& m, const Operator& op,
                                const ParallelAlgorithm& a) {
    return (!base || base(g, m, op, a)) && keep(g, m, op, a);
  };
  return BuildIntraOpProblem(graph, mesh, options);
}

// Choices the restriction removed, and nodes it left with the fallback.
struct RestrictionStats {
  int64_t dropped = 0;
  int fallbacks = 0;
  bool fallback_has_compute_cost = false;
};

// Checks the profiler's chain — build, restrict to ZeRO-2, restrict that
// to ZeRO-3 — against a filtered build per mode, plus ZeRO-3 restricted
// straight from the full build.
void ExpectRestrictionsMatchFilteredBuilds(const Graph& graph, const DeviceMesh& mesh,
                                           const IntraOpOptions& options,
                                           const std::string& label,
                                           RestrictionStats* stats) {
  SCOPED_TRACE(label);
  const IntraOpProblem full = BuildIntraOpProblem(graph, mesh, options);
  IntraOpProblem chained = full;
  for (MemoryMode mode : {MemoryMode::kShardOptimizer, MemoryMode::kShardWeights}) {
    const AlgorithmFilter keep = MemoryModeFilter(mode);
    const IntraOpProblem oracle = FilteredBuild(graph, mesh, options, keep);
    RestrictIntraOpProblem(graph, mesh, options, keep, &chained);
    EXPECT_TRUE(ProblemsIdentical(oracle, chained)) << "mode " << static_cast<int>(mode);
    if (mode == MemoryMode::kShardWeights) {
      IntraOpProblem direct = full;
      RestrictIntraOpProblem(graph, mesh, options, keep, &direct);
      EXPECT_TRUE(ProblemsIdentical(oracle, direct)) << "direct ZeRO-3";
    }
  }
  for (size_t n = 0; n < full.algorithms.size(); ++n) {
    const auto& menu = chained.algorithms[n];
    stats->dropped += static_cast<int64_t>(full.algorithms[n].size() - menu.size());
    if (menu.size() == 1 && menu[0].name == "replicated" &&
        std::none_of(full.algorithms[n].begin(), full.algorithms[n].end(),
                     [&](const ParallelAlgorithm& a) {
                       return a.name == "replicated" &&
                              SameBytes(a.compute_cost, menu[0].compute_cost);
                     })) {
      ++stats->fallbacks;
      stats->fallback_has_compute_cost |= menu[0].compute_cost > 0.0;
    }
  }
}

DeviceMesh MeshOf(const ClusterSpec& cluster, SubmeshShape shape, std::array<int, 2> logical) {
  MeshPlacement placement;
  placement.shape = shape;
  return DeviceMesh::Create(cluster, placement, logical);
}

// The dedup-canonical layer subgraphs of `graph`, clustered as the inter-op
// pass clusters it.
std::vector<StageSubgraph> CanonicalLayers(Graph graph, int target_layers) {
  const InterOpOptions defaults;
  ClusteringOptions copts;
  copts.num_layers = target_layers;
  copts.method = defaults.clustering;
  const ClusteringResult clustering = ClusterOperators(graph, copts);
  EXPECT_TRUE(clustering.feasible);
  AssignLayers(graph, clustering);
  std::vector<StageSubgraph> layers;
  std::unordered_set<uint64_t> seen;
  for (int l = 0; l < graph.NumLayers(); ++l) {
    StageSubgraph layer = ExtractStage(graph, l, l);
    if (seen.insert(StructuralHash(layer.graph)).second) {
      layers.push_back(std::move(layer));
    }
  }
  return layers;
}

// Every canonical layer of a fig8 bench config on each of the ten 8-GPU
// (physical, logical) meshes.
void CheckFig8Model(Graph graph, int num_microbatches, int target_layers,
                    size_t expected_layers) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  IntraOpOptions options;
  options.num_microbatches = num_microbatches;
  const std::vector<StageSubgraph> layers = CanonicalLayers(std::move(graph), target_layers);
  EXPECT_EQ(layers.size(), expected_layers);
  int meshes = 0;
  RestrictionStats stats;
  for (const SubmeshShape& shape : EnumerateSubmeshShapes(cluster)) {
    for (const std::array<int, 2>& logical : DeviceMesh::LogicalShapeOptions(shape)) {
      ++meshes;
      const DeviceMesh mesh = MeshOf(cluster, shape, logical);
      for (size_t l = 0; l < layers.size(); ++l) {
        ExpectRestrictionsMatchFilteredBuilds(
            layers[l].graph, mesh, options,
            StrFormat("layer %zu on %s log(%d,%d)", l, shape.ToString().c_str(), logical[0],
                      logical[1]),
            &stats);
      }
    }
  }
  EXPECT_EQ(meshes, 10);
  EXPECT_GT(stats.dropped, 0);
}

TEST(RestrictIntraOp, Fig8GptMatchesFilteredBuilds) {
  GptBenchmarkCase c = GptPaperCases()[2];
  ASSERT_EQ(c.num_gpus, 8);
  c.config.microbatch = 8;
  CheckFig8Model(BuildGpt(c.config), static_cast<int>(c.global_batch / c.config.microbatch), 16,
                 5);
}

TEST(RestrictIntraOp, Fig8MoeMatchesFilteredBuilds) {
  MoeBenchmarkCase c = MoePaperCases()[2];
  ASSERT_EQ(c.num_gpus, 8);
  c.config.microbatch = 8;
  CheckFig8Model(BuildMoe(c.config), static_cast<int>(c.global_batch / c.config.microbatch),
                 static_cast<int>(c.config.num_layers), 11);
}

TEST(RestrictIntraOp, Fig8WideResNetMatchesFilteredBuilds) {
  WideResNetBenchmarkCase c = WideResNetPaperCases()[2];
  ASSERT_EQ(c.num_gpus, 8);
  c.config.microbatch = 24;
  CheckFig8Model(BuildWideResNet(c.config),
                 static_cast<int>(c.global_batch / c.config.microbatch), 16, 15);
}

TEST(RestrictIntraOp, OneDeviceMeshFallsBackToReplicated) {
  // On one device nothing can be sharded, so every large update and
  // parameter loses all its choices.
  MlpConfig config;
  config.batch = 8;
  config.input_dim = 64;
  config.hidden_dims = {64};
  config.output_dim = 64;
  const Graph graph = BuildMlp(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 1);
  IntraOpOptions options;
  options.num_microbatches = 4;
  RestrictionStats stats;
  ExpectRestrictionsMatchFilteredBuilds(graph, MeshOf(cluster, SubmeshShape{1, 1}, {1, 1}),
                                        options, "1 device", &stats);
  EXPECT_GT(stats.fallbacks, 0);
}

TEST(RestrictIntraOp, IndivisibleUpdateFallsBackWithComputeCost) {
  // 33x35 and 35x31 weights (over 1024 elements) have no dimension the
  // mesh axes divide, so ZeRO drops every choice of their updates; the
  // fallback pays the compute it leaves idle on the other devices.
  MlpConfig config;
  config.batch = 8;
  config.input_dim = 33;
  config.hidden_dims = {35};
  config.output_dim = 31;
  const Graph graph = BuildMlp(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  IntraOpOptions options;
  options.num_microbatches = 4;
  for (const std::array<int, 2>& logical :
       std::vector<std::array<int, 2>>{{1, 2}, {2, 4}, {1, 8}}) {
    const SubmeshShape shape{1, logical[0] * logical[1]};
    RestrictionStats stats;
    ExpectRestrictionsMatchFilteredBuilds(
        graph, MeshOf(cluster, shape, logical), options,
        StrFormat("log(%d,%d)", logical[0], logical[1]), &stats);
    EXPECT_GE(stats.fallbacks, 2);
    EXPECT_TRUE(stats.fallback_has_compute_cost);
  }
}

TEST(RestrictIntraOp, ComposesWithABaselineFilter) {
  // A baseline that keeps only replicated outputs, built with that filter
  // and then restricted by a mode, equals a build under both filters.
  MlpConfig config;
  config.batch = 16;
  config.input_dim = 64;
  config.hidden_dims = {128};
  config.output_dim = 64;
  const Graph graph = BuildMlp(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  IntraOpOptions options;
  options.num_microbatches = 2;
  options.filter = [](const Graph&, const DeviceMesh&, const Operator&,
                      const ParallelAlgorithm& a) { return a.output_spec.IsFullyReplicated(); };
  RestrictionStats stats;
  ExpectRestrictionsMatchFilteredBuilds(graph, MeshOf(cluster, SubmeshShape{1, 8}, {2, 4}),
                                        options, "replicated-only baseline", &stats);
  EXPECT_GT(stats.fallbacks, 0);
}

// Reverses the order of every node's choices: menus, node costs, and the
// rows and columns of every edge.
void ReverseChoices(IntraOpProblem* problem) {
  for (size_t n = 0; n < problem->algorithms.size(); ++n) {
    std::reverse(problem->algorithms[n].begin(), problem->algorithms[n].end());
    std::reverse(problem->ilp.node_costs[n].begin(), problem->ilp.node_costs[n].end());
  }
  // Row-major, so reversing the cells reverses the rows and each row.
  for (IlpProblem::Edge& edge : problem->ilp.edges) {
    std::reverse(edge.cost.data(), edge.cost.data() + edge.cost.size());
  }
}

TEST(RestrictIntraOp, FallbackTakesTheFullyReplicatedChoicesEdges) {
  // Enumeration lists the fully replicated choice first. With the menus
  // reversed, a predicate that drops every choice of the contractions
  // leaves each on the fallback, whose edge entries must still come from
  // the choice with all-replicated output and inputs: neither the first
  // choice nor the first with a replicated output (a sharded contraction
  // plus all-reduce) has the same entries.
  MlpConfig config;
  config.batch = 16;
  config.input_dim = 64;
  config.hidden_dims = {128};
  config.output_dim = 64;
  const Graph graph = BuildMlp(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 8);
  const DeviceMesh mesh = MeshOf(cluster, SubmeshShape{1, 8}, {2, 4});
  IntraOpOptions options;
  options.num_microbatches = 2;
  const AlgorithmFilter keep = [](const Graph&, const DeviceMesh&, const Operator& op,
                                  const ParallelAlgorithm&) {
    return op.type != OpType::kEinsum;
  };
  IntraOpProblem restricted = BuildIntraOpProblem(graph, mesh, options);
  ReverseChoices(&restricted);
  bool first_is_sharded = false;
  bool first_replicated_output_has_sharded_inputs = false;
  for (size_t n = 0; n < restricted.algorithms.size(); ++n) {
    if (graph.op(restricted.merge.decision_ops[n]).type != OpType::kEinsum) {
      continue;
    }
    const auto& menu = restricted.algorithms[n];
    const auto replicated_output =
        std::find_if(menu.begin(), menu.end(), [](const ParallelAlgorithm& a) {
          return a.output_spec.IsFullyReplicated();
        });
    ASSERT_NE(replicated_output, menu.end());
    first_is_sharded |= !menu[0].output_spec.IsFullyReplicated();
    first_replicated_output_has_sharded_inputs |= std::any_of(
        replicated_output->input_specs.begin(), replicated_output->input_specs.end(),
        [](const ShardingSpec& spec) { return !spec.IsFullyReplicated(); });
  }
  EXPECT_TRUE(first_is_sharded);
  EXPECT_TRUE(first_replicated_output_has_sharded_inputs);
  RestrictIntraOpProblem(graph, mesh, options, keep, &restricted);
  IntraOpProblem oracle = FilteredBuild(graph, mesh, options, keep);
  ReverseChoices(&oracle);
  EXPECT_TRUE(ProblemsIdentical(oracle, restricted));
}

}  // namespace
}  // namespace alpa
