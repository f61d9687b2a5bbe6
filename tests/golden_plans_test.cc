// Golden plan corpus: all 18 Fig. 8 paper cases (1 to 64 GPUs) for GPT,
// MoE and Wide-ResNet, compiled with the fig8 benches' microbatch and
// target-layer settings under the bench search budget. Each case has one
// line in tests/golden/fig8_plans.txt:
//
//   <case> <gpus> stages=<n> dp_latency=<%a> pflops=<%a> plan=<fnv1a64>
//
// `plan` hashes exactly the fields PlanEquals compares, so any drift a
// PlanEquals check would see fails here, and dp_latency / pflops pin the
// DP objective and the simulated Fig. 8 metric bit for bit. On a mismatch
// the test prints the full replacement line; a change that moves a plan
// must update the corpus and say why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/api.h"
#include "src/intra/ilp_cache.h"
#include "src/models/gpt.h"
#include "src/models/moe.h"
#include "src/models/wide_resnet.h"
#include "src/support/hashing.h"

namespace alpa {
namespace {

struct GoldenCase {
  std::string name;
  int num_gpus = 1;
  std::function<Graph()> build;
  int num_microbatches = 1;
  int target_layers = 1;
};

// The settings of bench/fig8_gpt, fig8_moe and fig8_wresnet.
std::vector<GoldenCase> Fig8Cases() {
  std::vector<GoldenCase> cases;
  for (const GptBenchmarkCase& c : GptPaperCases()) {
    GptConfig config = c.config;
    config.microbatch = 8;
    cases.push_back({c.name, c.num_gpus, [config] { return BuildGpt(config); },
                     static_cast<int>(c.global_batch / config.microbatch),
                     c.num_gpus >= 8 ? 16 : 8});
  }
  for (const MoeBenchmarkCase& c : MoePaperCases()) {
    MoeConfig config = c.config;
    config.microbatch = 8;
    cases.push_back({c.name, c.num_gpus, [config] { return BuildMoe(config); },
                     static_cast<int>(c.global_batch / config.microbatch),
                     static_cast<int>(config.num_layers)});
  }
  for (const WideResNetBenchmarkCase& c : WideResNetPaperCases()) {
    WideResNetConfig config = c.config;
    config.microbatch = 24;
    cases.push_back({c.name, c.num_gpus, [config] { return BuildWideResNet(config); },
                     static_cast<int>(c.global_batch / config.microbatch), 16});
  }
  return cases;
}

// FNV-1a-64 over exactly the fields PlanEquals compares, in its order.
uint64_t PlanFingerprint(const CompiledPipeline& p) {
  Fnv1a64 h;
  h.Bool(p.feasible).I32(p.num_microbatches).Double(p.dp_latency).Double(p.max_stage_latency);
  h.U64(p.stages.size());
  for (const CompiledStage& s : p.stages) {
    h.I32(s.layer_begin).I32(s.layer_end);
    h.I32(s.placement.host_begin).I32(s.placement.device_begin);
    h.I32(s.placement.shape.num_hosts).I32(s.placement.shape.devices_per_host);
    h.I32(s.logical_shape[0]).I32(s.logical_shape[1]);
    h.Double(s.t_intra).Double(s.t_forward).Double(s.t_backward).Double(s.t_per_iteration);
    h.Double(s.weight_bytes).Double(s.act_bytes_per_microbatch).Double(s.work_bytes);
    h.U64(s.op_spec_summary.size());
    for (const auto& [op, spec] : s.op_spec_summary) {
      h.Str(op).Str(spec);
    }
    h.U64(s.sends_to_next.size());
    for (const CrossStageTensor& t : s.sends_to_next) {
      h.U64(t.shape.dims().size());
      for (int64_t d : t.shape.dims()) h.I64(d);
      h.I64(t.dtype_bytes).Str(t.src_spec.ToString()).Str(t.dst_spec.ToString());
      h.Bool(t.forward).I32(t.producer_op);
    }
  }
  return h.hash();
}

std::string GoldenLine(const GoldenCase& c, const ParallelPlan& plan, double pflops) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%s %d stages=%zu dp_latency=%a pflops=%a plan=%016" PRIx64,
                c.name.c_str(), c.num_gpus, plan.pipeline.stages.size(),
                plan.pipeline.dp_latency, pflops, PlanFingerprint(plan.pipeline));
  return buffer;
}

// Corpus lines keyed on "<case> <gpus>".
std::map<std::string, std::string> LoadCorpus() {
  std::map<std::string, std::string> lines;
  std::ifstream in(ALPA_GOLDEN_PLANS);
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find(' ');
    const size_t second = first == std::string::npos ? first : line.find(' ', first + 1);
    if (second != std::string::npos) {
      lines[line.substr(0, second)] = line;
    }
  }
  return lines;
}

TEST(GoldenPlans, Fig8CorpusMatches) {
  const std::map<std::string, std::string> corpus = LoadCorpus();
  const std::vector<GoldenCase> cases = Fig8Cases();
  ASSERT_EQ(cases.size(), 18u);
  for (const GoldenCase& c : cases) {
    IlpMemoCache::Global().Clear();  // Each line is a cold compile.
    Graph graph = c.build();
    const ClusterSpec cluster = bench::ClusterFor(c.num_gpus);
    // Plans do not depend on the thread count, so compile at hardware
    // concurrency.
    const ParallelizeOptions options = ParallelizeOptions::Builder()
                                           .search_budget(bench::kBenchSearchBudget)
                                           .microbatches(c.num_microbatches)
                                           .target_layers(c.target_layers)
                                           .threads(0)
                                           .Build();
    const StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
    ASSERT_TRUE(plan.ok()) << c.name << ": " << plan.status().ToString();
    const StatusOr<ExecutionStats> stats = Simulate(plan.value(), graph, cluster);
    ASSERT_TRUE(stats.ok()) << c.name << ": " << stats.status().ToString();
    const std::string key = c.name + " " + std::to_string(c.num_gpus);
    const std::string actual = GoldenLine(c, plan.value(), stats->pflops);
    const auto it = corpus.find(key);
    EXPECT_TRUE(it != corpus.end() && it->second == actual)
        << "golden plan drift for " << key << "\n  expected: "
        << (it == corpus.end() ? "(missing)" : it->second) << "\n  replacement line:\n"
        << actual;
  }
}

}  // namespace
}  // namespace alpa
