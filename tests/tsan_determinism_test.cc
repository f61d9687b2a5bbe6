// ThreadSanitizer harness for the parallel compilation pipeline.
//
// First runs the branch & bound's root-parallel search on a budget that
// aborts it, serially and on 4 threads, and checks the results are
// bit-identical. Then compiles a tiny GPT serially and with 4 worker
// threads under -fsanitize=thread (this whole binary, library sources
// included, is TSan-instrumented by tests/CMakeLists.txt) and checks
// PlanEquals. Any
// data race in the profiler's once_flag cells, the memo cache, the stage
// DP's parallel precompute, or the pool itself fails the run. Tracing is
// enabled for both compiles so the recorder's lane buffers, the metrics
// registry, and the exporter run under TSan too, and the "compile"-category
// span multiset must be identical across thread counts. Kept small: TSan
// slows execution by an order of magnitude.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/inter/inter_pass.h"
#include "src/intra/ilp_cache.h"
#include "src/models/gpt.h"
#include "src/solver/flat_bnb.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "tests/ilp_oracle.h"

namespace {

// A dense instance from the flat branch & bound's redistribution tests. Its
// proof takes 1,036 nodes, so a 1,000-node budget aborts.
alpa::IlpProblem DenseProblem() {
  alpa::Rng rng(45);
  return alpa::RandomProblem(rng, 14, 5, 0.8);
}

// Runs the root-parallel branch & bound over the pool under TSan, with a
// budget that aborts so the budget redistribution rounds run too, and
// checks the 4-thread result is bit-identical to the serial one. Returns
// false on any divergence.
bool CheckSearchRace() {
  const alpa::IlpProblem problem = DenseProblem();
  alpa::FlatSearchOptions options;
  options.budget = 1'000;
  const alpa::FlatSearchResult serial = alpa::SolveCore(problem, options);

  alpa::ThreadPool pool(4);
  alpa::FlatSearchOptions pooled = options;
  pooled.pool = &pool;
  const alpa::FlatSearchResult parallel = alpa::SolveCore(problem, pooled);

  if (!serial.feasible || !parallel.feasible) {
    std::fprintf(stderr, "FAIL: search infeasible (serial=%d parallel=%d)\n",
                 serial.feasible, parallel.feasible);
    return false;
  }
  if (!serial.aborted) {
    std::fprintf(stderr, "FAIL: search proved optimality; the budget must abort it\n");
    return false;
  }
  if (serial.choice != parallel.choice || serial.objective != parallel.objective ||
      serial.lower_bound != parallel.lower_bound || serial.explored != parallel.explored ||
      serial.aborted != parallel.aborted) {
    std::fprintf(stderr, "FAIL: search result differs across thread counts\n");
    return false;
  }
  return true;
}

// Multiset of "category/name(args)" for compile-category spans. Pool-category
// spans ("pool_task", "profiling_sweep") vary with the thread count by
// design and are excluded.
std::map<std::string, int> CompileSpanSet() {
  std::map<std::string, int> set;
  for (const alpa::TraceEvent& e : alpa::Trace::Snapshot()) {
    if (!e.virtual_time && e.category == "compile") {
      ++set[e.name + "(" + e.args + ")"];
    }
  }
  return set;
}

}  // namespace

int main() {
  using namespace alpa;
  if (!CheckSearchRace()) {
    return 1;
  }
  GptConfig config;
  config.hidden = 128;
  config.num_layers = 2;
  config.num_heads = 4;
  config.microbatch = 2;
  config.seq_len = 64;
  config.vocab = 512;

  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 2);
  InterOpOptions options;
  options.num_microbatches = 4;
  options.target_layers = 2;
  options.profiler.intra.solver.max_search_nodes = 5'000;

  if (Trace::kCompiledIn) {
    Trace::Enable();
  }

  IlpMemoCache::Global().Clear();
  Trace::Clear();
  Graph serial_graph = BuildGpt(config);
  options.compile_threads = 1;
  const CompiledPipeline serial = RunInterOpPass(serial_graph, cluster, options);
  const std::map<std::string, int> serial_spans = CompileSpanSet();

  IlpMemoCache::Global().Clear();
  Trace::Clear();
  Graph parallel_graph = BuildGpt(config);
  options.compile_threads = 4;
  const CompiledPipeline parallel = RunInterOpPass(parallel_graph, cluster, options);
  const std::map<std::string, int> parallel_spans = CompileSpanSet();

  if (!serial.feasible || !parallel.feasible) {
    std::fprintf(stderr, "FAIL: compilation infeasible (serial=%d parallel=%d)\n",
                 serial.feasible, parallel.feasible);
    return 1;
  }
  if (!PlanEquals(serial, parallel)) {
    std::fprintf(stderr, "FAIL: parallel plan differs from serial plan\n");
    return 1;
  }
  if (Trace::kCompiledIn) {
    if (serial_spans.empty()) {
      std::fprintf(stderr, "FAIL: tracing enabled but no compile spans recorded\n");
      return 1;
    }
    if (serial_spans != parallel_spans) {
      std::fprintf(stderr, "FAIL: compile-span set differs across thread counts\n");
      for (const auto& [key, count] : serial_spans) {
        auto it = parallel_spans.find(key);
        if (it == parallel_spans.end() || it->second != count) {
          std::fprintf(stderr, "  serial has %dx %s\n", count, key.c_str());
        }
      }
      for (const auto& [key, count] : parallel_spans) {
        auto it = serial_spans.find(key);
        if (it == serial_spans.end() || it->second != count) {
          std::fprintf(stderr, "  parallel has %dx %s\n", count, key.c_str());
        }
      }
      return 1;
    }
    // Exercise the exporter under TSan as well.
    const Status written = Trace::WriteJson("tsan_trace_out.json");
    if (!written.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("OK: plans identical under TSan (%lld solves serial, %lld parallel, "
              "%zu compile span kinds)\n",
              static_cast<long long>(serial.stats.ilp_solves),
              static_cast<long long>(parallel.stats.ilp_solves), serial_spans.size());
  return 0;
}
