// Compile-speed benchmark for the ILP solver pipeline (presolve + the
// diffusion-bounded flat branch & bound).
//
// Compilations of the fig8 GPT setting (GPT-2.6B on 8 GPUs, 16 target
// layers) drive the measurement:
//   cold     - all caches cleared
//   cold#2   - all caches cleared again (the cold figure is the min of two)
//   warm     - again without clearing (memo hits)
// All three plans must be bit-identical (PlanEquals): the pipeline is
// deterministic and the memo layer is exact. The presolve effectiveness
// counters (nodes/choices/edges before and after) come from the interned
// Metrics registry, reported as per-run deltas, as do the anytime gap
// statistics (max/mean relative optimality gap over each run's aborted
// solves) and the ILP builds next to the solves (one build per layer and
// mesh serves all of its memory modes). Each run also reports its heap
// allocations, counted by this binary's own global operator new, and its
// core-memo hits.
//
// Usage: compile_speed [--threads N] [--json PATH]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "bench/bench_util.h"
#include "src/core/api.h"
#include "src/intra/ilp_cache.h"
#include "src/models/gpt.h"
#include "src/support/trace.h"

namespace {

std::atomic<long long> g_heap_allocations{0};

}  // namespace

// Every global allocation of this binary passes here (the array and
// nothrow forms forward to it), so a run's delta is its allocation count.
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

// Cumulative presolve counters; subtract two snapshots for one run.
struct PresolveSnapshot {
  long long nodes_in = 0;
  long long nodes_out = 0;
  long long choices_in = 0;
  long long choices_out = 0;
  long long edges_in = 0;
  long long edges_out = 0;
  long long optimal = 0;
  long long aborted = 0;
  long long explored = 0;
  long long gap_ppm_sum = 0;
  long long presolve_micros = 0;
  long long key_micros = 0;
  long long bnb_micros = 0;
  long long diffusion_micros = 0;
  long long diffusion_sweeps = 0;
  long long builds = 0;
  long long build_micros = 0;
  long long enum_micros = 0;
  long long edge_micros = 0;
  long long core_memo_hits = 0;
  long long heap_allocations = 0;

  static PresolveSnapshot Take() {
    using alpa::Metrics;
    PresolveSnapshot s;
    s.heap_allocations = g_heap_allocations.load(std::memory_order_relaxed);
    s.core_memo_hits = Metrics::Value("ilp/core_memo/hits");
    s.presolve_micros = Metrics::Value("ilp/presolve/micros");
    s.key_micros = Metrics::Value("ilp/core_memo/key_micros");
    s.bnb_micros = Metrics::Value("ilp/bnb/micros");
    s.diffusion_micros = Metrics::Value("ilp/diffusion/micros");
    s.diffusion_sweeps = Metrics::Value("ilp/diffusion/sweeps");
    s.builds = Metrics::Value("ilp/builds");
    s.build_micros = Metrics::Value("ilp/build/micros");
    s.enum_micros = Metrics::Value("ilp/build/enum_micros");
    s.edge_micros = Metrics::Value("ilp/build/edge_micros");
    s.nodes_in = Metrics::Value("ilp/presolve/nodes_in");
    s.nodes_out = Metrics::Value("ilp/presolve/nodes_out");
    s.choices_in = Metrics::Value("ilp/presolve/choices_in");
    s.choices_out = Metrics::Value("ilp/presolve/choices_out");
    s.edges_in = Metrics::Value("ilp/presolve/edges_in");
    s.edges_out = Metrics::Value("ilp/presolve/edges_out");
    s.optimal = Metrics::Value("ilp/outcome/optimal");
    s.aborted = Metrics::Value("ilp/outcome/aborted");
    s.explored = Metrics::Value("ilp/outcome/explored");
    s.gap_ppm_sum = Metrics::Value("ilp/outcome/gap_ppm_sum");
    return s;
  }
  PresolveSnapshot Delta(const PresolveSnapshot& before) const {
    PresolveSnapshot d;
    d.nodes_in = nodes_in - before.nodes_in;
    d.nodes_out = nodes_out - before.nodes_out;
    d.choices_in = choices_in - before.choices_in;
    d.choices_out = choices_out - before.choices_out;
    d.edges_in = edges_in - before.edges_in;
    d.edges_out = edges_out - before.edges_out;
    d.optimal = optimal - before.optimal;
    d.aborted = aborted - before.aborted;
    d.explored = explored - before.explored;
    d.gap_ppm_sum = gap_ppm_sum - before.gap_ppm_sum;
    d.presolve_micros = presolve_micros - before.presolve_micros;
    d.key_micros = key_micros - before.key_micros;
    d.bnb_micros = bnb_micros - before.bnb_micros;
    d.diffusion_micros = diffusion_micros - before.diffusion_micros;
    d.diffusion_sweeps = diffusion_sweeps - before.diffusion_sweeps;
    d.builds = builds - before.builds;
    d.build_micros = build_micros - before.build_micros;
    d.enum_micros = enum_micros - before.enum_micros;
    d.edge_micros = edge_micros - before.edge_micros;
    d.core_memo_hits = core_memo_hits - before.core_memo_hits;
    d.heap_allocations = heap_allocations - before.heap_allocations;
    return d;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace alpa;
  using namespace alpa::bench;

  const BenchFlags flags = ParseBenchFlags(argc, argv, 1);
  InitBench(flags);

  // The fig8 GPT single-host setting, same as table4_breakdown: enough
  // distinct (layer, variant) ILP solves to make solver time dominate.
  const std::vector<GptBenchmarkCase> cases = GptPaperCases();
  const GptBenchmarkCase& bench_case = cases[2];
  GptConfig config = bench_case.config;
  config.microbatch = 8;
  const ClusterSpec cluster = ClusterFor(bench_case.num_gpus);

  const auto compile = [&] {
    Graph graph = BuildGpt(config);
    ParallelizeOptions options = BaselineOptionTemplate();
    options.inter.num_microbatches =
        static_cast<int>(bench_case.global_batch / config.microbatch);
    options.inter.target_layers = 16;
    options.inter.compile_threads = flags.threads;
    return Parallelize(graph, cluster, options);
  };

  std::printf("=== compile_speed: ILP solver pipeline, %s on %d GPUs ===\n",
              bench_case.name.c_str(), bench_case.num_gpus);
  std::printf("%-14s %10s | %8s %8s %8s %8s | %10s %12s %10s | %6s %6s %10s\n", "run",
              "total(s)", "builds", "solves", "hits", "misses", "nodes", "choices", "edges", "opt",
              "abort", "explored");

  JsonReport report("compile_speed");
  struct RunResult {
    StatusOr<ParallelPlan> plan = Status::Internal("not run");
    double seconds = 0.0;
  };

  const auto run = [&](const char* name, bool cold) {
    if (cold) {
      IlpMemoCache::Global().Clear();  // Also clears the solver core memo.
    }
    // Per-run worst gap: the metric's high-water mark since this reset.
    Metrics::Get("ilp/outcome/gap_ppm_max")->Reset();
    const PresolveSnapshot before = PresolveSnapshot::Take();
    RunResult r;
    r.plan = compile();
    if (!r.plan.ok()) {
      std::printf("%-14s compilation failed: %s\n", name, r.plan.status().ToString().c_str());
      return r;
    }
    const PresolveSnapshot d = PresolveSnapshot::Take().Delta(before);
    const CompileStats& stats = r.plan->compile_stats;
    r.seconds = stats.total_seconds;
    std::printf("%-14s %10.3f | %8lld %8lld %8lld %8lld | %5lld>%-5lld %6lld>%-6lld %5lld>%-5lld"
                " | %6lld %6lld %10lld\n",
                name, stats.total_seconds, d.builds, static_cast<long long>(stats.ilp_solves),
                static_cast<long long>(stats.ilp_cache_hits),
                static_cast<long long>(stats.ilp_cache_misses), d.nodes_in, d.nodes_out,
                d.choices_in, d.choices_out, d.edges_in, d.edges_out, d.optimal, d.aborted,
                d.explored);
    if (d.optimal + d.aborted > 0) {
      // Search includes building each flat core, whose min-sum diffusion
      // is broken out; the core-memo keys sit between presolve and search.
      std::printf("%-14s stage time: presolve %.3fs, core keys %.3fs, search %.3fs"
                  " (diffusion %.3fs, %lld sweeps)\n",
                  "", d.presolve_micros * 1e-6, d.key_micros * 1e-6, d.bnb_micros * 1e-6,
                  d.diffusion_micros * 1e-6, d.diffusion_sweeps);
    }
    if (d.build_micros > 0) {
      // Build time includes deriving the memory-mode problems by
      // restriction, which is neither enumeration nor edge assembly.
      std::printf("%-14s pipeline: build %.3fs (enum %.3fs, edges %.3fs)\n", "",
                  d.build_micros * 1e-6, d.enum_micros * 1e-6, d.edge_micros * 1e-6);
    }
    std::printf("%-14s heap: %lld allocations, core memo hits %lld\n", "", d.heap_allocations,
                d.core_memo_hits);
    const double max_gap = Metrics::MaxValue("ilp/outcome/gap_ppm_max") * 1e-6;
    const double mean_gap = d.aborted > 0 ? (d.gap_ppm_sum * 1e-6) / d.aborted : 0.0;
    if (d.aborted > 0) {
      std::printf("%-14s anytime: max gap %.4f%%, mean gap %.4f%% over %lld aborts\n", "",
                  max_gap * 100.0, mean_gap * 100.0, d.aborted);
    }
    std::fflush(stdout);
    report.AddRow()
        .Str("run", name)
        .Bool("cold", cold)
        .Num("total_seconds", stats.total_seconds)
        .Int("ilp_builds", d.builds)
        .Int("ilp_solves", static_cast<long long>(stats.ilp_solves))
        .Int("ilp_cache_hits", static_cast<long long>(stats.ilp_cache_hits))
        .Int("ilp_cache_misses", static_cast<long long>(stats.ilp_cache_misses))
        .Int("presolve_nodes_in", d.nodes_in)
        .Int("presolve_nodes_out", d.nodes_out)
        .Int("presolve_choices_in", d.choices_in)
        .Int("presolve_choices_out", d.choices_out)
        .Int("presolve_edges_in", d.edges_in)
        .Int("presolve_edges_out", d.edges_out)
        .Int("solves_optimal", d.optimal)
        .Int("solves_aborted", d.aborted)
        .Num("max_optimality_gap", max_gap)
        .Num("mean_optimality_gap", mean_gap)
        .Int("search_nodes_explored", d.explored)
        .Num("build_seconds", d.build_micros * 1e-6)
        .Num("enum_seconds", d.enum_micros * 1e-6)
        .Num("edge_seconds", d.edge_micros * 1e-6)
        .Num("presolve_seconds", d.presolve_micros * 1e-6)
        .Num("core_key_seconds", d.key_micros * 1e-6)
        .Num("search_seconds", d.bnb_micros * 1e-6)
        .Num("diffusion_seconds", d.diffusion_micros * 1e-6)
        .Int("diffusion_sweeps", d.diffusion_sweeps)
        .Int("core_memo_hits", d.core_memo_hits)
        .Int("heap_allocations", d.heap_allocations);
    return r;
  };

  // Two cold runs; the summary uses their minimum (standard wall-clock
  // practice: the min measures the code, the spread measures ambient
  // machine load). The warm run follows directly: it must hit the memo
  // entries the cold runs just wrote.
  const RunResult cold = run("cold", /*cold=*/true);
  const RunResult cold2 = run("cold#2", /*cold=*/true);
  const RunResult warm = run("warm", /*cold=*/false);
  if (!cold.plan.ok() || !cold2.plan.ok() || !warm.plan.ok()) {
    return 1;
  }

  // Cold and warm compiles must agree bit-for-bit: the pipeline is
  // deterministic and every memo hit is exact.
  const bool identical = PlanEquals(cold.plan->pipeline, cold2.plan->pipeline) &&
                         PlanEquals(cold.plan->pipeline, warm.plan->pipeline);
  const double cold_seconds = std::min(cold.seconds, cold2.seconds);
  std::printf("\nplans bit-identical (cold vs cold#2 vs warm): %s\n",
              identical ? "yes" : "NO (BUG)");
  std::printf("cold compile (min of two): %.3fs, warm compile: %.3fs\n", cold_seconds,
              warm.seconds);

  report.AddRow()
      .Str("run", "summary")
      .Bool("plans_identical", identical)
      .Num("cold_seconds", cold_seconds)
      .Num("warm_seconds", warm.seconds);
  if (!report.Write(flags.json_path)) {
    return 1;
  }
  return identical ? 0 : 1;
}
