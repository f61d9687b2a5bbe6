// ThreadSanitizer harness for the parallel compilation pipeline.
//
// First drives the thread pool on its own: a nested ParallelFor writing
// disjoint slots, an iteration that throws, and Submit stragglers left for
// the destructor. Then runs four concurrent solves of one core on a budget
// that aborts the search and checks each is bit-identical to a serial
// solve; the solver's process-wide core memo and the metrics registry are
// the state they share. Then compiles a tiny GPT serially and with 4
// worker threads under -fsanitize=thread (this whole binary, library
// sources included, is TSan-instrumented by tests/CMakeLists.txt) and
// checks PlanEquals, once under a reduced search budget and once under a
// budget that aborts searches. Any data race in the profiler's up-front
// (layer x mesh) sweep, the memo cache, or the pool itself fails the run.
// Tracing is enabled for the compiles so the recorder's lane buffers, the
// metrics registry, and the exporter run under TSan too, and the
// "compile"-category span multiset must be identical across thread
// counts. Kept small: TSan slows execution by an order of magnitude.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/inter/inter_pass.h"
#include "src/intra/ilp_cache.h"
#include "src/models/gpt.h"
#include "src/solver/ilp_solver.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"
#include "tests/ilp_oracle.h"

namespace {

// The pool's three paths: a nested 8x8 ParallelFor on 4 workers writing
// disjoint slots; an iteration that throws, rethrown once by the caller,
// after which the pool still runs loops; and Submit stragglers queued
// behind blocked workers, which the destructor runs on its own thread.
// Returns false on any failure.
bool CheckPool() {
  std::vector<int> slots(64, 0);
  std::vector<int> after_throw(16, 0);
  int rethrown = 0;
  constexpr int kStragglers = 16;
  std::atomic<int> stragglers{0};
  std::atomic<int> run_by_destructor{0};
  const std::thread::id main_thread = std::this_thread::get_id();
  std::atomic<bool> release{false};
  std::thread releaser;
  {
    alpa::ThreadPool pool(4);
    pool.ParallelFor(8, [&](int64_t outer) {
      pool.ParallelFor(8, [&](int64_t inner) { ++slots[static_cast<size_t>(outer * 8 + inner)]; });
    });
    try {
      pool.ParallelFor(100, [](int64_t i) {
        if (i == 17) {
          throw std::runtime_error("iteration 17");
        }
      });
    } catch (const std::runtime_error&) {
      ++rethrown;
    }
    pool.ParallelFor(16, [&](int64_t i) { after_throw[static_cast<size_t>(i)] = 1; });

    // Hold every worker until the destructor has had time to stop the
    // pool, so the stragglers queued behind them are left to it.
    for (int w = 0; w < pool.num_threads(); ++w) {
      pool.Submit([&release] {
        while (!release.load()) {
          std::this_thread::yield();
        }
      });
    }
    for (int i = 0; i < kStragglers; ++i) {
      pool.Submit([&] {
        stragglers.fetch_add(1);
        if (std::this_thread::get_id() == main_thread) {
          run_by_destructor.fetch_add(1);
        }
      });
    }
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release.store(true);
    });
  }
  releaser.join();
  for (int slot : slots) {
    if (slot != 1) {
      std::fprintf(stderr, "FAIL: a nested ParallelFor iteration ran %d times\n", slot);
      return false;
    }
  }
  for (int slot : after_throw) {
    if (slot != 1) {
      std::fprintf(stderr, "FAIL: the pool stopped running loops after an exception\n");
      return false;
    }
  }
  if (rethrown != 1 || stragglers.load() != kStragglers) {
    std::fprintf(stderr, "FAIL: %d exceptions rethrown, %d of %d stragglers ran\n", rethrown,
                 stragglers.load(), kStragglers);
    return false;
  }
  std::printf("OK: pool nested loops, exception and stragglers (%d of %d run by the "
              "destructor)\n",
              run_by_destructor.load(), kStragglers);
  return true;
}

// A dense instance from the flat branch & bound's budget tests. Its proof
// takes 776 nodes, so a 300-node budget aborts.
alpa::IlpProblem DenseProblem() {
  alpa::Rng rng(45);
  return alpa::RandomProblem(rng, 14, 5, 0.8);
}

// Solves the dense core on 4 threads at once, starting from an empty core
// memo so the threads race on its lookups and inserts, and checks every
// result is bit-identical to a serial solve. Returns false on any
// divergence.
bool CheckSearchRace() {
  const alpa::IlpProblem problem = DenseProblem();
  alpa::IlpSolverOptions options;
  options.max_search_nodes = 300;
  const alpa::IlpSolver solver(options);
  alpa::ClearIlpCoreMemo();
  const alpa::IlpSolution serial = solver.Solve(problem);
  if (!serial.feasible || serial.optimal) {
    std::fprintf(stderr, "FAIL: serial search must be feasible and aborted (feasible=%d)\n",
                 serial.feasible);
    return false;
  }

  alpa::ClearIlpCoreMemo();
  std::vector<alpa::IlpSolution> results(4);
  std::vector<std::thread> threads;
  for (alpa::IlpSolution& result : results) {
    threads.emplace_back([&solver, &problem, &result] { result = solver.Solve(problem); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const alpa::IlpSolution& r : results) {
    if (r.choice != serial.choice || r.objective != serial.objective ||
        r.lower_bound != serial.lower_bound || r.nodes_explored != serial.nodes_explored ||
        r.optimal != serial.optimal) {
      std::fprintf(stderr, "FAIL: a concurrent solve differs from the serial solve\n");
      return false;
    }
  }
  return true;
}

// Multiset of "category/name(args)" for compile-category spans. The
// pool-category "pool_task" spans vary with the thread count by design and
// are excluded.
std::map<std::string, int> CompileSpanSet() {
  std::map<std::string, int> set;
  for (const alpa::TraceEvent& e : alpa::Trace::Snapshot()) {
    if (!e.virtual_time && e.category == "compile") {
      ++set[e.name + "(" + e.args + ")"];
    }
  }
  return set;
}

// Compiles the tiny GPT serially and on 4 threads under `solver` and checks
// the plans and the compile-span sets are identical; with `expect_aborts`,
// each compile must also abort at least one search. Returns false on any
// failure.
bool CheckCompile(const alpa::IlpSolverOptions& solver, bool expect_aborts) {
  using namespace alpa;
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
  options.profiler.intra.solver = solver;

  CompiledPipeline plans[2];
  std::map<std::string, int> spans[2];
  int64_t aborted[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    IlpMemoCache::Global().Clear();
    Trace::Clear();
    const int64_t aborted_before = Metrics::Value("ilp/outcome/aborted");
    Graph graph = BuildGpt(config);
    options.compile_threads = run == 0 ? 1 : 4;
    plans[run] = RunInterOpPass(graph, cluster, options);
    spans[run] = CompileSpanSet();
    aborted[run] = Metrics::Value("ilp/outcome/aborted") - aborted_before;
    if (!plans[run].feasible) {
      std::fprintf(stderr, "FAIL: compilation infeasible at %d threads\n",
                   options.compile_threads);
      return false;
    }
    if (expect_aborts && aborted[run] == 0) {
      std::fprintf(stderr, "FAIL: no search aborted at %d threads\n", options.compile_threads);
      return false;
    }
  }
  const std::map<std::string, int>& serial_spans = spans[0];
  const std::map<std::string, int>& parallel_spans = spans[1];
  if (!PlanEquals(plans[0], plans[1])) {
    std::fprintf(stderr, "FAIL: parallel plan differs from serial plan\n");
    return false;
  }
  if (Trace::kCompiledIn) {
    if (serial_spans.empty()) {
      std::fprintf(stderr, "FAIL: tracing enabled but no compile spans recorded\n");
      return false;
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
      return false;
    }
    // Exercise the exporter under TSan as well, into a scratch file that
    // leaves no trace in the working directory.
    const std::filesystem::path trace_path =
        std::filesystem::temp_directory_path() /
        ("alpa_tsan_trace_" + std::to_string(::getpid()) + ".json");
    const Status written = Trace::WriteJson(trace_path.string());
    std::error_code ignored;
    std::filesystem::remove(trace_path, ignored);
    if (!written.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", written.ToString().c_str());
      return false;
    }
  }
  std::printf("OK: plans identical under TSan (%lld solves serial, %lld parallel, "
              "%lld/%lld aborted, %zu compile span kinds)\n",
              static_cast<long long>(plans[0].stats.ilp_solves),
              static_cast<long long>(plans[1].stats.ilp_solves),
              static_cast<long long>(aborted[0]), static_cast<long long>(aborted[1]),
              serial_spans.size());
  return true;
}

}  // namespace

int main() {
  using namespace alpa;
  if (!CheckPool() || !CheckSearchRace()) {
    return 1;
  }
  if (Trace::kCompiledIn) {
    Trace::Enable();
  }
  IlpSolverOptions reduced;
  reduced.max_search_nodes = 5'000;
  IlpSolverOptions aborting;
  aborting.max_search_nodes = 100;
  return CheckCompile(reduced, false) && CheckCompile(aborting, true) ? 0 : 1;
}
