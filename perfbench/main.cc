// alpa_perfbench: the single benchmark of alpa-cpp.
//
//   alpa_perfbench --workload compile-fig8|serve-mix --seed N
//                  --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//                  [--trace-out FILE]
//
// Every run sets up all three parts (compile, serve, exec) several times and
// reports the median set-up time, then measures all three, because every
// run prints every end-to-end metric; the workload only decides how the
// run's --seconds are shared out. An untraced run prints the end-to-end
// metrics, a traced run the per-layer metrics plus each part's ledger (the
// share of its timed wall the named layers account for). Any failed
// correctness check exits 1 without a result line. run.py builds this
// binary and runs it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      flags->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      flags->workload = value;
    } else if (arg == "--seed") {
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      flags->seconds = std::atof(value);
    } else if (arg == "--trace") {
      flags->trace = std::atoi(value) != 0;
    } else if (arg == "--work-dir") {
      flags->work_dir = value;
    } else if (arg == "--trace-out") {
      flags->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return flags->workload == "compile-fig8" || flags->workload == "serve-mix";
}

// How a workload spends its run: the measurement is interleaved in
// cycles (a compile round, a chunk of the serve reference window, an exec
// iteration), so a slow spell of the machine lands on every part instead
// of on one; each metric is taken over the cycles. Another cycle starts
// while half of one of the average length still ends within --seconds, so
// the measured time is --seconds give or take half a cycle, and a slow
// machine makes fewer cycles instead of a longer run. On the 4-vCPU x86
// VM the benchmark was sized on, a compile round takes 5-7 s (the first,
// with GPT's serial compile, 3-4.5 s more) and an exec iteration about
// 1 s.
struct Budget {
  double seconds = 0.0;      // Measured time; at least one cycle runs.
  double serve_chunk = 0.5;  // Seconds of the reference window per cycle.
  int exec_iters = 1;        // Iterations per cycle.
};

constexpr int kSetupRepetitions = 3;

Budget BudgetFor(const Flags& flags) {
  Budget b;
  if (flags.smoke) {
    return b;
  }
  b.seconds = flags.seconds;
  // compile-fig8: about 7 s a cycle, seven tenths of it compiling.
  // serve-mix: about 8 s a cycle, a quarter of it serving the reference
  // stream.
  b.serve_chunk = flags.workload == "compile-fig8" ? 1.0 : 2.0;
  return b;
}

// Prints the part's summary (or its failed check) on stderr.
bool Report(const char* part, const PartOutcome& outcome) {
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "FAILED %s: %s\n", part, outcome.error.c_str());
    return false;
  }
  std::fprintf(stderr, "%-8s %6lld ops, %lld failed, timed %.3f s, named layers %.1f%%\n", part,
               static_cast<long long>(outcome.attempted), static_cast<long long>(outcome.failed),
               outcome.timed_wall,
               outcome.timed_wall > 0 ? 100.0 * outcome.attributed / outcome.timed_wall : 0.0);
  return true;
}

int Main(int argc, char** argv) {
  const double process_start = Now();
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: alpa_perfbench --workload compile-fig8|serve-mix --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(flags.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", flags.work_dir.c_str());
    return 2;
  }

  Tracer tracer;
  tracer.Enable(flags.trace);
  RunContext context;
  context.seed = flags.seed;
  context.smoke = flags.smoke;
  context.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  context.work_dir = flags.work_dir;
  context.tracer = &tracer;

  CompileWorkload compile(context);
  ServeWorkload serve(context);
  ExecWorkload exec(context);

  // Set-up, repeated from cold: graph builds, daemon start and cache
  // warm-up, the exec plan compile and the GEMM peak.
  std::vector<double> setups;
  const int repetitions = flags.smoke ? 1 : kSetupRepetitions;
  for (int r = 0; r < repetitions; ++r) {
    const double t0 = r == 0 ? process_start : Now();
    compile.Setup();
    serve.Setup();
    exec.Setup();
    setups.push_back(Now() - t0);
    tracer.Record("setup", t0, t0 + setups.back());
  }

  const Budget budget = BudgetFor(flags);
  bool ok = true;
  const double measure_start = Now();
  for (int cycles = 1; ok; ++cycles) {
    // The capacity search is too unsteady on a shared machine for an
    // end-to-end metric (its saturation probe read 3500-10000 req/s within
    // one run), so only the traced run spends time on it.
    ok = compile.RunRound() && serve.RunWindow(budget.serve_chunk) &&
         (!flags.trace || serve.SearchCapacity()) && exec.Run(budget.exec_iters);
    const double elapsed = Now() - measure_start;
    if (elapsed + 0.5 * elapsed / cycles > budget.seconds) {
      break;
    }
  }
  ok = ok && serve.Finish() && compile.Finish();
  serve.Teardown();
  if (ok && flags.trace) {
    exec.TimeKernels();
  }
  const PartOutcome* parts[] = {&compile.outcome(), &serve.outcome(), &exec.outcome()};
  const char* const part_names[] = {"compile", "serve", "exec"};
  for (int i = 0; i < 3; ++i) {
    ok = Report(part_names[i], *parts[i]) && ok;
  }
  std::filesystem::remove_all(flags.work_dir, ec);
  if (!ok) {
    return 1;
  }

  Results results;
  if (!flags.trace) {
    results.Add("setup_s", "s", Median(setups));
  }
  compile.Emit(flags.trace, &results);
  serve.Emit(flags.trace, &results);
  exec.Emit(flags.trace, &results);
  int64_t attempted = 0, failed = 0;
  double timed = 0.0;
  for (int i = 0; i < 3; ++i) {
    attempted += parts[i]->attempted;
    failed += parts[i]->failed;
    timed += parts[i]->timed_wall;
    if (flags.trace) {
      // The ledger: the share of the part's timed wall its named layers
      // hold; the rest is the part's unattributed bucket.
      results.Add(std::string(part_names[i]) + ".attributed_frac", "ratio",
                  parts[i]->timed_wall > 0 ? parts[i]->attributed / parts[i]->timed_wall : 0.0);
    }
  }
  if (flags.trace) {
    // Tracing overhead: what recording this run's spans cost, as a share
    // of the timed wall (the untraced run records nothing).
    const double per_span = Tracer::CalibrateRecordCost();
    results.Add("trace.spans", "count", static_cast<double>(tracer.size()));
    results.Add("trace.overhead_frac", "ratio",
                timed > 0 ? per_span * static_cast<double>(tracer.size()) / timed : 0.0);
    if (!flags.trace_out.empty() && !tracer.WriteJson(flags.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", flags.trace_out.c_str());
    }
  }
  results.Print(/*correct=*/true, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
