// The three measured parts of a benchmark run. Every run sets all three up
// and measures all three, interleaved, so every metric is printed on every
// workload; the workload decides how much each part measures. Each part
// drives the library only through its public entry points.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunContext {
  uint64_t seed = 1;
  bool smoke = false;        // Short mode of the benchmark's own tests.
  int threads = 1;           // Hardware concurrency.
  std::string work_dir;      // Scratch space inside the checkout.
  Tracer* tracer = nullptr;  // Never null; disabled on untraced runs.
};

// What a part did, for the run's result line. `error` non-empty means a
// correctness check failed: the run exits non-zero without a result.
struct PartOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  double timed_wall = 0.0;  // Seconds inside the part's timed operations.
  double attributed = 0.0;  // Of timed_wall, seconds the named layers hold.
  std::string error;
};

// The compile part: cold, parallel and warm compiles of the three
// single-host fig8 configurations, plus Simulate of each plan.
class CompileWorkload {
 public:
  explicit CompileWorkload(const RunContext& context);
  ~CompileWorkload();
  // Builds the three model graphs (the models layer).
  void Setup();
  // One round: each model cold serial, warm, simulated (GPT in the first
  // round only); then one cold rotation of all three at hardware
  // concurrency. False on a failed check.
  bool RunRound();
  // The plans' geometric-mean PFLOPS must equal the recorded value.
  bool Finish();
  const PartOutcome& outcome() const;
  void Emit(bool traced, Results* results) const;

 private:
  struct State;
  const RunContext& context_;
  std::unique_ptr<State> state_;
};

// The serve part: a self-hosted PlanServer driven open-loop over its
// socket.
class ServeWorkload {
 public:
  explicit ServeWorkload(const RunContext& context);
  ~ServeWorkload();
  // Starts a daemon, compiles the popular keys through it (its speculation
  // presolves their failover clusters), restarts it on the disk cache.
  void Setup();
  // One chunk of the reference window: `seconds` of arrivals at the
  // reference rate.
  bool RunWindow(double seconds);
  // One search for the highest rate the daemon sustains (traced runs).
  bool SearchCapacity();
  // Checks sampled served plans against in-process compiles.
  bool Finish();
  const PartOutcome& outcome() const;
  void Emit(bool traced, Results* results) const;
  // Stops the daemon and removes its socket and cache directory.
  void Teardown();

 private:
  struct State;
  const RunContext& context_;
  std::unique_ptr<State> state_;
};

// The exec part: real training iterations of a compiled GPT pipeline,
// checked bit for bit against the reference interpreter.
class ExecWorkload {
 public:
  explicit ExecWorkload(const RunContext& context);
  ~ExecWorkload();
  // Builds and compiles the pipeline and measures the single-core GEMM
  // peak that kernel throughput is reported against.
  void Setup();
  // Runs `iters` iterations. False on a failed check.
  bool Run(int iters);
  // Times the model's einsums (per-layer metrics of traced runs).
  void TimeKernels();
  const PartOutcome& outcome() const;
  void Emit(bool traced, Results* results) const;

 private:
  struct State;
  const RunContext& context_;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
