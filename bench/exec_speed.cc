// Raw-speed measurement of the execution engine.
//
// Part 1 times the fig8 GPT matmul mix (attention projections, attention
// scores, both FFN halves at GPT-350M scale) through the blocked GEMM
// lowering (EvalEinsumPartials) against the scalar odometer reference
// (EvalEinsumPartialsReference); the reference runs on a row slice of the
// output and is scaled by the slice's share of the FLOPs, since the scalar
// loop at full size would dominate the benchmark by minutes. Each kernel is
// also reported as a fraction of a single-core GEMM peak measured the way
// perfbench measures it: the best of four runs each of 256^3 and 512^3
// square matmuls through the same lowering (64^3 and 128^3 in smoke mode).
// Part 2 really executes a compiled GPT pipeline and reports wall-clock plus
// the arena planner's per-device memory numbers next to the measured runtime
// peak.
//
//   exec_speed [--smoke] [--json PATH] [--threads N] [--trace PATH]
//
// --smoke shrinks every dimension so the whole binary finishes in a couple
// of seconds (the CI tier-1 run); the default sizes are the BENCH_exec.json
// configuration.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exec/executor.h"
#include "src/exec/host_tensor.h"
#include "src/exec/kernels.h"
#include "src/graph/operator.h"
#include "src/models/gpt.h"

namespace alpa {
namespace bench {
namespace {

using exec::Box;
using exec::BoxElements;
using exec::FullBox;
using exec::GenValue;
using exec::HashName;
using exec::HostTensor;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct MatmulCase {
  std::string name;
  std::string output;
  std::vector<std::string> operand_specs;
  std::map<char, int64_t> extents;
};

// The einsum mix one GPT layer issues, at the paper's GPT-350M shapes
// (hidden 1024, 16 heads, sequence 1024, microbatch 8). Smoke mode divides
// the big extents by 8.
std::vector<MatmulCase> GptMatmulMix(bool smoke) {
  const int64_t div = smoke ? 8 : 1;
  const int64_t b = 8 / (smoke ? 4 : 1);
  const int64_t s = 1024 / div;
  const int64_t h = 1024 / div;
  const int64_t f = 4096 / div;
  const int64_t heads = 16 / (smoke ? 4 : 1);
  const int64_t hd = h / heads;
  return {
      {"qkv_proj", "bsd", {"bsh", "hd"}, {{'b', b}, {'s', s}, {'h', h}, {'d', h}}},
      {"attn_scores", "nst", {"nsk", "ntk"}, {{'n', b * heads}, {'s', s}, {'t', s}, {'k', hd}}},
      {"ffn_up", "bsf", {"bsh", "hf"}, {{'b', b}, {'s', s}, {'h', h}, {'f', f}}},
      {"ffn_down", "bsh", {"bsf", "fh"}, {{'b', b}, {'s', s}, {'h', h}, {'f', f}}},
  };
}

Operator MakeEinsumOp(const MatmulCase& c) {
  Operator op;
  op.id = 0;
  op.type = OpType::kEinsum;
  op.name = c.name;
  op.einsum.output = c.output;
  op.einsum.operands = c.operand_specs;
  op.einsum.extents = c.extents;
  std::vector<int64_t> dims;
  for (char label : c.output) {
    dims.push_back(c.extents.at(label));
  }
  op.shape = TensorShape(dims);
  for (size_t i = 0; i < c.operand_specs.size(); ++i) {
    op.operands.push_back(static_cast<int>(i));
  }
  return op;
}

HostTensor MakeOperand(const std::string& spec, const std::map<char, int64_t>& extents,
                       const std::string& tag) {
  std::vector<int64_t> dims;
  for (char label : spec) {
    dims.push_back(extents.at(label));
  }
  HostTensor t = HostTensor::Uninitialized(TensorShape(dims));
  const uint64_t key = HashName(tag);
  for (int64_t i = 0; i < t.elements(); ++i) {
    t.data()[i] = GenValue(key, i);
  }
  return t;
}

struct KernelResult {
  double gflops_fast = 0.0;
  double gflops_ref = 0.0;
  double fast_seconds = 0.0;
  double checksum_delta = 0.0;
};

std::vector<HostTensor> MakeOperands(const MatmulCase& c) {
  std::vector<HostTensor> storage;
  for (size_t i = 0; i < c.operand_specs.size(); ++i) {
    storage.push_back(MakeOperand(c.operand_specs[i], c.extents, c.name + std::to_string(i)));
  }
  return storage;
}

std::vector<const HostTensor*> Pointers(const std::vector<HostTensor>& storage) {
  std::vector<const HostTensor*> operands;
  for (const HostTensor& t : storage) {
    operands.push_back(&t);
  }
  return operands;
}

// The single-core GEMM peak (GFLOP/s) the kernels are reported against.
double MeasurePeakGflops(bool smoke) {
  double peak = 0.0;
  for (const int64_t n : {int64_t{256}, int64_t{512}}) {
    const int64_t size = smoke ? n / 4 : n;
    const MatmulCase square{
        "peak", "ij", {"ik", "kj"}, {{'i', size}, {'j', size}, {'k', size}}};
    const Operator op = MakeEinsumOp(square);
    const std::vector<HostTensor> storage = MakeOperands(square);
    const std::vector<const HostTensor*> operands = Pointers(storage);
    const Box full = FullBox(op.shape);
    std::vector<double> out;
    for (int r = 0; r < 4; ++r) {
      const double start = Now();
      exec::EvalEinsumPartials(op, operands, 0, size, full, &out);
      peak = std::max(peak, op.einsum.Flops() / (Now() - start) * 1e-9);
    }
  }
  return peak;
}

KernelResult TimeMatmul(const MatmulCase& c, bool smoke) {
  const Operator op = MakeEinsumOp(c);
  const std::vector<HostTensor> storage = MakeOperands(c);
  const std::vector<const HostTensor*> operands = Pointers(storage);
  const std::string contraction = op.einsum.ContractionLabels();
  const int64_t extent = contraction.empty() ? 1 : op.einsum.Extent(contraction[0]);
  const Box full = FullBox(op.shape);
  const double full_flops = op.einsum.Flops();

  KernelResult result;
  std::vector<double> out;
  {
    const double start = Now();
    exec::EvalEinsumPartials(op, operands, 0, extent, full, &out);
    result.fast_seconds = Now() - start;
    result.gflops_fast = full_flops / result.fast_seconds * 1e-9;
  }

  // The scalar reference evaluates a leading-dimension slice (everything in
  // smoke mode) and is credited the slice's share of the FLOPs.
  Box ref_box = full;
  if (!smoke && !ref_box.empty()) {
    ref_box[0].second = std::max<int64_t>(1, ref_box[0].second / 32);
  }
  const double fraction =
      static_cast<double>(BoxElements(ref_box)) / static_cast<double>(BoxElements(full));
  std::vector<double> ref;
  {
    const double start = Now();
    exec::EvalEinsumPartialsReference(op, operands, 0, extent, ref_box, &ref);
    const double seconds = Now() - start;
    result.gflops_ref = full_flops * fraction / seconds * 1e-9;
  }

  // Sanity: the lowering must agree with the reference on the slice.
  for (size_t i = 0; i < ref.size(); ++i) {
    result.checksum_delta = std::max(result.checksum_delta, std::abs(out[i] - ref[i]));
  }
  return result;
}

int RunBench(bool smoke, const BenchFlags& flags) {
  JsonReport report("exec_speed");
  const double peak = MeasurePeakGflops(smoke);
  std::printf("single-core GEMM peak: %.2f GFLOP/s\n\n", peak);
  report.AddRow().Str("kind", "peak").Bool("smoke", smoke).Num("gflops", peak);
  std::printf("%-12s %12s %14s %14s %9s %9s\n", "matmul", "shape", "gemm GFLOP/s",
              "scalar GFLOP/s", "speedup", "of peak");

  double fast_sum = 0.0, ref_sum = 0.0;
  int cases = 0;
  for (const MatmulCase& c : GptMatmulMix(smoke)) {
    const KernelResult r = TimeMatmul(c, smoke);
    std::string shape;
    for (const auto& [label, ext] : c.extents) {
      shape += (shape.empty() ? "" : "x") + std::to_string(ext);
    }
    const double speedup = r.gflops_fast / r.gflops_ref;
    std::printf("%-12s %12s %14.2f %14.3f %8.1fx %9.2f\n", c.name.c_str(), shape.c_str(),
                r.gflops_fast, r.gflops_ref, speedup, r.gflops_fast / peak);
    report.AddRow()
        .Str("kind", "kernel")
        .Str("name", c.name)
        .Bool("smoke", smoke)
        .Num("gflops_gemm", r.gflops_fast)
        .Num("gflops_scalar", r.gflops_ref)
        .Num("speedup", speedup)
        .Num("peak_frac", r.gflops_fast / peak)
        .Num("gemm_seconds", r.fast_seconds)
        .Num("max_abs_delta", r.checksum_delta);
    if (r.checksum_delta != 0.0) {
      std::fprintf(stderr, "FAIL: %s lowering diverges from reference by %g\n", c.name.c_str(),
                   r.checksum_delta);
      return 1;
    }
    fast_sum += r.gflops_fast;
    ref_sum += r.gflops_ref;
    ++cases;
  }
  const double mean_speedup = (fast_sum / cases) / (ref_sum / cases);
  std::printf("%-12s %12s %14.2f %14.3f %8.1fx %9.2f\n", "mean", "", fast_sum / cases,
              ref_sum / cases, mean_speedup, fast_sum / cases / peak);
  report.AddRow()
      .Str("kind", "kernel_mean")
      .Bool("smoke", smoke)
      .Num("gflops_gemm", fast_sum / cases)
      .Num("gflops_scalar", ref_sum / cases)
      .Num("speedup", mean_speedup)
      .Num("peak_frac", fast_sum / cases / peak);

  // --- Real pipelined execution -----------------------------------------
  GptConfig config;
  config.hidden = smoke ? 32 : 128;
  config.num_layers = smoke ? 2 : 4;
  config.num_heads = smoke ? 2 : 4;
  config.microbatch = smoke ? 2 : 4;
  config.seq_len = smoke ? 8 : 64;
  config.vocab = smoke ? 64 : 256;
  const int num_microbatches = smoke ? 2 : 4;
  Graph graph = BuildGpt(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  ParallelizeOptions options;
  options.num_microbatches = num_microbatches;
  options.inter.submesh_shapes = {SubmeshShape{1, 2}};
  options.inter.compile_threads = flags.threads;
  const StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
  if (!plan.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  const double exec_start = Now();
  const StatusOr<exec::ExecResult> result = ExecutePlan(*plan, graph, cluster, {});
  const double wall = Now() - exec_start;
  if (!result.ok()) {
    std::fprintf(stderr, "execution failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  int64_t measured = 0, planned = 0, modeled = 0, oracle = 0;
  for (const exec::DeviceMemoryStats& dm : result->device_memory) {
    measured = std::max(measured, dm.measured_peak_bytes);
    planned = std::max(planned, dm.planned_bytes);
    modeled = std::max(modeled, dm.modeled_bytes);
    oracle = std::max(oracle, dm.oracle_peak_bytes);
  }
  double compute_seconds = 0.0;
  for (const exec::StageTiming& t : result->stage_timings) {
    compute_seconds = std::max(compute_seconds, t.compute_seconds());
  }
  std::printf("\nexecutor: %.3fs wall, peak bytes/device measured=%lld planned=%lld "
              "modeled=%lld oracle=%lld\n",
              wall, static_cast<long long>(measured), static_cast<long long>(planned),
              static_cast<long long>(modeled), static_cast<long long>(oracle));
  report.AddRow()
      .Str("kind", "executor")
      .Bool("smoke", smoke)
      .Str("model", "gpt")
      .Int("hidden", config.hidden)
      .Int("num_layers", config.num_layers)
      .Int("num_microbatches", num_microbatches)
      .Num("wall_seconds", wall)
      .Num("max_stage_compute_seconds", compute_seconds)
      .Int("measured_peak_bytes", measured)
      .Int("planned_bytes", planned)
      .Int("modeled_bytes", modeled)
      .Int("oracle_peak_bytes", oracle)
      .Int("num_devices", static_cast<long long>(result->device_memory.size()));

  if (!report.Write(flags.json_path)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace alpa

int main(int argc, char** argv) {
  const alpa::bench::BenchFlags flags = alpa::bench::ParseBenchFlags(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  alpa::bench::InitBench(flags);
  return alpa::bench::RunBench(smoke, flags);
}
