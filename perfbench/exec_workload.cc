// exec-train: the executor-bound workload.
//
// A GPT pipeline (hidden 256, sequence 128, 4 layers, 4 microbatches) is
// compiled once in set-up for AwsP3(1,4) with (1,2) submeshes: 2 stages of
// 2-way intra-op parallelism, 4 device threads. Each timed operation is one
// real training iteration (ExecutePlan, deterministic reduction) whose
// losses, gradients and updated parameters must match the reference
// interpreter bit for bit. Kernel throughput is timed separately on the
// model's einsum shapes through EvalEinsumPartials and reported against a
// single-core GEMM peak measured in set-up.
#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "src/core/api.h"
#include "src/exec/interpreter.h"
#include "src/exec/kernels.h"
#include "src/graph/operator.h"
#include "src/models/gpt.h"
#include "workloads.h"

namespace perfbench {

using alpa::exec::HostTensor;

namespace {

constexpr int kNumMicrobatches = 4;

alpa::GptConfig ExecModel(bool smoke) {
  alpa::GptConfig config;
  config.hidden = smoke ? 64 : 256;
  config.num_layers = 4;
  config.num_heads = 4;
  config.microbatch = 4;
  config.seq_len = smoke ? 32 : 128;
  config.vocab = 256;
  return config;
}

struct Einsum {
  std::string name;
  std::string output;
  std::vector<std::string> operands;
  std::map<char, int64_t> extents;
};

// The matmuls one layer of the executed model issues per microbatch.
std::vector<Einsum> ModelEinsums(const alpa::GptConfig& c) {
  const int64_t b = c.microbatch, s = c.seq_len, h = c.hidden, f = c.ffn_dim();
  return {
      {"qkv_proj", "bsd", {"bsh", "hd"}, {{'b', b}, {'s', s}, {'h', h}, {'d', h}}},
      {"attn_scores",
       "nst",
       {"nsk", "ntk"},
       {{'n', b * c.num_heads}, {'s', s}, {'t', s}, {'k', c.head_dim()}}},
      {"ffn_up", "bsf", {"bsh", "hf"}, {{'b', b}, {'s', s}, {'h', h}, {'f', f}}},
      {"ffn_down", "bsh", {"bsf", "fh"}, {{'b', b}, {'s', s}, {'h', h}, {'f', f}}},
  };
}

// A standalone einsum with generated operands, ready to time.
struct KernelCase {
  alpa::Operator op;
  std::vector<HostTensor> storage;
  std::vector<const HostTensor*> operands;
  int64_t contraction = 1;
  alpa::exec::Box box;
};

KernelCase MakeKernel(const Einsum& e, uint64_t seed) {
  KernelCase k;
  k.op.id = 0;
  k.op.type = alpa::OpType::kEinsum;
  k.op.name = e.name;
  k.op.einsum.output = e.output;
  k.op.einsum.operands = e.operands;
  k.op.einsum.extents = e.extents;
  std::vector<int64_t> dims;
  for (char label : e.output) {
    dims.push_back(e.extents.at(label));
  }
  k.op.shape = alpa::TensorShape(dims);
  for (size_t i = 0; i < e.operands.size(); ++i) {
    k.op.operands.push_back(static_cast<int>(i));
    std::vector<int64_t> operand_dims;
    for (char label : e.operands[i]) {
      operand_dims.push_back(e.extents.at(label));
    }
    HostTensor t = HostTensor::Uninitialized(alpa::TensorShape(operand_dims));
    const uint64_t key = alpa::exec::HashName(e.name + std::to_string(i)) ^ seed;
    for (int64_t j = 0; j < t.elements(); ++j) {
      t.data()[j] = alpa::exec::GenValue(key, j);
    }
    k.storage.push_back(std::move(t));
  }
  for (const HostTensor& t : k.storage) {
    k.operands.push_back(&t);
  }
  const std::string labels = k.op.einsum.ContractionLabels();
  k.contraction = labels.empty() ? 1 : k.op.einsum.Extent(labels[0]);
  k.box = alpa::exec::FullBox(k.op.shape);
  return k;
}

// Median seconds of one EvalEinsumPartials call over `reps` calls.
double TimeKernel(const KernelCase& k, int reps) {
  std::vector<double> out;
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    alpa::exec::EvalEinsumPartials(k.op, k.operands, 0, k.contraction, k.box, &out);
    seconds.push_back(Now() - t0);
  }
  return Median(seconds);
}

bool SameBits(const std::map<std::string, HostTensor>& a,
              const std::map<std::string, HostTensor>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [name, tensor] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.elements() != tensor.elements() ||
        std::memcmp(it->second.data(), tensor.data(),
                    static_cast<size_t>(tensor.elements()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// One iteration's measured layer breakdown.
struct IterSample {
  double wall = 0.0;
  double phase[alpa::exec::kNumExecPhases] = {0, 0, 0, 0, 0};  // Slowest stage.
  double busy = 0.0;      // Slowest stage's phase sum.
  double workers = 0.0;   // ExecResult.wall_seconds.
  double idle_frac = 0.0;
};

}  // namespace

struct ExecWorkload::State {
  alpa::GptConfig config;
  alpa::Graph graph;
  alpa::ClusterSpec cluster = alpa::ClusterSpec::AwsP3(1, 4);
  alpa::ParallelPlan plan;
  uint64_t data_seed = 0;
  double peak_gflops = 0.0;
  std::vector<IterSample> iters;
  int64_t collective_bytes = 0;
  int64_t cross_mesh_bytes = 0;
  int64_t messages = 0;
  int64_t measured_peak = 0;
  int64_t planned = 0;
  int64_t modeled = 0;
  std::vector<std::pair<std::string, double>> kernel_gflops;
  std::optional<alpa::exec::ReferenceResult> reference;
  PartOutcome outcome;
};

ExecWorkload::ExecWorkload(const RunContext& context)
    : context_(context), state_(std::make_unique<State>()) {}
ExecWorkload::~ExecWorkload() = default;

void ExecWorkload::Setup() {
  State& st = *state_;
  st.config = ExecModel(context_.smoke);
  st.data_seed = context_.seed * 0x9E3779B97F4A7C15ull + 17;
  st.iters.clear();
  st.reference.reset();
  st.outcome = PartOutcome{};
  st.graph = alpa::BuildGpt(st.config);
  alpa::ParallelizeOptions options;
  options.num_microbatches = kNumMicrobatches;
  options.inter.submesh_shapes = {alpa::SubmeshShape{1, 2}};
  options.inter.compile_threads = 1;
  alpa::StatusOr<alpa::ParallelPlan> plan = alpa::Parallelize(st.graph, st.cluster, options);
  if (plan.ok()) {
    st.plan = std::move(*plan);
  }

  // Single-core GEMM peak: the best throughput of square matmuls through
  // the same lowering the executor uses.
  st.peak_gflops = 0.0;
  for (const int64_t n : {int64_t{256}, int64_t{512}}) {
    const int64_t size = context_.smoke ? n / 4 : n;
    const KernelCase square = MakeKernel(
        {"peak", "ij", {"ik", "kj"}, {{'i', size}, {'j', size}, {'k', size}}}, context_.seed);
    std::vector<double> out;
    for (int r = 0; r < 4; ++r) {
      const double t0 = Now();
      alpa::exec::EvalEinsumPartials(square.op, square.operands, 0, square.contraction,
                                     square.box, &out);
      st.peak_gflops = std::max(st.peak_gflops, square.op.einsum.Flops() / (Now() - t0) * 1e-9);
    }
  }
}

bool ExecWorkload::Run(int iters) {
  State& st = *state_;
  PartOutcome& outcome = st.outcome;
  Tracer& tracer = *context_.tracer;
  if (!st.plan.pipeline.feasible) {
    outcome.attempted = outcome.failed = 1;
    outcome.error = "exec: the pipeline did not compile";
    return false;
  }
  // The oracle, once per run (untimed).
  if (!st.reference.has_value()) {
    st.reference = alpa::exec::RunReference(st.graph, kNumMicrobatches, st.data_seed);
  }
  const alpa::exec::ReferenceResult& reference = *st.reference;
  alpa::exec::ExecOptions options;
  options.reduction = alpa::exec::ReductionMode::kDeterministic;
  options.data_seed = st.data_seed;

  for (int it = 0; it < iters; ++it) {
    ++outcome.attempted;
    const double t0 = Now();
    alpa::StatusOr<alpa::exec::ExecResult> result =
        alpa::ExecutePlan(st.plan, st.graph, st.cluster, options);
    const double t1 = Now();
    tracer.Record("exec.iteration", t0, t1);
    outcome.timed_wall += t1 - t0;
    if (!result.ok()) {
      ++outcome.failed;
      outcome.error = "exec: ExecutePlan failed: " + result.status().ToString();
      return false;
    }
    const alpa::exec::ExecResult& r = *result;
    if (r.microbatch_loss.size() != reference.microbatch_loss.size() ||
        std::memcmp(r.microbatch_loss.data(), reference.microbatch_loss.data(),
                    r.microbatch_loss.size() * sizeof(float)) != 0 ||
        !SameBits(r.weight_grads, reference.weight_grads) ||
        !SameBits(r.updated_params, reference.updated_params)) {
      outcome.error = "exec: executed iteration is not bit-identical to RunReference";
      return false;
    }
    IterSample s;
    s.wall = t1 - t0;
    s.workers = r.wall_seconds;
    for (const alpa::exec::StageTiming& t : r.stage_timings) {
      // Collective time is spent inside the forward and backward compute
      // ops, so a stage's busy time is the sum of the other four phases.
      const double busy = t.phase_seconds[0] + t.phase_seconds[1] + t.phase_seconds[2] +
                          t.phase_seconds[3];
      if (busy > s.busy) {
        s.busy = busy;
        std::copy(std::begin(t.phase_seconds), std::end(t.phase_seconds), s.phase);
      }
    }
    // Time the slowest stage's devices were not busy inside ExecutePipeline:
    // stage set-up, pipeline bubbles and waits on the other stage. It is
    // not a named phase, so the ledger leaves it unattributed.
    s.idle_frac = s.workers > 0.0 ? std::max(0.0, s.workers - s.busy) / s.wall : 0.0;
    outcome.attributed += s.busy;
    st.iters.push_back(s);
    st.collective_bytes = r.collective_bytes;
    st.cross_mesh_bytes = r.cross_mesh_bytes;
    st.messages = r.total_messages;
    st.measured_peak = st.planned = st.modeled = 0;
    for (const alpa::exec::DeviceMemoryStats& dm : r.device_memory) {
      st.measured_peak = std::max(st.measured_peak, dm.measured_peak_bytes);
      st.planned = std::max(st.planned, dm.planned_bytes);
      st.modeled = std::max(st.modeled, dm.modeled_bytes);
    }
  }

  return true;
}

void ExecWorkload::TimeKernels() {
  State& st = *state_;
  Tracer& tracer = *context_.tracer;
  st.kernel_gflops.clear();
  for (const Einsum& e : ModelEinsums(st.config)) {
    const KernelCase k = MakeKernel(e, context_.seed);
    const double t0 = Now();
    const double seconds = TimeKernel(k, context_.smoke ? 3 : 15);
    tracer.Record("exec.kernel." + e.name, t0, Now());
    st.kernel_gflops.emplace_back(e.name, k.op.einsum.Flops() / seconds * 1e-9);
  }
}

const PartOutcome& ExecWorkload::outcome() const { return state_->outcome; }

void ExecWorkload::Emit(bool traced, Results* results) const {
  const State& st = *state_;
  const auto med = [&](auto&& value) {
    std::vector<double> values;
    for (const IterSample& s : st.iters) {
      values.push_back(value(s));
    }
    return Median(values);
  };
  constexpr double kMB = 1.0 / (1024.0 * 1024.0);
  if (!traced) {
    // The fastest iteration, as for compiles: the iteration is
    // deterministic, so interference only adds to its wall.
    std::vector<double> walls;
    for (const IterSample& s : st.iters) {
      walls.push_back(s.wall);
    }
    results->Add("exec_iter_s", "s", Min(walls));
    results->Add("exec_peak_mb", "MB", static_cast<double>(st.measured_peak) * kMB);
    return;
  }
  const char* const phase_names[alpa::exec::kNumExecPhases] = {
      "exec.fwd_s", "exec.bwd_s", "exec.update_s", "exec.boundary_s", "exec.collective_s"};
  for (int p = 0; p < alpa::exec::kNumExecPhases; ++p) {
    results->Add(phase_names[p], "s", med([p](const IterSample& s) { return s.phase[p]; }));
  }
  results->Add("exec.idle_frac", "ratio", med([](const IterSample& s) { return s.idle_frac; }));
  results->Add("exec.collective_bytes", "bytes", static_cast<double>(st.collective_bytes));
  results->Add("exec.cross_mesh_bytes", "bytes", static_cast<double>(st.cross_mesh_bytes));
  results->Add("exec.messages", "count", static_cast<double>(st.messages));
  for (const auto& [name, gflops] : st.kernel_gflops) {
    results->Add("exec.kernel_gflops." + name, "GFLOP/s", gflops);
  }
  for (const auto& [name, gflops] : st.kernel_gflops) {
    results->Add("exec.kernel_peak_frac." + name, "ratio", gflops / st.peak_gflops);
  }
  results->Add("exec.peak_gflops", "GFLOP/s", st.peak_gflops);
  results->Add("exec.planned_mb", "MB", static_cast<double>(st.planned) * kMB);
  results->Add("exec.modeled_mb", "MB", static_cast<double>(st.modeled) * kMB);
  results->Add("exec.unattributed_s", "s",
               med([](const IterSample& s) { return s.wall - s.busy; }));
}

}  // namespace perfbench
