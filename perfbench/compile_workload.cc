// compile-fig8: the solver-bound workload.
//
// One round compiles each of the three single-host fig8 configurations
// (GPT-2.6B, MoE-2.4B, WResNet-2B, all on 8 GPUs) serially with the ILP
// memo cleared (GPT in the first round only), recompiles it warm (memo
// hits), and simulates the plan; then compiles all three cold again at
// hardware-concurrency threads. The
// free Parallelize() entry point does not consult the plan cache, so
// clearing the ILP memo makes a compile cold. Plans must be PlanEquals-
// identical across cold rounds, thread counts and warm recompiles.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/api.h"
#include "src/intra/ilp_cache.h"
#include "src/models/gpt.h"
#include "src/models/moe.h"
#include "src/models/wide_resnet.h"
#include "workloads.h"

namespace perfbench {

using alpa::ClusterSpec;
using alpa::CompileStats;
using alpa::Graph;
using alpa::ParallelizeOptions;
using alpa::ParallelPlan;
using alpa::StatusOr;

namespace {

struct ModelCase {
  std::string tag;  // Metric suffix.
  Graph graph;      // Template; every compile works on a copy.
  ClusterSpec cluster;
  int num_microbatches = 1;
  int target_layers = 16;
  // Whether every round compiles it serially (cold, warm, simulated) or
  // only the first. GPT's serial compile is the slowest of the three and
  // not an end-to-end metric (see Emit), so after the first round it runs
  // only in the 4-thread rotation, and its time buys more rounds: more
  // samples of every end-to-end metric.
  bool serial_each_round = true;
  double build_seconds = 0.0;
};

// One serial cold compile's layer breakdown.
struct ColdSample {
  double wall = 0.0;
  CompileStats stats;
  MetricSnapshot delta;
};

struct ModelSamples {
  std::vector<ColdSample> cold;
  std::vector<double> warm;  // Warm recompile walls.
  std::vector<double> warm_hit_ratio;
  std::vector<double> par_profile_cpu;
  std::vector<double> simulate;
  ParallelPlan reference_plan;  // First serial cold plan.
  bool have_reference = false;
  double pflops = 0.0;
};

ParallelizeOptions CompileOptions(const ModelCase& model, int threads) {
  return ParallelizeOptions::Builder()
      .search_budget(alpa::bench::kBenchSearchBudget)
      .microbatches(model.num_microbatches)
      .target_layers(model.target_layers)
      .threads(threads)
      .Build();
}

constexpr int kWarmRepeats = 5;

// The geometric mean of the simulated aggregate PFLOPS of the three plans at
// the bench search budget (the Fig. 8 metric). The plans are deterministic,
// so every run must reproduce it bit for bit; a change that alters a plan
// must update it and say why.
constexpr double kPlanPflops = 0.1526651331115283;

double Seconds(int64_t micros) { return static_cast<double>(micros) * 1e-6; }

// Elimination: ordering (plan_micros) plus the table pass (micros).
double ElimSeconds(const ColdSample& c) {
  return Seconds(c.delta["ilp/elim/plan_micros"] + c.delta["ilp/elim/micros"]);
}

// The named, disjoint phases of one serial compile: clustering, the ILP
// build/presolve/elimination/search inside profiling, the stage DP and the
// pass's remainder. The wall minus these is the unattributed bucket.
double NamedSeconds(const ColdSample& c) {
  return c.stats.clustering_seconds + c.stats.dp_seconds + c.stats.other_seconds +
         Seconds(c.delta["ilp/build/micros"] + c.delta["ilp/presolve/micros"] +
                 c.delta["ilp/bnb/micros"]) +
         ElimSeconds(c);
}

// The phases CompileStats partitions a compile's wall into.
double StatsSeconds(const CompileStats& s) {
  return s.clustering_seconds + s.profiling_wall_seconds + s.dp_seconds + s.other_seconds;
}

}  // namespace

struct CompileWorkload::State {
  std::vector<ModelCase> models;
  std::vector<ModelSamples> samples;
  std::vector<double> cold_par_rotation;
  double geo_pflops = 0.0;
  std::vector<size_t> order;  // Compile order within a round.
  int rounds = 0;
  PartOutcome outcome;

  // One timed Parallelize of a fresh copy of model `index` into *graph.
  StatusOr<ParallelPlan> Compile(size_t index, int threads, const char* span, Tracer& tracer,
                                 Graph* graph, double* wall);
};

StatusOr<ParallelPlan> CompileWorkload::State::Compile(size_t index, int threads,
                                                        const char* span, Tracer& tracer,
                                                        Graph* graph, double* wall) {
  *graph = models[index].graph;
  const ParallelizeOptions options = CompileOptions(models[index], threads);
  ++outcome.attempted;
  const double t0 = Now();
  StatusOr<ParallelPlan> plan = alpa::Parallelize(*graph, models[index].cluster, options);
  const double t1 = Now();
  *wall = t1 - t0;
  outcome.timed_wall += *wall;
  tracer.Record(std::string(span) + "." + models[index].tag, t0, t1);
  if (!plan.ok()) {
    ++outcome.failed;
    outcome.error = "compile of " + models[index].tag + " failed: " + plan.status().ToString();
  }
  return plan;
}

CompileWorkload::CompileWorkload(const RunContext& context)
    : context_(context), state_(std::make_unique<State>()) {}
CompileWorkload::~CompileWorkload() = default;

void CompileWorkload::Setup() {
  state_->models.clear();
  Tracer& tracer = *context_.tracer;
  {
    alpa::GptBenchmarkCase c = alpa::GptPaperCases()[2];  // GPT-2.6B, 8 GPUs.
    c.config.microbatch = 8;
    ModelCase m;
    m.tag = "gpt";
    const double t0 = Now();
    m.graph = alpa::BuildGpt(c.config);
    m.build_seconds = Now() - t0;
    tracer.Record("models.build.gpt", t0, t0 + m.build_seconds);
    m.cluster = alpa::bench::ClusterFor(c.num_gpus);
    m.num_microbatches = static_cast<int>(c.global_batch / c.config.microbatch);
    m.target_layers = 16;
    m.serial_each_round = false;
    state_->models.push_back(std::move(m));
  }
  {
    alpa::MoeBenchmarkCase c = alpa::MoePaperCases()[2];  // MoE-2.4B, 8 GPUs.
    c.config.microbatch = 8;
    ModelCase m;
    m.tag = "moe";
    const double t0 = Now();
    m.graph = alpa::BuildMoe(c.config);
    m.build_seconds = Now() - t0;
    tracer.Record("models.build.moe", t0, t0 + m.build_seconds);
    m.cluster = alpa::bench::ClusterFor(c.num_gpus);
    m.num_microbatches = static_cast<int>(c.global_batch / c.config.microbatch);
    m.target_layers = static_cast<int>(c.config.num_layers);
    state_->models.push_back(std::move(m));
  }
  {
    alpa::WideResNetBenchmarkCase c = alpa::WideResNetPaperCases()[2];  // WResNet-2B.
    c.config.microbatch = 24;
    ModelCase m;
    m.tag = "wresnet";
    const double t0 = Now();
    m.graph = alpa::BuildWideResNet(c.config);
    m.build_seconds = Now() - t0;
    tracer.Record("models.build.wresnet", t0, t0 + m.build_seconds);
    m.cluster = alpa::bench::ClusterFor(c.num_gpus);
    m.num_microbatches = static_cast<int>(c.global_batch / c.config.microbatch);
    m.target_layers = 16;
    state_->models.push_back(std::move(m));
  }
  state_->samples.assign(state_->models.size(), ModelSamples{});
  state_->cold_par_rotation.clear();
  // WResNet, GPT, MoE. The first compile after a serve window or an exec
  // iteration stalls for a few tenths of a second; WResNet's short compile
  // takes that stall, so it stays off MoE's end-to-end samples.
  state_->order = {2, 0, 1};
  state_->rounds = 0;
  state_->outcome = PartOutcome{};
}

bool CompileWorkload::RunRound() {
  State& st = *state_;
  Tracer& tracer = *context_.tracer;
  std::vector<ModelCase>& models = st.models;
  ++st.rounds;
  for (size_t index : st.order) {
    ModelSamples& s = st.samples[index];
    ModelCase& model = models[index];
    if (!model.serial_each_round && st.rounds > 1) {
      continue;
    }

    // Serial cold compile.
    Graph graph;
    alpa::IlpMemoCache::Global().Clear();
    ColdSample cold;
    const MetricSnapshot before = MetricSnapshot::Take();
    StatusOr<ParallelPlan> plan = st.Compile(index, 1, "compile.cold", tracer, &graph, &cold.wall);
    if (!plan.ok()) {
      return false;
    }
    cold.delta = MetricSnapshot::Take().Minus(before);
    cold.stats = plan->compile_stats;
    st.outcome.attributed += NamedSeconds(cold);
    s.cold.push_back(cold);
    if (!s.have_reference) {
      s.reference_plan = *plan;
      s.have_reference = true;
    } else if (!alpa::PlanEquals(s.reference_plan.pipeline, plan->pipeline)) {
      st.outcome.error = model.tag + ": two cold serial compiles differ under PlanEquals";
      return false;
    }

    // Warm recompiles: every cacheable solve is a memo hit. A warm compile
    // takes about ten milliseconds, so each round takes several.
    StatusOr<ParallelPlan> warm = alpa::Status::Internal("not run");
    for (int w = 0; w < kWarmRepeats; ++w) {
      Graph warm_graph;
      double warm_wall = 0.0;
      warm = st.Compile(index, 1, "compile.warm", tracer, &warm_graph, &warm_wall);
      if (!warm.ok()) {
        return false;
      }
      st.outcome.attributed += StatsSeconds(warm->compile_stats);
      s.warm.push_back(warm_wall);
    }
    const CompileStats& ws = warm->compile_stats;
    const int64_t lookups = ws.ilp_cache_hits + ws.ilp_cache_misses;
    s.warm_hit_ratio.push_back(lookups > 0 ? static_cast<double>(ws.ilp_cache_hits) / lookups
                                           : 0.0);
    if (!alpa::PlanEquals(s.reference_plan.pipeline, warm->pipeline)) {
      st.outcome.error = model.tag + ": cold and warm compiles differ under PlanEquals";
      return false;
    }

    // Simulate the plan on the analytical cluster model.
    ++st.outcome.attempted;
    const double t0 = Now();
    const StatusOr<alpa::ExecutionStats> stats = alpa::Simulate(*plan, graph, model.cluster);
    const double t1 = Now();
    tracer.Record("runtime.simulate." + model.tag, t0, t1);
    st.outcome.timed_wall += t1 - t0;
    st.outcome.attributed += t1 - t0;
    s.simulate.push_back(t1 - t0);
    if (!stats.ok()) {
      ++st.outcome.failed;
      st.outcome.error = model.tag + ": Simulate failed: " + stats.status().ToString();
      return false;
    }
    if (s.pflops != 0.0 && s.pflops != stats->pflops) {
      st.outcome.error = model.tag + ": simulated PFLOPS changed between rounds";
      return false;
    }
    s.pflops = stats->pflops;
  }

  // One cold rotation at hardware concurrency.
  double par_rotation = 0.0;
  for (size_t index : st.order) {
    ModelSamples& s = st.samples[index];
    alpa::IlpMemoCache::Global().Clear();
    Graph graph;
    double wall = 0.0;
    StatusOr<ParallelPlan> plan =
        st.Compile(index, context_.threads, "compile.par", tracer, &graph, &wall);
    if (!plan.ok()) {
      return false;
    }
    const CompileStats& ps = plan->compile_stats;
    st.outcome.attributed += StatsSeconds(ps);
    par_rotation += wall;
    s.par_profile_cpu.push_back(ps.profiling_seconds);
    if (!alpa::PlanEquals(s.reference_plan.pipeline, plan->pipeline)) {
      st.outcome.error = models[index].tag + ": serial and " +
                         std::to_string(context_.threads) +
                         "-thread compiles differ under PlanEquals";
      return false;
    }
  }
  st.cold_par_rotation.push_back(par_rotation);
  std::fprintf(stderr, "compile round %d:", st.rounds);
  for (size_t i = 0; i < models.size(); ++i) {
    std::fprintf(stderr, " %s %.3f s", models[i].tag.c_str(), st.samples[i].cold.back().wall);
  }
  std::fprintf(stderr, ", cold rotation at %d threads %.3f s\n", context_.threads, par_rotation);
  return true;
}

bool CompileWorkload::Finish() {
  State& st = *state_;
  double log_sum = 0.0;
  for (const ModelSamples& s : st.samples) {
    log_sum += std::log(s.pflops);
  }
  st.geo_pflops = std::exp(log_sum / static_cast<double>(st.samples.size()));
  if (st.geo_pflops != kPlanPflops) {
    char message[160];
    std::snprintf(message, sizeof(message), "plan_pflops %.17g differs from the recorded %.17g",
                  st.geo_pflops, kPlanPflops);
    st.outcome.error = message;
    return false;
  }
  return true;
}

const PartOutcome& CompileWorkload::outcome() const { return state_->outcome; }

void CompileWorkload::Emit(bool traced, Results* results) const {
  const State& st = *state_;
  // A compile is deterministic work, so whatever else runs on the machine
  // only ever adds to its wall: the fastest of the run's compiles is the
  // steadiest estimate of its cost. Medians of three or four rounds moved
  // by up to 25% between runs on a shared 4-vCPU VM.
  std::vector<double> cold(st.models.size());
  double warm_rotation = 0.0;  // The three models' fastest warm recompiles.
  for (size_t i = 0; i < st.models.size(); ++i) {
    std::vector<double> walls;
    for (const ColdSample& c : st.samples[i].cold) {
      walls.push_back(c.wall);
    }
    cold[i] = Min(walls);
    warm_rotation += Min(st.samples[i].warm);
  }
  // Only MoE's serial cold compile is an end-to-end metric. On that VM
  // other tenants keep evicting each vCPU's 2 MiB L2: a pointer chase over
  // 1.5 MiB read 8-34 ns a load, varying from second to second, where one
  // over 256 KiB read a steady 5 ns. The GPT compile slowed by up to 45%
  // for whole runs (10-run spreads 0.21-0.28), and WResNet's and the warm
  // rotation's by up to 75% (0.28-0.37), over any bound a metric may
  // have. So they are per-layer metrics of the traced run; the 4-thread
  // rotation still compiles all three.
  if (!traced) {
    for (size_t i = 0; i < st.models.size(); ++i) {
      if (st.models[i].tag == "moe") {
        results->Add("compile_cold_moe_s", "s", cold[i]);
      }
    }
    results->Add("compile_cold_par_s", "s", Min(st.cold_par_rotation));
    results->Add("plan_pflops", "PFLOPS", st.geo_pflops);
    return;
  }
  results->Add("compile.warm_s", "s", warm_rotation);
  for (size_t i = 0; i < st.models.size(); ++i) {
    results->Add("compile.cold_s." + st.models[i].tag, "s", cold[i]);
  }
  for (size_t i = 0; i < st.models.size(); ++i) {
    const ModelCase& model = st.models[i];
    const ModelSamples& s = st.samples[i];
    // Median over rounds of each serial cold compile's value.
    const auto med = [&](auto&& value) {
      std::vector<double> values;
      for (const ColdSample& c : s.cold) {
        values.push_back(value(c));
      }
      return Median(values);
    };
    const auto add = [&](const std::string& name, const std::string& unit, double value) {
      results->Add(name + "." + model.tag, unit, value);
    };
    // Accessors of one cold sample: a CompileStats field, a registry
    // delta in seconds, a registry count, a registry ratio.
    const auto stat = [](double CompileStats::*field) {
      return [field](const ColdSample& c) { return c.stats.*field; };
    };
    const auto secs = [](const char* metric) {
      return [metric](const ColdSample& c) { return Seconds(c.delta[metric]); };
    };
    const auto count = [](const char* metric) {
      return [metric](const ColdSample& c) { return static_cast<double>(c.delta[metric]); };
    };
    add("models.build_s", "s", model.build_seconds);
    add("solver.cluster_s", "s", med(stat(&CompileStats::clustering_seconds)));
    add("solver.stage_dp_s", "s", med(stat(&CompileStats::dp_seconds)));
    add("inter.other_s", "s", med(stat(&CompileStats::other_seconds)));
    add("inter.profile_wall_s", "s", med(stat(&CompileStats::profiling_wall_seconds)));
    add("inter.profile_cpu_s", "s", med(stat(&CompileStats::profiling_seconds)));
    add("inter.profile_cpu_par_s", "s", Median(s.par_profile_cpu));
    add("intra.solves", "count",
        med([](const ColdSample& c) { return static_cast<double>(c.stats.ilp_solves); }));
    add("intra.memo_hit_ratio", "ratio", med([](const ColdSample& c) {
          const int64_t lookups = c.stats.ilp_cache_hits + c.stats.ilp_cache_misses;
          return lookups > 0 ? static_cast<double>(c.stats.ilp_cache_hits) / lookups : 0.0;
        }));
    add("intra.memo_hit_ratio_warm", "ratio", Median(s.warm_hit_ratio));
    add("intra.build_s", "s", med(secs("ilp/build/micros")));
    add("intra.enum_s", "s", med(secs("ilp/build/enum_micros")));
    add("intra.edge_s", "s", med(secs("ilp/build/edge_micros")));
    // Inclusive: the plan-family seed solves' own build, presolve,
    // elimination and search time is counted in those rows too.
    add("intra.seed_s", "s", med(secs("ilp/seed/micros")));
    add("solver.presolve_s", "s", med(secs("ilp/presolve/micros")));
    add("solver.choice_keep_ratio", "ratio", med([](const ColdSample& c) {
          const int64_t in = c.delta["ilp/presolve/choices_in"];
          return in > 0 ? static_cast<double>(c.delta["ilp/presolve/choices_out"]) / in : 0.0;
        }));
    add("solver.elim_s", "s", med(ElimSeconds));
    add("solver.elim_cells", "count", med(count("ilp/elim/cells")));
    add("solver.elim_bailed", "count", med(count("ilp/elim/bailed")));
    add("solver.search_s", "s", med(secs("ilp/bnb/micros")));
    add("solver.search_nodes", "count", med(count("ilp/outcome/explored")));
    add("solver.aborted", "count", med(count("ilp/outcome/aborted")));
    add("solver.max_gap", "ratio", med(stat(&CompileStats::max_optimality_gap)));
    add("runtime.simulate_s", "s", Median(s.simulate));
    add("compile.unattributed_s", "s",
        med([](const ColdSample& c) { return c.wall - NamedSeconds(c); }));
  }
}

}  // namespace perfbench
