#include "src/intra/intra_pass.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "src/graph/backward.h"
#include "src/support/logging.h"
#include "src/support/trace.h"

namespace alpa {

double OpComputeTime(const Operator& op, int64_t shards, const DeviceSpec& device,
                     Precision precision) {
  ALPA_CHECK_GT(shards, 0);
  switch (op.type) {
    case OpType::kEinsum:
    case OpType::kMoeDispatch:
    case OpType::kMoeCombine:
      return op.flops / static_cast<double>(shards) / device.EffectiveFlops(precision);
    case OpType::kUpdate:
      // Optimizer math runs in fp32 and is bandwidth-bound.
      return 3.0 * static_cast<double>(op.OutputBytes()) / static_cast<double>(shards) /
             device.memory_bandwidth;
    case OpType::kEmbedding:
    case OpType::kEmbeddingGrad:
    case OpType::kElementwise:
    case OpType::kReduce:
    case OpType::kSoftmax:
    case OpType::kLayerNorm:
    case OpType::kLoss:
      // Pointwise / gather traffic: ~3 bytes moved per output byte.
      return 3.0 * static_cast<double>(op.OutputBytes()) / static_cast<double>(shards) /
             device.memory_bandwidth;
    case OpType::kParameter:
    case OpType::kInput:
      return 0.0;
  }
  return 0.0;
}

namespace {

// Fraction of a stage's *internal* forward activations that stay resident
// despite rematerialization (dropout masks, small residuals).
constexpr double kRematActivationFraction = 0.02;

// ILP cost of running `op` with algorithm `a`. Per-iteration nodes amortize
// over gradient accumulation; a vanishing memory tiebreak (~1e-10 s for a
// 100 MB tensor) makes equal-time layouts prefer the sharded one, so free
// slicing choices (inputs, boundary activations) do not squat replicated
// memory.
double NodeCost(const Operator& op, const ParallelAlgorithm& a, bool per_iteration,
                double amortize, const DeviceMesh& mesh) {
  const double tiebreak =
      1e-18 *
      static_cast<double>(a.output_spec.ShardedBytes(op.shape, DTypeBytes(op.dtype), mesh));
  if (!per_iteration) {
    return a.comm_cost + a.compute_cost + tiebreak;
  }
  if (op.type == OpType::kUpdate) {
    // Optimizer math and communication both run once per iteration.
    return (a.comm_cost + a.compute_cost) / amortize + tiebreak;
  }
  // Gradient producers: the computation happens per microbatch; only the
  // gradient synchronization amortizes.
  return a.comm_cost / amortize + a.compute_cost + tiebreak;
}

// The one choice left to a node whose every algorithm a filter drops: fully
// replicated execution, charged the compute it loses to the idle devices.
ParallelAlgorithm ReplicatedFallback(const Graph& graph, const DeviceMesh& mesh,
                                     const Operator& op, Precision precision) {
  const DeviceSpec& device = mesh.cluster().device;
  ParallelAlgorithm fallback;
  fallback.name = "replicated";
  fallback.output_spec = ShardingSpec::Replicated(op.shape.rank());
  for (int operand : op.operands) {
    fallback.input_specs.push_back(ShardingSpec::Replicated(graph.op(operand).shape.rank()));
  }
  fallback.compute_cost = OpComputeTime(op, 1, device, precision) -
                          OpComputeTime(op, mesh.num_devices(), device, precision);
  return fallback;
}

// Keeps the entries of `values` at the ascending indices `rows`, in order.
template <typename T>
void KeepEntries(const std::vector<int>& rows, std::vector<T>* values) {
  for (size_t k = 0; k < rows.size(); ++k) {
    if (static_cast<size_t>(rows[k]) != k) {
      (*values)[k] = std::move((*values)[static_cast<size_t>(rows[k])]);
    }
  }
  values->resize(rows.size());
}

int64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

IntraOpProblem BuildIntraOpProblem(const Graph& graph, const DeviceMesh& mesh,
                                   const IntraOpOptions& options) {
  static Metric* build_micros = Metrics::Get("ilp/build/micros");
  const auto build_t0 = std::chrono::steady_clock::now();
  const DeviceSpec& device = mesh.cluster().device;
  IntraOpProblem problem;
  problem.merge = ComputeMergePlan(graph);
  const double amortize = std::max(1, options.num_microbatches);

  // Ops whose outputs flow only into weight updates carry per-iteration
  // costs: with gradient accumulation, their communication happens once per
  // iteration instead of once per microbatch.
  std::vector<char> per_iteration(static_cast<size_t>(graph.size()), 0);
  {
    const auto consumers = graph.Consumers();
    for (int v = graph.size() - 1; v >= 0; --v) {
      const Operator& op = graph.op(v);
      if (op.type == OpType::kUpdate) {
        per_iteration[static_cast<size_t>(v)] = 1;
        continue;
      }
      if (op.type == OpType::kParameter || op.type == OpType::kInput ||
          op.type == OpType::kLoss) {
        continue;
      }
      const auto& cs = consumers[static_cast<size_t>(v)];
      per_iteration[static_cast<size_t>(v)] =
          !cs.empty() && std::all_of(cs.begin(), cs.end(), [&](int c) {
            return per_iteration[static_cast<size_t>(c)] != 0;
          });
    }
  }

  const int num_nodes = static_cast<int>(problem.merge.decision_ops.size());
  problem.algorithms.resize(static_cast<size_t>(num_nodes));
  problem.ilp.node_costs.resize(static_cast<size_t>(num_nodes));
  problem.node_per_iteration.resize(static_cast<size_t>(num_nodes));

  static Metric* enum_micros = Metrics::Get("ilp/build/enum_micros");
  static Metric* edge_micros = Metrics::Get("ilp/build/edge_micros");
  const auto enum_t0 = std::chrono::steady_clock::now();

  for (int n = 0; n < num_nodes; ++n) {
    const Operator& op = graph.op(problem.merge.decision_ops[static_cast<size_t>(n)]);
    std::vector<ParallelAlgorithm> algorithms =
        EnumerateAlgorithms(op, graph, mesh, device, options.precision);
    if (options.filter) {
      std::vector<ParallelAlgorithm> kept;
      for (ParallelAlgorithm& a : algorithms) {
        if (options.filter(graph, mesh, op, a)) {
          kept.push_back(std::move(a));
        }
      }
      if (!kept.empty()) {
        algorithms = std::move(kept);
      } else {
        // Keep only the replicated fallback for feasibility.
        algorithms = {ReplicatedFallback(graph, mesh, op, options.precision)};
      }
    }
    const bool node_flag =
        per_iteration[static_cast<size_t>(problem.merge.decision_ops[static_cast<size_t>(n)])] !=
        0;
    problem.node_per_iteration[static_cast<size_t>(n)] = node_flag;
    auto& costs = problem.ilp.node_costs[static_cast<size_t>(n)];
    costs.reserve(algorithms.size());
    for (const ParallelAlgorithm& a : algorithms) {
      costs.push_back(NodeCost(op, a, node_flag, amortize, mesh));
    }
    problem.algorithms[static_cast<size_t>(n)] = std::move(algorithms);
  }

  // Edges: one per (producer tensor, consumer) pair crossing decision-node
  // groups. Resharding cost from the producer group's output spec to the
  // consumer's required operand spec. Pairs connected by several tensors
  // are summed into one matrix right here (keyed on endpoints AND the
  // per-iteration flag, which scales entries differently), so the solver
  // and EvaluateChoice both see an already-simple graph per flag.
  const auto edge_t0 = std::chrono::steady_clock::now();
  enum_micros->Add(
      std::chrono::duration_cast<std::chrono::microseconds>(edge_t0 - enum_t0).count());
  std::unordered_map<uint64_t, size_t> edge_index;
  // Per-edge scratch, reused across edges.
  std::vector<ShardingSpec> projected;
  std::vector<int> dst_uid, src_uid;
  std::vector<const ShardingSpec*> uniq_dst, uniq_src;
  std::vector<double> uniq_cost;
  for (int c = 0; c < graph.size(); ++c) {
    const Operator& consumer = graph.op(c);
    const int rc = problem.merge.rep[static_cast<size_t>(c)];
    const int nj = problem.merge.node_index[static_cast<size_t>(rc)];
    for (size_t oi = 0; oi < consumer.operands.size(); ++oi) {
      const int p = consumer.operands[oi];
      const int rp = problem.merge.rep[static_cast<size_t>(p)];
      if (rp == rc) {
        continue;  // Internal to one group.
      }
      const int ni = problem.merge.node_index[static_cast<size_t>(rp)];
      const Operator& producer = graph.op(p);
      const int64_t dtype_bytes = DTypeBytes(producer.dtype);

      const auto& src_algos = problem.algorithms[static_cast<size_t>(ni)];
      const auto& dst_algos = problem.algorithms[static_cast<size_t>(nj)];
      const bool consumer_is_node = (rc == c);
      const bool is_update_param_edge = (consumer.type == OpType::kUpdate && oi == 0);
      // Algorithms frequently share a boundary spec (replicated outputs,
      // repeated input layouts), so resharding costs are computed once per
      // unique valid (src, dst) spec pair and broadcast to the full matrix.
      // A uid of -1 marks an invalid spec; those cells are infeasible. The
      // destination spec depends only on the consumer choice j: the cell
      // count is |src| x |dst| but only |src| + |dst| distinct specs.
      const auto assign_uids = [&](size_t n, const auto& spec_of, std::vector<int>* uid,
                                   std::vector<const ShardingSpec*>* uniq) {
        uid->assign(n, -1);
        uniq->clear();
        for (size_t k = 0; k < n; ++k) {
          const ShardingSpec& spec = spec_of(k);
          if (!spec.IsValidFor(producer.shape, mesh)) {
            continue;
          }
          for (size_t u = 0; u < uniq->size() && (*uid)[k] < 0; ++u) {
            if (*(*uniq)[u] == spec) {
              (*uid)[k] = static_cast<int>(u);
            }
          }
          if ((*uid)[k] < 0) {
            (*uid)[k] = static_cast<int>(uniq->size());
            uniq->push_back(&spec);
          }
        }
      };
      if (!consumer_is_node) {
        projected.resize(dst_algos.size());
        for (size_t j = 0; j < dst_algos.size(); ++j) {
          projected[j] = ProjectToTrailing(dst_algos[j].output_spec, producer.shape.rank());
        }
      }
      assign_uids(
          dst_algos.size(),
          [&](size_t j) -> const ShardingSpec& {
            return consumer_is_node ? dst_algos[j].input_specs[oi] : projected[j];
          },
          &dst_uid, &uniq_dst);
      assign_uids(
          src_algos.size(),
          [&](size_t i) -> const ShardingSpec& { return src_algos[i].output_spec; }, &src_uid,
          &uniq_src);
      const size_t num_uniq_dst = uniq_dst.size();
      uniq_cost.resize(uniq_src.size() * num_uniq_dst);
      for (size_t us = 0; us < uniq_src.size(); ++us) {
        for (size_t ud = 0; ud < num_uniq_dst; ++ud) {
          const ShardingSpec& src = *uniq_src[us];
          const ShardingSpec& dst = *uniq_dst[ud];
          double cost = ReshardCost(src, dst, producer.shape, dtype_bytes, mesh);
          if (is_update_param_edge) {
            // The updated weights must be restored to the parameter's
            // storage layout before the next iteration (all-gather when the
            // optimizer step is sharded, i.e. ZeRO).
            cost += ReshardCost(dst, src, producer.shape, dtype_bytes, mesh);
          }
          uniq_cost[us * num_uniq_dst + ud] = cost;
        }
      }
      // Resharding on the way into a per-iteration consumer (gradients
      // flowing to the optimizer) amortizes over gradient accumulation.
      // Accumulators keep the canonical orientation (u < v), so both tensor
      // directions between a pair land on one: a producer with the higher
      // node id writes its cell (i, j) at (j, i).
      const bool edge_flag = per_iteration[static_cast<size_t>(c)] != 0;
      const bool flip = ni > nj;
      const int eu = flip ? nj : ni;
      const int ev = flip ? ni : nj;
      const uint64_t key = (static_cast<uint64_t>(eu) << 33) |
                           (static_cast<uint64_t>(ev) << 1) |
                           static_cast<uint64_t>(edge_flag ? 1 : 0);
      const auto [it, inserted] = edge_index.emplace(key, problem.ilp.edges.size());
      if (inserted) {
        problem.edge_per_iteration.push_back(edge_flag);
        problem.ilp.edges.push_back(IlpProblem::Edge{
            eu, ev,
            CostMatrix(static_cast<int>(flip ? dst_algos.size() : src_algos.size()),
                       static_cast<int>(flip ? src_algos.size() : dst_algos.size()))});
      }
      CostMatrix& acc = problem.ilp.edges[it->second].cost;
      for (int r = 0; r < acc.rows(); ++r) {
        double* row = acc.row(r);
        for (int col = 0; col < acc.cols(); ++col) {
          const size_t i = static_cast<size_t>(flip ? col : r);
          const size_t j = static_cast<size_t>(flip ? r : col);
          double value = (src_uid[i] < 0 || dst_uid[j] < 0)
                             ? kInfCost
                             : uniq_cost[static_cast<size_t>(src_uid[i]) * num_uniq_dst +
                                         static_cast<size_t>(dst_uid[j])];
          if (edge_flag) {
            value /= amortize;
          }
          if (inserted) {
            row[col] = value;
          } else {
            row[col] += value;
          }
        }
      }
    }
  }
  edge_micros->Add(MicrosSince(edge_t0));
  build_micros->Add(MicrosSince(build_t0));
  return problem;
}

void RestrictIntraOpProblem(const Graph& graph, const DeviceMesh& mesh,
                            const IntraOpOptions& options, const AlgorithmFilter& keep,
                            IntraOpProblem* problem) {
  static Metric* build_micros = Metrics::Get("ilp/build/micros");
  const auto t0 = std::chrono::steady_clock::now();
  const double amortize = std::max(1, options.num_microbatches);
  const size_t num_nodes = problem->algorithms.size();
  // Kept choice indices of every node that loses a choice; empty for nodes
  // that keep them all, whose rows and columns stay untouched.
  std::vector<std::vector<int>> kept(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    const Operator& op = graph.op(problem->merge.decision_ops[n]);
    std::vector<ParallelAlgorithm>& algorithms = problem->algorithms[n];
    std::vector<int>& rows = kept[n];
    for (size_t i = 0; i < algorithms.size(); ++i) {
      if (keep(graph, mesh, op, algorithms[i])) {
        rows.push_back(static_cast<int>(i));
      }
    }
    if (rows.size() == algorithms.size()) {
      rows.clear();
      continue;
    }
    std::vector<double>& costs = problem->ilp.node_costs[n];
    if (!rows.empty()) {
      KeepEntries(rows, &algorithms);
      KeepEntries(rows, &costs);
      continue;
    }
    // Every choice dropped: the build-time filter's replicated fallback.
    // Edge entries depend only on the endpoint specs, so the fallback's
    // are those of the first choice with exactly its specs.
    ParallelAlgorithm fallback = ReplicatedFallback(graph, mesh, op, options.precision);
    const auto same_specs = std::find_if(
        algorithms.begin(), algorithms.end(), [&](const ParallelAlgorithm& a) {
          return a.output_spec == fallback.output_spec && a.input_specs == fallback.input_specs;
        });
    ALPA_CHECK(same_specs != algorithms.end())
        << "restriction drops every choice of op " << op.id
        << " and none has the replicated fallback's specs";
    rows.push_back(static_cast<int>(same_specs - algorithms.begin()));
    costs.assign(1, NodeCost(op, fallback, problem->node_per_iteration[n], amortize, mesh));
    algorithms.assign(1, std::move(fallback));
  }
  for (IlpProblem::Edge& edge : problem->ilp.edges) {
    const std::vector<int>& rows = kept[static_cast<size_t>(edge.u)];
    const std::vector<int>& cols = kept[static_cast<size_t>(edge.v)];
    if (!rows.empty() || !cols.empty()) {
      edge.cost.Keep(rows, cols);
    }
  }
  build_micros->Add(MicrosSince(t0));
}

IntraOpResult EvaluateChoice(const Graph& graph, const DeviceMesh& mesh,
                             const IntraOpProblem& problem, const IntraOpOptions& options,
                             std::vector<int> choice, bool optimal) {
  const DeviceSpec& device = mesh.cluster().device;
  const double amortize = std::max(1, options.num_microbatches);
  IntraOpResult result;
  result.optimal = optimal;
  if (!std::isfinite(problem.ilp.Evaluate(choice))) {
    result.objective = kInfCost;
    return result;
  }
  result.choice = std::move(choice);

  // Split the objective into per-microbatch and per-iteration buckets
  // (stored ILP costs are amortized; multiply flagged entries back).
  double per_mb = 0.0;
  double per_iter = 0.0;
  for (size_t n = 0; n < problem.algorithms.size(); ++n) {
    const ParallelAlgorithm& a =
        problem.algorithms[n][static_cast<size_t>(result.choice[n])];
    const Operator& op = graph.op(problem.merge.decision_ops[n]);
    if (!problem.node_per_iteration[n]) {
      per_mb += a.comm_cost + a.compute_cost;
    } else if (op.type == OpType::kUpdate) {
      per_iter += a.comm_cost + a.compute_cost;
    } else {
      per_iter += a.comm_cost;
      per_mb += a.compute_cost;
    }
  }
  for (size_t e = 0; e < problem.ilp.edges.size(); ++e) {
    const IlpProblem::Edge& edge = problem.ilp.edges[e];
    const double value = edge.cost.at(result.choice[static_cast<size_t>(edge.u)],
                                      result.choice[static_cast<size_t>(edge.v)]);
    if (problem.edge_per_iteration[e]) {
      per_iter += value * amortize;
    } else {
      per_mb += value;
    }
  }
  result.objective = per_mb;
  result.t_per_iteration = per_iter;

  // Resolved spec per op.
  result.op_specs.resize(static_cast<size_t>(graph.size()));
  for (int v = 0; v < graph.size(); ++v) {
    const int rep = problem.merge.rep[static_cast<size_t>(v)];
    const int node = problem.merge.node_index[static_cast<size_t>(rep)];
    const int algo = result.choice[static_cast<size_t>(node)];
    result.op_specs[static_cast<size_t>(v)] =
        problem.algorithms[static_cast<size_t>(node)][static_cast<size_t>(algo)].output_spec;
  }

  // Ideal compute (everything perfectly sharded over the mesh). Optimizer
  // math runs once per iteration; everything else per microbatch.
  const int ndev = mesh.num_devices();
  double fwd_ideal = 0.0;
  for (const Operator& op : graph.ops()) {
    const double t = OpComputeTime(op, ndev, device, options.precision);
    if (op.role == OpRole::kUpdate) {
      result.t_per_iteration += t;
    } else {
      result.ideal_compute += t;
      if (op.role == OpRole::kForward) {
        fwd_ideal += t;
      }
    }
  }
  result.t_intra = result.ideal_compute + result.objective;
  if (options.rematerialize) {
    // Backward re-runs the forward computation of discarded activations.
    result.t_intra += fwd_ideal;
  }

  // --- Per-device memory profile. ---
  double weight = 0.0;
  double act = 0.0;
  double work_max = 0.0;
  // Optimizer-state sharding follows the update op's spec.
  std::vector<int> update_of_param(static_cast<size_t>(graph.size()), -1);
  for (const Operator& op : graph.ops()) {
    if (op.type == OpType::kUpdate) {
      update_of_param[static_cast<size_t>(op.param_id)] = op.id;
    }
  }
  double boundary_act = 0.0;
  for (const Operator& op : graph.ops()) {
    const ShardingSpec& spec = result.op_specs[static_cast<size_t>(op.id)];
    const double sharded_bytes = static_cast<double>(
        spec.ShardedBytes(op.shape, DTypeBytes(op.dtype), mesh));
    work_max = std::max(work_max, sharded_bytes);
    switch (op.type) {
      case OpType::kParameter: {
        weight += sharded_bytes;
        const int update = update_of_param[static_cast<size_t>(op.id)];
        if (update >= 0) {
          const ShardingSpec& update_spec = result.op_specs[static_cast<size_t>(update)];
          weight += static_cast<double>(op.shape.elements()) *
                    static_cast<double>(OptimizerStateBytesPerElement(op.dtype)) /
                    static_cast<double>(update_spec.TotalShards(mesh));
          // Gradient buffer, laid out as produced.
          const Operator& update_op = graph.op(update);
          const ShardingSpec& grad_spec =
              result.op_specs[static_cast<size_t>(update_op.operands[1])];
          weight += static_cast<double>(
              grad_spec.ShardedBytes(op.shape, DTypeBytes(op.dtype), mesh));
        }
        break;
      }
      case OpType::kInput:
        // Stage-boundary activations (kInput placeholders in stage
        // subgraphs) persist per in-flight microbatch even with remat.
        if (op.role == OpRole::kForward && op.dtype != DType::kI32) {
          boundary_act += sharded_bytes;
        }
        break;
      case OpType::kUpdate:
      case OpType::kLoss:
        break;
      default:
        if (op.role == OpRole::kForward) {
          act += sharded_bytes;
        }
        break;
    }
  }
  result.weight_bytes = weight;
  const double internal_fraction = options.rematerialize ? kRematActivationFraction : 1.0;
  result.act_bytes_per_microbatch = boundary_act + act * internal_fraction;
  result.work_bytes = 2.0 * work_max;
  result.feasible = true;
  return result;
}

IntraOpResult SolveIntraOp(const Graph& graph, const DeviceMesh& mesh,
                           const IntraOpOptions& options) {
  return SolveIntraOpProblem(graph, mesh, BuildIntraOpProblem(graph, mesh, options), options);
}

IntraOpResult SolveIntraOpProblem(const Graph& graph, const DeviceMesh& mesh,
                                  const IntraOpProblem& problem, const IntraOpOptions& options) {
  IlpSolution solution = IlpSolver(options.solver).Solve(problem.ilp);
  if (!solution.feasible) {
    return IntraOpResult();
  }
  const double gap = solution.optimality_gap();
  IntraOpResult result = EvaluateChoice(graph, mesh, problem, options,
                                        std::move(solution.choice), solution.optimal);
  result.optimality_gap = result.optimal ? 0.0 : gap;
  return result;
}

}  // namespace alpa
