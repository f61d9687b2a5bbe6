// The intra-operator compilation pass (4).
//
// Given a (stage) graph and a logical device mesh, builds the ILP of Eq. 1
// over the merged decision nodes, solves it, and reports the optimal
// intra-op execution plan together with its latency and per-device memory
// profile. Baseline plan spaces (data-parallel-only, replicated-only) are
// expressed as algorithm filters over the same machinery.
#ifndef SRC_INTRA_INTRA_PASS_H_
#define SRC_INTRA_INTRA_PASS_H_

#include <functional>
#include <vector>

#include "src/graph/backward.h"
#include "src/graph/graph.h"
#include "src/intra/algorithms.h"
#include "src/intra/op_merging.h"
#include "src/mesh/device_mesh.h"
#include "src/solver/ilp_solver.h"
#include "src/spec/sharding_spec.h"

namespace alpa {

// Returns false to drop an algorithm from an operator's choice list.
using AlgorithmFilter = std::function<bool(const Graph&, const DeviceMesh&, const Operator&,
                                           const ParallelAlgorithm&)>;

struct IntraOpOptions {
  Precision precision = Precision::kFloat16;
  IlpSolverOptions solver;
  // Optional restriction of the plan space (used by baselines).
  AlgorithmFilter filter;
  // The paper trains with rematerialization (8): per in-flight microbatch
  // only the stage-boundary activations persist; internal activations are
  // recomputed during backward (costing one extra forward pass). This flag
  // adds the recompute time and shrinks resident activations accordingly.
  bool rematerialize = true;
  // Gradient-accumulation steps the gradient-synchronization and
  // weight-update costs amortize over (7.1: "GA amortizes the communication
  // of data parallelism ... while the communication of TMP grows linearly
  // with GA steps"). The ILP objective divides per-iteration costs by this.
  int num_microbatches = 1;
};

// The fully annotated problem: decision nodes, their algorithm menus, and
// the assembled ILP.
struct IntraOpProblem {
  MergePlan merge;
  std::vector<std::vector<ParallelAlgorithm>> algorithms;  // Per decision node.
  // True for nodes/edges whose cost is paid once per iteration (gradient
  // synchronization, optimizer step, weight-layout restore) rather than per
  // microbatch. The ilp costs below are already amortized by
  // options.num_microbatches.
  std::vector<bool> node_per_iteration;
  std::vector<bool> edge_per_iteration;
  IlpProblem ilp;
};

struct IntraOpResult {
  bool feasible = false;
  // Per-microbatch latency: forward+backward compute and communication.
  // t_intra = ideal_compute + objective.
  double t_intra = kInfCost;
  // Once-per-iteration latency: gradient sync + optimizer + restore.
  double t_per_iteration = 0.0;
  double ideal_compute = 0.0;
  double objective = kInfCost;
  bool optimal = false;
  // Relative optimality gap of the ILP solve that produced `choice`
  // ((objective - proven lower bound) / objective in the solver's own
  // objective space); 0 when `optimal`. The serve layer surfaces the
  // worst gap across a plan's stages as the anytime-contract report.
  double optimality_gap = 0.0;
  // Per-device memory profile.
  double weight_bytes = 0.0;              // Params + grads + optimizer state.
  double act_bytes_per_microbatch = 0.0;  // Resident activations (with remat).
  double work_bytes = 0.0;                // Transient working set.
  // Chosen algorithm index per decision node.
  std::vector<int> choice;
  // Resolved sharding spec per graph op (merged ops follow their rep).
  std::vector<ShardingSpec> op_specs;
};

// Builds the ILP for `graph` on `mesh`.
IntraOpProblem BuildIntraOpProblem(const Graph& graph, const DeviceMesh& mesh,
                                   const IntraOpOptions& options);

// Restricts `problem`, built by BuildIntraOpProblem for the same graph,
// mesh and options, in place to the choices `keep` accepts. The result is
// byte-identical to building with `keep` composed into options.filter:
// only the menus and node costs of nodes that lose a choice change, and
// only the edges touching them lose rows or columns. A node that loses
// every choice gets the build's replicated fallback; it must have a choice
// with the fallback's (fully replicated) specs, as parameter and update
// nodes always do. Since every entry depends only on its own endpoints,
// restricting a restricted problem again composes the two predicates.
void RestrictIntraOpProblem(const Graph& graph, const DeviceMesh& mesh,
                            const IntraOpOptions& options, const AlgorithmFilter& keep,
                            IntraOpProblem* problem);

// Builds and solves; the one-stop entry point.
IntraOpResult SolveIntraOp(const Graph& graph, const DeviceMesh& mesh,
                           const IntraOpOptions& options);

// Solves a prebuilt (possibly restricted) problem.
IntraOpResult SolveIntraOpProblem(const Graph& graph, const DeviceMesh& mesh,
                                  const IntraOpProblem& problem, const IntraOpOptions& options);

// Evaluates a specific choice vector on a prebuilt problem (the solve's
// result, or a hand-constructed plan).
IntraOpResult EvaluateChoice(const Graph& graph, const DeviceMesh& mesh,
                             const IntraOpProblem& problem, const IntraOpOptions& options,
                             std::vector<int> choice, bool optimal);

// Per-device time of executing `op`'s computation when its work is split
// `shards` ways (roofline: flops-bound for contractions, bytes-bound for
// pointwise ops).
double OpComputeTime(const Operator& op, int64_t shards, const DeviceSpec& device,
                     Precision precision);

}  // namespace alpa

#endif  // SRC_INTRA_INTRA_PASS_H_
