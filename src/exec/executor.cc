#include "src/exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "src/exec/arena.h"
#include "src/exec/collectives.h"
#include "src/exec/kernels.h"
#include "src/exec/liveness.h"
#include "src/exec/profiler.h"
#include "src/exec/reshard_exec.h"
#include "src/inter/stage_extraction.h"
#include "src/spec/sharding_spec.h"
#include "src/support/logging.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace alpa {
namespace exec {
namespace {

// A tensor crossing one stage boundary, with the reshard program realizing
// the hop. For forward entries data moves mesh b -> mesh b+1, for backward
// entries mesh b+1 -> mesh b.
struct BoundaryTransfer {
  int producer = -1;  // Full-graph op id; doubles as the transfer tag id.
  TensorShape shape;
  ShardingSpec src_spec;
  ShardingSpec dst_spec;
  ReshardProgram program;
};

struct StageContext {
  explicit StageContext(DeviceMesh m) : mesh(std::move(m)) {}

  int index = 0;
  StageSubgraph sub;
  DeviceMesh mesh;
  std::vector<ShardingSpec> layout;  // Stage op id -> spec on `mesh`.
  // Stage op id -> contraction chunk count for the ring path (1 = compute
  // the own tile from full operands instead).
  std::vector<int> ring_split;
  // Placeholder stage op id -> full-graph producer id.
  std::map<int, int> ph_producer;
  // Layouts of tensors relayed through this stage without a local consumer.
  std::map<int, ShardingSpec> transit_layout;
  MeshProgram program;
  bool has_loss = false;
};

// First layout of dim 0 the mesh can realize: both axes, axis 0, axis 1,
// else fully replicated. Used for every op the compiled plan carries no
// spec for (backward ops, pointwise forward ops), purely a compute/memory
// balance choice — deterministic-mode results are layout-invariant.
ShardingSpec HeuristicLayout(const TensorShape& shape, const DeviceMesh& mesh) {
  if (shape.rank() == 0) {
    return ShardingSpec();
  }
  for (DimSharding s : {DimSharding::kS01, DimSharding::kS0, DimSharding::kS1}) {
    ShardingSpec spec = ShardingSpec::OneDim(shape.rank(), 0, s);
    if (spec.ShardsForDim(0, mesh) > 1 && spec.IsValidFor(shape, mesh)) {
      return spec;
    }
  }
  return ShardingSpec::Replicated(shape.rank());
}

// Producer ids crossing each boundary (ascending), split by direction.
// fwd[b]: forward-role tensors moving stage b -> b+1 (including multi-hop
// relays of skip connections); bwd[b]: gradients moving b+1 -> b.
struct BoundarySets {
  std::vector<std::vector<int>> fwd;
  std::vector<std::vector<int>> bwd;
};

// `owner[id]` is the stage whose layer range contains the op (-1 outside).
std::vector<int> OwnerStages(const Graph& graph, const CompiledPipeline& pipeline) {
  std::vector<int> owner(static_cast<size_t>(graph.size()), -1);
  for (int id = 0; id < graph.size(); ++id) {
    const int layer = graph.op(id).layer;
    for (size_t s = 0; s < pipeline.stages.size(); ++s) {
      if (layer >= pipeline.stages[s].layer_begin && layer <= pipeline.stages[s].layer_end) {
        owner[static_cast<size_t>(id)] = static_cast<int>(s);
        break;
      }
    }
  }
  return owner;
}

BoundarySets BuildBoundarySets(const Graph& graph, const std::vector<StageSubgraph>& subs,
                               const std::vector<int>& owner) {
  const int num_stages = static_cast<int>(subs.size());
  std::vector<std::set<int>> fwd(static_cast<size_t>(std::max(0, num_stages - 1)));
  std::vector<std::set<int>> bwd(fwd.size());
  for (int s = 0; s < num_stages; ++s) {
    for (const BoundaryTensor& bt : subs[static_cast<size_t>(s)].inputs) {
      const Operator& producer = graph.op(bt.producer_op);
      if (producer.type == OpType::kInput || producer.type == OpType::kParameter) {
        continue;  // Leaves are generated wherever consumed, never sent.
      }
      const int o = owner[static_cast<size_t>(bt.producer_op)];
      ALPA_CHECK_GE(o, 0) << "boundary producer " << producer.name << " has no owning stage";
      if (producer.role == OpRole::kBackward) {
        ALPA_CHECK_GT(o, s) << "gradient " << producer.name << " flows forward";
        for (int b = s; b < o; ++b) {
          bwd[static_cast<size_t>(b)].insert(bt.producer_op);
        }
      } else {
        ALPA_CHECK_LT(o, s) << "activation " << producer.name << " flows backward";
        for (int b = o; b < s; ++b) {
          fwd[static_cast<size_t>(b)].insert(bt.producer_op);
        }
      }
    }
  }
  BoundarySets sets;
  for (const auto& set : fwd) {
    sets.fwd.emplace_back(set.begin(), set.end());
  }
  for (const auto& set : bwd) {
    sets.bwd.emplace_back(set.begin(), set.end());
  }
  return sets;
}

// Everything the device workers share. Contexts and transfers are immutable
// once the threads start; `result` is guarded by `result_mu`.
struct ExecShared {
  const Graph* graph = nullptr;
  ExecOptions options;
  int num_microbatches = 1;
  std::vector<StageContext>* ctx = nullptr;
  std::vector<std::vector<BoundaryTransfer>>* fwd_transfers = nullptr;
  std::vector<std::vector<BoundaryTransfer>>* bwd_transfers = nullptr;
  Transport* transport = nullptr;
  ExecutionProfiler* profiler = nullptr;
  // Per-stage analytical memory estimate (weights + max-in-flight
  // activations + working set), for ExecResult::device_memory.
  const std::vector<int64_t>* modeled_bytes = nullptr;
  std::mutex result_mu;
  ExecResult* result = nullptr;
};

class DeviceWorker {
 public:
  DeviceWorker(ExecShared* shared, int stage, int rank)
      : shared_(shared),
        ctx_((*shared->ctx)[static_cast<size_t>(stage)]),
        stage_(stage),
        rank_(rank),
        coord_i_(rank / ctx_.mesh.dim(1)),
        coord_j_(rank % ctx_.mesh.dim(1)),
        device_(ctx_.mesh.DeviceAt(coord_i_, coord_j_)),
        group_(ctx_.mesh.DeviceIds()) {}

  void Run() {
    Trace::SetThreadName(StrFormat("exec s%d r%d", stage_, rank_));
    BuildMemoryPlan();
    for (size_t i = 0; i < ctx_.program.instructions.size(); ++i) {
      cur_inst_ = static_cast<int>(i);
      Execute(ctx_.program.instructions[i]);
      ReleaseAfter(static_cast<int>(i));
    }
    FinishReports();
  }

 private:
  using Key = std::pair<int, int>;  // (stage op id, microbatch; -1 = shared).
  using Clock = std::chrono::steady_clock;

  void Execute(const MeshInstruction& inst) {
    const Clock::time_point start = Clock::now();
    switch (inst.kind) {
      case InstructionKind::kAllocActivation:
        break;  // Buffers materialize lazily; the slot ids are bookkeeping.
      case InstructionKind::kRecvActivation: {
        TraceSpan span("recv_act", "exec");
        RunBoundary((*shared_->fwd_transfers)[static_cast<size_t>(stage_ - 1)], inst.microbatch,
                    /*sender=*/false);
        break;
      }
      case InstructionKind::kSendActivation: {
        TraceSpan span("send_act", "exec");
        RunBoundary((*shared_->fwd_transfers)[static_cast<size_t>(stage_)], inst.microbatch,
                    /*sender=*/true);
        break;
      }
      case InstructionKind::kRecvGradient: {
        TraceSpan span("recv_grad", "exec");
        RunBoundary((*shared_->bwd_transfers)[static_cast<size_t>(stage_)], inst.microbatch,
                    /*sender=*/false);
        break;
      }
      case InstructionKind::kSendGradient: {
        TraceSpan span("send_grad", "exec");
        RunBoundary((*shared_->bwd_transfers)[static_cast<size_t>(stage_ - 1)], inst.microbatch,
                    /*sender=*/true);
        break;
      }
      case InstructionKind::kForward: {
        TraceSpan span("forward", "exec");
        RunCompute(OpRole::kForward, inst.microbatch);
        break;
      }
      case InstructionKind::kBackward: {
        TraceSpan span("backward", "exec");
        RunCompute(OpRole::kBackward, inst.microbatch);
        break;
      }
      case InstructionKind::kFreeActivation:
        Free(inst.microbatch);
        break;
      case InstructionKind::kWeightUpdate: {
        TraceSpan span("weight_update", "exec");
        RunUpdate();
        break;
      }
    }
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    switch (inst.kind) {
      case InstructionKind::kForward:
        timing_.Add(ExecPhase::kForward, seconds);
        break;
      case InstructionKind::kBackward:
        timing_.Add(ExecPhase::kBackward, seconds);
        break;
      case InstructionKind::kWeightUpdate:
        timing_.Add(ExecPhase::kUpdate, seconds);
        break;
      case InstructionKind::kRecvActivation:
      case InstructionKind::kSendActivation:
      case InstructionKind::kRecvGradient:
      case InstructionKind::kSendGradient:
        timing_.Add(ExecPhase::kBoundary, seconds);
        break;
      default:
        break;  // Alloc/free bookkeeping is not a timed phase.
    }
  }

  // --- Static memory plan -------------------------------------------------

  // Mirrors the runtime's buffer traffic instruction by instruction: what
  // each recv/compute defines, what each send/compute/update reads. The
  // resulting live intervals drive the arena offset plan (planned peak
  // bytes) and the release lists that free every sharded buffer right after
  // its statically last use.
  void BuildMemoryPlan() {
    const Graph& sg = ctx_.sub.graph;
    for (int sid = 0; sid < sg.size(); ++sid) {
      const Operator& op = sg.op(sid);
      if (op.type == OpType::kUpdate) {
        grad_sids_.insert(op.operands[1]);
      }
    }
    // Incremental accumulation folds each microbatch's weight gradient into
    // the iteration accumulator at its kBackward instruction instead of
    // keeping every per-microbatch gradient alive until kWeightUpdate. It
    // replays the reference's exact addition sequence — zero-filled
    // accumulator, adds in ascending microbatch order — so it requires the
    // program's backward instructions to be microbatch-ascending (GPipe and
    // 1F1B both are; checked statically, with the hold-all fallback kept).
    int last_bwd = -1;
    incremental_accum_ = !grad_sids_.empty();
    for (int gsid : grad_sids_) {
      // Folding happens where the gradient is computed; a gradient that
      // arrives by wire or outside the backward phase falls back to the
      // hold-all path.
      if (ctx_.sub.reverse_map[static_cast<size_t>(gsid)] < 0 ||
          sg.op(gsid).role != OpRole::kBackward) {
        incremental_accum_ = false;
      }
    }
    for (const MeshInstruction& inst : ctx_.program.instructions) {
      if (inst.kind == InstructionKind::kBackward) {
        if (inst.microbatch <= last_bwd) {
          incremental_accum_ = false;
          break;
        }
        last_bwd = inst.microbatch;
      }
    }

    const auto boundary_ref = [&](const BoundaryTransfer& t, int mb) {
      const int sid = ctx_.sub.op_map[static_cast<size_t>(t.producer)];
      return sid >= 0 ? TensorRef{sid, mb, false} : TensorRef{t.producer, mb, true};
    };
    const auto recv_bytes = [&](const BoundaryTransfer& t) {
      const Box box = t.dst_spec.TileSlice(t.shape, ctx_.mesh, coord_i_, coord_j_);
      return BoxElements(box) * DTypeBytes(shared_->graph->op(t.producer).dtype);
    };
    // Leaves (and placeholders of leaves) are generated from the PRNG into
    // the full-operand cache; they never occupy a sharded buffer.
    const auto generated_leaf = [&](int sid) {
      const Operator& op = sg.op(sid);
      if (ctx_.sub.reverse_map[static_cast<size_t>(sid)] >= 0) {
        return op.type == OpType::kInput || op.type == OpType::kParameter;
      }
      const Operator& producer = shared_->graph->op(ctx_.ph_producer.at(sid));
      return producer.type == OpType::kInput || producer.type == OpType::kParameter;
    };
    // Bytes of this device's stored tile of `sid` — exactly the box
    // ComputeOp materializes (replicated when the ring path applies).
    const auto tile_bytes = [&](int sid) {
      const Operator& op = sg.op(sid);
      const Box box = ctx_.ring_split[static_cast<size_t>(sid)] > 1
                          ? FullBox(op.shape)
                          : ctx_.layout[static_cast<size_t>(sid)].TileSlice(op.shape, ctx_.mesh,
                                                                            coord_i_, coord_j_);
      return BoxElements(box) * DTypeBytes(op.dtype);
    };
    // `last_consumer` additionally records, per used buffer, the position
    // (stage op id) of its last consuming ComputeOp within the instruction
    // — the anchor for eager mid-instruction release below.
    const auto compute_access = [&](OpRole role, int mb, InstructionAccess* acc,
                                    std::map<TensorRef, int>* last_consumer) {
      for (int sid = 0; sid < sg.size(); ++sid) {
        const Operator& op = sg.op(sid);
        if (op.role != role) {
          continue;
        }
        if (ctx_.sub.reverse_map[static_cast<size_t>(sid)] < 0) {
          if (!generated_leaf(sid)) {
            acc->uses.push_back({sid, mb, false});  // Received placeholder.
          }
          continue;
        }
        if (op.type == OpType::kInput || op.type == OpType::kParameter ||
            op.type == OpType::kUpdate) {
          continue;
        }
        for (int operand : op.operands) {
          if (!generated_leaf(operand)) {
            acc->uses.push_back({operand, mb, false});
            (*last_consumer)[{operand, mb, false}] = sid;
          }
        }
        acc->defs.push_back({{sid, mb, false}, tile_bytes(sid)});
        if (incremental_accum_ && role == OpRole::kBackward && grad_sids_.count(sid) != 0) {
          // The fold (re)defines and reads the iteration-lifetime
          // accumulator and consumes this microbatch's gradient in place.
          acc->defs.push_back({{sid, -1, false}, tile_bytes(sid)});
          acc->uses.push_back({sid, -1, false});
          acc->uses.push_back({sid, mb, false});
          (*last_consumer)[{sid, mb, false}] = sid;
        }
      }
    };

    std::vector<InstructionAccess> accesses(ctx_.program.instructions.size());
    std::map<int, std::map<TensorRef, int>> last_consumers;
    for (size_t i = 0; i < ctx_.program.instructions.size(); ++i) {
      const MeshInstruction& inst = ctx_.program.instructions[i];
      InstructionAccess& acc = accesses[i];
      switch (inst.kind) {
        case InstructionKind::kRecvActivation:
          for (const BoundaryTransfer& t : (*shared_->fwd_transfers)[static_cast<size_t>(stage_ - 1)]) {
            acc.defs.push_back({boundary_ref(t, inst.microbatch), recv_bytes(t)});
          }
          break;
        case InstructionKind::kSendActivation:
          for (const BoundaryTransfer& t : (*shared_->fwd_transfers)[static_cast<size_t>(stage_)]) {
            acc.uses.push_back(boundary_ref(t, inst.microbatch));
          }
          break;
        case InstructionKind::kRecvGradient:
          for (const BoundaryTransfer& t : (*shared_->bwd_transfers)[static_cast<size_t>(stage_)]) {
            acc.defs.push_back({boundary_ref(t, inst.microbatch), recv_bytes(t)});
          }
          break;
        case InstructionKind::kSendGradient:
          for (const BoundaryTransfer& t : (*shared_->bwd_transfers)[static_cast<size_t>(stage_ - 1)]) {
            acc.uses.push_back(boundary_ref(t, inst.microbatch));
          }
          break;
        case InstructionKind::kForward:
          compute_access(OpRole::kForward, inst.microbatch, &acc,
                         &last_consumers[static_cast<int>(i)]);
          break;
        case InstructionKind::kBackward:
          compute_access(OpRole::kBackward, inst.microbatch, &acc,
                         &last_consumers[static_cast<int>(i)]);
          break;
        case InstructionKind::kWeightUpdate:
          for (int gsid : grad_sids_) {
            if (incremental_accum_) {
              acc.uses.push_back({gsid, -1, false});
            } else {
              for (int mb = 0; mb < shared_->num_microbatches; ++mb) {
                acc.uses.push_back({gsid, mb, false});
              }
            }
          }
          break;
        default:
          break;  // kAlloc/kFree touch no sharded buffer.
      }
    }
    const std::vector<LiveInterval> intervals = ComputeLiveness(accesses);
    plan_ = PlanArena(intervals);
    release_ = ReleaseLists(intervals, static_cast<int>(accesses.size()));

    // Eager mid-instruction release: a compute instruction evaluates many
    // ops in sequence, and a buffer whose GLOBAL lifetime ends inside the
    // instruction can be dropped right after its last consuming op instead
    // of at the instruction boundary. This is what keeps the backward
    // sweep's footprint to a narrow band — forward activations retire as
    // the sweep passes them, rather than coexisting with every backward
    // intermediate of the microbatch. Safe because peers never read this
    // device's maps: gathers are symmetric send/recv pairs each rank
    // executes from its own copy. The instruction-granular plan above stays
    // a valid (conservative) upper bound.
    for (const auto& [inst, consumers] : last_consumers) {
      for (const TensorRef& ref : release_[static_cast<size_t>(inst)]) {
        if (ref.transit || ref.microbatch < 0) {
          continue;
        }
        const auto it = consumers.find(ref);
        if (it != consumers.end()) {
          eager_release_[inst][it->second].push_back(ref);
        }
      }
    }
  }

  // Frees every sharded buffer whose statically last use was instruction i.
  void ReleaseAfter(int i) {
    for (const TensorRef& ref : release_[static_cast<size_t>(i)]) {
      if (ref.transit) {
        TrackedErase(&transit_, {ref.op, ref.microbatch}, shared_->graph->op(ref.op).dtype);
      } else if (ref.microbatch < 0) {
        const auto it = grad_accum_.find(ref.op);
        if (it != grad_accum_.end()) {
          live_bytes_ -= LogicalBytes(it->second, ctx_.sub.graph.op(ref.op).dtype);
          grad_accum_.erase(it);
        }
      } else {
        TrackedErase(&values_, {ref.op, ref.microbatch}, ctx_.sub.graph.op(ref.op).dtype);
      }
    }
  }

  static int64_t LogicalBytes(const TileData& tile, DType dtype) {
    return static_cast<int64_t>(tile.data.size()) * DTypeBytes(dtype);
  }

  void TrackedStore(std::map<Key, TileData>* map, const Key& key, TileData tile, DType dtype) {
    const int64_t bytes = LogicalBytes(tile, dtype);
    const auto it = map->find(key);
    if (it != map->end()) {
      live_bytes_ -= LogicalBytes(it->second, dtype);
      it->second = std::move(tile);
    } else {
      map->emplace(key, std::move(tile));
    }
    live_bytes_ += bytes;
    peak_live_bytes_ = std::max(peak_live_bytes_, live_bytes_);
  }

  void TrackedErase(std::map<Key, TileData>* map, const Key& key, DType dtype) {
    const auto it = map->find(key);
    if (it == map->end()) {
      return;
    }
    live_bytes_ -= LogicalBytes(it->second, dtype);
    map->erase(it);
  }

  void FinishReports() {
    timing_.stage = stage_;
    shared_->profiler->Report(timing_);
    DeviceMemoryStats stats;
    stats.stage = stage_;
    stats.rank = rank_;
    stats.device = device_;
    stats.planned_bytes = plan_.arena_bytes;
    stats.planned_peak_live_bytes = plan_.peak_live_bytes;
    stats.measured_peak_bytes = peak_live_bytes_;
    stats.oracle_peak_bytes = peak_oracle_bytes_;
    stats.modeled_bytes = (*shared_->modeled_bytes)[static_cast<size_t>(stage_)];
    std::lock_guard<std::mutex> lock(shared_->result_mu);
    shared_->result->device_memory.push_back(stats);
  }

  // --- Boundary resharding ----------------------------------------------

  void RunBoundary(const std::vector<BoundaryTransfer>& transfers, int mb, bool sender) {
    for (const BoundaryTransfer& t : transfers) {
      const uint64_t tag = MakeTag(kTagReshard, t.producer, mb, 0);
      if (sender) {
        // Double-buffered staging: the outgoing tile is copied into one of
        // two parity slots, so the producer buffer retires at this
        // instruction (release lists) while the staged bytes back the
        // in-flight transfer; the slot's storage is recycled every other
        // microbatch instead of reallocating per send.
        const TileData& src = SourceTile(t, mb);
        TileData& slot = send_staging_[{t.producer, mb & 1}];
        slot.full_shape = src.full_shape;
        slot.box = src.box;
        slot.data.assign(src.data.begin(), src.data.end());
        ExecuteReshardForDevice(*shared_->transport, t.program, device_, &slot,
                                /*dst_tile=*/nullptr, tag);
      } else {
        TileData dst;
        dst.full_shape = t.shape;
        dst.box = t.dst_spec.TileSlice(t.shape, ctx_.mesh, coord_i_, coord_j_);
        dst.data.assign(static_cast<size_t>(BoxElements(dst.box)), 0.0f);
        ExecuteReshardForDevice(*shared_->transport, t.program, device_, /*src_tile=*/nullptr,
                                &dst, tag);
        const int sid = ctx_.sub.op_map[static_cast<size_t>(t.producer)];
        const DType dtype = shared_->graph->op(t.producer).dtype;
        if (sid >= 0) {
          TrackedStore(&values_, {sid, mb}, std::move(dst), dtype);
        } else {
          TrackedStore(&transit_, {t.producer, mb}, std::move(dst), dtype);
        }
      }
    }
  }

  const TileData& SourceTile(const BoundaryTransfer& t, int mb) {
    const int sid = ctx_.sub.op_map[static_cast<size_t>(t.producer)];
    if (sid >= 0) {
      const auto it = values_.find({sid, mb});
      ALPA_CHECK(it != values_.end())
          << "stage " << stage_ << " sends " << shared_->graph->op(t.producer).name
          << " mb " << mb << " before computing/receiving it";
      return it->second;
    }
    const auto it = transit_.find({t.producer, mb});
    ALPA_CHECK(it != transit_.end())
        << "stage " << stage_ << " relays " << shared_->graph->op(t.producer).name
        << " mb " << mb << " without having received it";
    return it->second;
  }

  // --- Compute ----------------------------------------------------------

  void RunCompute(OpRole role, int mb) {
    const Graph& sg = ctx_.sub.graph;
    for (int sid = 0; sid < sg.size(); ++sid) {
      const Operator& op = sg.op(sid);
      if (op.role != role) {
        continue;
      }
      if (ctx_.sub.reverse_map[static_cast<size_t>(sid)] < 0) {
        // Placeholder: leaf producers are generated on demand in
        // OperandFull; activation/gradient placeholders must have arrived.
        const int q = ctx_.ph_producer.at(sid);
        const Operator& producer = shared_->graph->op(q);
        if (producer.type != OpType::kInput && producer.type != OpType::kParameter) {
          ALPA_CHECK(values_.count({sid, mb}) != 0)
              << "stage " << stage_ << " computes mb " << mb << " before receiving "
              << producer.name;
        }
        continue;
      }
      if (op.type == OpType::kInput || op.type == OpType::kParameter ||
          op.type == OpType::kUpdate) {
        continue;  // Leaves generate on demand; updates run at kWeightUpdate.
      }
      ComputeOp(sid, mb);
      // Drop buffers whose statically-last consumer just ran (the eager
      // release sets never name anything a later instruction still needs).
      if (const auto ei = eager_release_.find(cur_inst_); ei != eager_release_.end()) {
        if (const auto ep = ei->second.find(sid); ep != ei->second.end()) {
          for (const TensorRef& ref : ep->second) {
            TrackedErase(&values_, {ref.op, ref.microbatch},
                         ctx_.sub.graph.op(ref.op).dtype);
          }
        }
      }
    }
  }

  void ComputeOp(int sid, int mb) {
    const Operator& op = ctx_.sub.graph.op(sid);
    std::vector<const HostTensor*> operands;
    operands.reserve(op.operands.size());
    for (int operand : op.operands) {
      operands.push_back(&OperandFull(operand, mb));
    }
    const int split = ctx_.ring_split[static_cast<size_t>(sid)];
    TileData out;
    out.full_shape = op.shape;
    if (split > 1) {
      // Ring mode: every device computes a contraction partial over the
      // full output, then a real ring all-reduce combines the chunks. The
      // stored value is replicated (layout was overridden to R).
      const int64_t extent = op.einsum.Extent(op.einsum.ContractionLabels()[0]);
      out.box = FullBox(op.shape);
      std::vector<double> partial;
      EvalEinsumPartials(op, operands, ChunkBound(extent, split, rank_),
                         ChunkBound(extent, split, rank_ + 1), out.box, &partial);
      const Clock::time_point ring_start = Clock::now();
      RingAllReduceAccum(*shared_->transport, group_, rank_, partial,
                         MakeTag(kTagRing, sid, mb, 0), DTypeBytes(op.dtype));
      timing_.Add(ExecPhase::kCollective,
                  std::chrono::duration<double>(Clock::now() - ring_start).count());
      out.data.resize(partial.size());
      for (size_t i = 0; i < partial.size(); ++i) {
        out.data[i] = static_cast<float>(partial[i]);
      }
    } else {
      out.box = ctx_.layout[static_cast<size_t>(sid)].TileSlice(op.shape, ctx_.mesh, coord_i_,
                                                                coord_j_);
      EvalOpRegion(op, operands, &out);
    }
    if (op.type == OpType::kLoss && rank_ == 0) {
      std::lock_guard<std::mutex> lock(shared_->result_mu);
      shared_->result->microbatch_loss[static_cast<size_t>(mb)] = out.data[0];
    }
    TrackedStore(&values_, {sid, mb}, std::move(out), op.dtype);
    if (incremental_accum_ && op.role == OpRole::kBackward && grad_sids_.count(sid) != 0) {
      FoldGradient(sid, mb);
    }
  }

  // Adds microbatch `mb`'s weight-gradient tile into the iteration
  // accumulator. Backward instructions are microbatch-ascending (checked in
  // BuildMemoryPlan), so the per-cell addition sequence — zero-filled
  // accumulator, adds for mb 0, 1, ... — is bit-identical to the reference
  // hold-all accumulation at kWeightUpdate.
  void FoldGradient(int sid, int mb) {
    const Operator& op = ctx_.sub.graph.op(sid);
    auto it = grad_accum_.find(sid);
    if (it == grad_accum_.end()) {
      TileData acc;
      acc.full_shape = op.shape;
      acc.box = ctx_.layout[static_cast<size_t>(sid)].TileSlice(op.shape, ctx_.mesh, coord_i_,
                                                                coord_j_);
      if (ctx_.ring_split[static_cast<size_t>(sid)] > 1) {
        acc.box = FullBox(op.shape);  // Ring outputs are replicated.
      }
      acc.data.assign(static_cast<size_t>(BoxElements(acc.box)), 0.0f);
      it = grad_accum_.emplace(sid, std::move(acc)).first;
      live_bytes_ += LogicalBytes(it->second, op.dtype);
      peak_live_bytes_ = std::max(peak_live_bytes_, live_bytes_);
    }
    const TileData& g = values_.at({sid, mb});
    ALPA_CHECK_EQ(g.data.size(), it->second.data.size());
    float* a = it->second.data.data();
    const float* gp = g.data.data();
    for (size_t i = 0; i < it->second.data.size(); ++i) {
      a[i] += gp[i];
    }
  }

  // Returns the full tensor of stage op `sid` for microbatch `mb`,
  // gathering tiles from the mesh when the local shard is partial. Leaves
  // (parameters, inputs, and placeholders of either) are generated directly
  // from the deterministic PRNG — any device can produce any slice, so they
  // never move over links.
  const HostTensor& OperandFull(int sid, int mb) {
    const Operator& op = ctx_.sub.graph.op(sid);
    const int reverse = ctx_.sub.reverse_map[static_cast<size_t>(sid)];
    const Operator* leaf = nullptr;
    if (reverse >= 0 && (op.type == OpType::kInput || op.type == OpType::kParameter)) {
      leaf = &shared_->graph->op(reverse);
    } else if (reverse < 0) {
      const Operator& producer = shared_->graph->op(ctx_.ph_producer.at(sid));
      if (producer.type == OpType::kInput || producer.type == OpType::kParameter) {
        leaf = &producer;
      }
    }
    const bool microbatch_invariant =
        leaf != nullptr && leaf->type == OpType::kParameter;
    const Key key{sid, microbatch_invariant ? -1 : mb};
    if (const auto it = full_cache_.find(key); it != full_cache_.end()) {
      return it->second;
    }
    HostTensor full;
    if (leaf != nullptr) {
      full = GenerateLeaf(*leaf, shared_->options.data_seed,
                          microbatch_invariant ? 0 : mb);
    } else {
      const auto it = values_.find({sid, mb});
      ALPA_CHECK(it != values_.end())
          << "stage " << stage_ << ": operand " << op.name << " mb " << mb << " unavailable";
      full = GatherTile(sid, mb, it->second);
    }
    const HostTensor& stored = full_cache_.emplace(key, std::move(full)).first->second;
    oracle_bytes_ += stored.elements() * DTypeBytes(op.dtype);
    peak_oracle_bytes_ = std::max(peak_oracle_bytes_, oracle_bytes_);
    return stored;
  }

  // Assembles the full tensor from the mesh's tiles: every device sends its
  // shard to every peer and inserts the peers' shards by their layout
  // boxes. Replicated values skip the exchange entirely.
  HostTensor GatherTile(int sid, int mb, const TileData& mine) {
    const Clock::time_point start = Clock::now();
    const Operator& op = ctx_.sub.graph.op(sid);
    struct CollectiveTimer {
      DeviceTimingReport* timing;
      Clock::time_point start;
      ~CollectiveTimer() {
        timing->Add(ExecPhase::kCollective,
                    std::chrono::duration<double>(Clock::now() - start).count());
      }
    } timer{&timing_, start};
    HostTensor full(op.shape);
    if (mine.box == FullBox(op.shape)) {
      InsertTile(mine, &full);
      return full;
    }
    const ShardingSpec& layout = ctx_.layout[static_cast<size_t>(sid)];
    const int k = ctx_.mesh.num_devices();
    for (int r = 0; r < k; ++r) {
      if (r == rank_) {
        continue;
      }
      shared_->transport->Send(device_, group_[static_cast<size_t>(r)],
                               MakeTag(kTagAllGather, sid, mb, rank_), mine.data,
                               static_cast<int64_t>(mine.data.size()) * DTypeBytes(op.dtype));
    }
    InsertTile(mine, &full);
    TileData peer;
    peer.full_shape = op.shape;
    for (int r = 0; r < k; ++r) {
      if (r == rank_) {
        continue;
      }
      peer.box = layout.TileSlice(op.shape, ctx_.mesh, r / ctx_.mesh.dim(1),
                                  r % ctx_.mesh.dim(1));
      peer.data = shared_->transport->Recv(device_, MakeTag(kTagAllGather, sid, mb, r));
      ALPA_CHECK_EQ(static_cast<int64_t>(peer.data.size()), BoxElements(peer.box));
      InsertTile(peer, &full);
    }
    return full;
  }

  // --- Buffer lifetime --------------------------------------------------

  void Free(int mb) {
    // Sharded buffers (values, transits, accumulators) are freed by the
    // static release lists right after their last use; kFreeActivation only
    // evicts the deterministic oracle's gathered/generated full tensors of
    // the finished microbatch. Parameters (cached at mb -1) live on.
    for (auto it = full_cache_.begin(); it != full_cache_.end();) {
      if (it->first.second == mb) {
        oracle_bytes_ -=
            it->second.elements() * DTypeBytes(ctx_.sub.graph.op(it->first.first).dtype);
        it = full_cache_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // --- Optimizer step ----------------------------------------------------

  void RunUpdate() {
    const Graph& sg = ctx_.sub.graph;
    for (int sid = 0; sid < sg.size(); ++sid) {
      const Operator& op = sg.op(sid);
      if (op.type != OpType::kUpdate) {
        continue;
      }
      const int param_sid = op.operands[0];
      const int grad_sid = op.operands[1];
      const int param_full = ctx_.sub.reverse_map[static_cast<size_t>(param_sid)];
      ALPA_CHECK_GE(param_full, 0) << "update of a non-owned parameter";

      // Either take the incrementally folded accumulator (built in
      // ascending microbatch order at the backward instructions) or — when
      // the schedule's backward order isn't ascending — accumulate the
      // held per-microbatch gradient tiles here. Both produce the exact
      // per-cell addition sequence the reference interpreter uses, so
      // accumulation is bit-identical regardless of the path.
      TileData acc;
      if (incremental_accum_) {
        const auto it = grad_accum_.find(grad_sid);
        ALPA_CHECK(it != grad_accum_.end())
            << "missing folded gradient " << sg.op(grad_sid).name;
        live_bytes_ -= LogicalBytes(it->second, sg.op(grad_sid).dtype);
        acc = std::move(it->second);
        grad_accum_.erase(it);
      } else {
        acc.full_shape = sg.op(grad_sid).shape;
        acc.box = ctx_.layout[static_cast<size_t>(grad_sid)].TileSlice(
            acc.full_shape, ctx_.mesh, coord_i_, coord_j_);
        if (ctx_.ring_split[static_cast<size_t>(grad_sid)] > 1) {
          acc.box = FullBox(acc.full_shape);  // Ring outputs are replicated.
        }
        acc.data.assign(static_cast<size_t>(BoxElements(acc.box)), 0.0f);
        for (int mb = 0; mb < shared_->num_microbatches; ++mb) {
          const auto it = values_.find({grad_sid, mb});
          ALPA_CHECK(it != values_.end())
              << "missing gradient " << sg.op(grad_sid).name << " for mb " << mb;
          ALPA_CHECK_EQ(it->second.data.size(), acc.data.size());
          for (size_t i = 0; i < acc.data.size(); ++i) {
            acc.data[i] += it->second.data[i];
          }
        }
      }
      const HostTensor grad = GatherTile(grad_sid, -1, acc);
      if (rank_ != 0) {
        continue;
      }
      const HostTensor param =
          GenerateLeaf(shared_->graph->op(param_full), shared_->options.data_seed, 0);
      TileData out = FullTile(op.shape);
      EvalOpRegion(op, {&param, &grad}, &out);
      HostTensor updated(op.shape);
      InsertTile(out, &updated);
      const std::string& name = shared_->graph->op(param_full).name;
      std::lock_guard<std::mutex> lock(shared_->result_mu);
      shared_->result->weight_grads.emplace(name, grad);
      shared_->result->updated_params.emplace(name, std::move(updated));
    }
  }

  ExecShared* shared_;
  StageContext& ctx_;
  const int stage_;
  const int rank_;
  const int coord_i_;
  const int coord_j_;
  const int device_;
  const std::vector<int> group_;

  std::map<Key, TileData> values_;          // (stage op, mb) -> own shard.
  std::map<Key, TileData> transit_;         // (full-graph op, mb) -> relayed tile.
  std::map<Key, HostTensor> full_cache_;    // Gathered/generated full tensors.
  std::map<Key, TileData> send_staging_;    // (producer, mb parity) -> staged tile.
  std::map<int, TileData> grad_accum_;      // grad sid -> iteration accumulator.

  // Static memory plan (BuildMemoryPlan).
  std::set<int> grad_sids_;
  bool incremental_accum_ = false;
  ArenaPlan plan_;
  std::vector<std::vector<TensorRef>> release_;
  // instruction -> (op position -> buffers to free right after computing
  // it): the mid-instruction refinement of `release_`.
  std::map<int, std::map<int, std::vector<TensorRef>>> eager_release_;
  int cur_inst_ = -1;

  // Runtime accounting, logical dtype bytes.
  int64_t live_bytes_ = 0;
  int64_t peak_live_bytes_ = 0;
  int64_t oracle_bytes_ = 0;
  int64_t peak_oracle_bytes_ = 0;
  DeviceTimingReport timing_;
};

// GatherTile at update time tags microbatch -1; reserve it.
constexpr int kMinMicrobatches = 1;
constexpr int kMaxMicrobatches = 1022;  // Tag field holds mb+1 in 10 bits.

Status ValidateInputs(const Graph& graph, const CompiledPipeline& pipeline,
                      const PipelineSimInput& sim_input, const ExecOptions& options) {
  if (!pipeline.feasible) {
    return Status::InvalidArgument("cannot execute an infeasible pipeline: " +
                                   pipeline.infeasible_reason);
  }
  if (pipeline.stages.empty()) {
    return Status::InvalidArgument("pipeline has no stages");
  }
  if (options.reshard == ReshardStrategy::kSignalOnly) {
    return Status::InvalidArgument(
        "kSignalOnly resharding moves 1 synthetic byte and cannot carry tensors");
  }
  if (sim_input.num_microbatches != pipeline.num_microbatches) {
    return Status::InvalidArgument(StrFormat(
        "sim input has %d microbatches but the pipeline was compiled for %d — "
        "build both from one BuildPipelineSimInput call",
        sim_input.num_microbatches, pipeline.num_microbatches));
  }
  if (sim_input.num_microbatches < kMinMicrobatches ||
      sim_input.num_microbatches > kMaxMicrobatches) {
    return Status::InvalidArgument("num_microbatches out of range");
  }
  if (!sim_input.stages.empty() && sim_input.stages.size() != pipeline.stages.size()) {
    return Status::InvalidArgument(
        StrFormat("sim input has %zu stage profiles but the pipeline has %zu stages",
                  sim_input.stages.size(), pipeline.stages.size()));
  }
  if (!sim_input.stage_devices.empty()) {
    if (sim_input.stage_devices.size() != pipeline.stages.size()) {
      return Status::InvalidArgument("sim input stage_devices count mismatches the pipeline");
    }
    for (size_t s = 0; s < pipeline.stages.size(); ++s) {
      if (sim_input.stage_devices[s] != pipeline.stages[s].device_ids) {
        return Status::InvalidArgument(StrFormat(
            "stage %zu device placement drifted between simulator input and pipeline — "
            "build both from one BuildPipelineSimInput call",
            s));
      }
    }
  }
  if (static_cast<int64_t>(graph.size()) >= (int64_t{1} << 21)) {
    return Status::InvalidArgument("graph too large for transfer tags");
  }
  for (const Operator& op : graph.ops()) {
    if (op.layer < 0) {
      return Status::InvalidArgument("op '" + op.name + "' has no layer tag");
    }
  }
  int loss_ops = 0;
  for (const Operator& op : graph.ops()) {
    loss_ops += op.type == OpType::kLoss ? 1 : 0;
  }
  if (loss_ops > 1) {
    return Status::InvalidArgument("executor supports at most one kLoss op");
  }
  return Status::Ok();
}

}  // namespace

void AnnotatePrograms(const Graph& graph, const CompiledPipeline& pipeline,
                      std::vector<MeshProgram>* programs) {
  std::vector<StageSubgraph> subs;
  subs.reserve(pipeline.stages.size());
  for (const CompiledStage& stage : pipeline.stages) {
    subs.push_back(ExtractStage(graph, stage.layer_begin, stage.layer_end));
  }
  const BoundarySets sets = BuildBoundarySets(graph, subs, OwnerStages(graph, pipeline));
  for (MeshProgram& program : *programs) {
    const int s = program.stage;
    for (MeshInstruction& inst : program.instructions) {
      switch (inst.kind) {
        case InstructionKind::kRecvActivation:
          inst.tensor_ids = sets.fwd[static_cast<size_t>(s - 1)];
          break;
        case InstructionKind::kSendActivation:
          inst.tensor_ids = sets.fwd[static_cast<size_t>(s)];
          break;
        case InstructionKind::kRecvGradient:
          inst.tensor_ids = sets.bwd[static_cast<size_t>(s)];
          break;
        case InstructionKind::kSendGradient:
          inst.tensor_ids = sets.bwd[static_cast<size_t>(s - 1)];
          break;
        default:
          break;
      }
    }
  }
}

StatusOr<ExecResult> ExecutePipeline(const Graph& graph, const CompiledPipeline& pipeline,
                                     const ClusterSpec& cluster,
                                     const PipelineSimInput& sim_input,
                                     const ExecOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  if (Status status = ValidateInputs(graph, pipeline, sim_input, options); !status.ok()) {
    return status;
  }
  const int num_stages = static_cast<int>(pipeline.stages.size());
  const int num_microbatches = sim_input.num_microbatches;

  // --- Stage contexts: subgraph, mesh, per-op layouts, programs. ---
  std::vector<StageContext> ctx;
  ctx.reserve(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    const CompiledStage& stage = pipeline.stages[static_cast<size_t>(s)];
    ctx.emplace_back(DeviceMesh::Create(cluster, stage.placement, stage.logical_shape));
    StageContext& c = ctx.back();
    c.index = s;
    c.sub = ExtractStage(graph, stage.layer_begin, stage.layer_end);
    for (const BoundaryTensor& bt : c.sub.inputs) {
      c.ph_producer[c.sub.op_map[static_cast<size_t>(bt.producer_op)]] = bt.producer_op;
    }

    std::map<std::string, ShardingSpec> summary;
    for (const auto& [name, text] : stage.op_spec_summary) {
      ShardingSpec spec;
      if (ShardingSpec::FromString(text, &spec)) {
        summary.emplace(name, std::move(spec));
      }
    }
    const Graph& sg = c.sub.graph;
    c.layout.resize(static_cast<size_t>(sg.size()));
    c.ring_split.assign(static_cast<size_t>(sg.size()), 1);
    for (int sid = 0; sid < sg.size(); ++sid) {
      const Operator& op = sg.op(sid);
      ShardingSpec spec;
      const auto it = summary.find(op.name);
      if (it != summary.end() && it->second.rank() == op.shape.rank() &&
          it->second.IsValidFor(op.shape, c.mesh)) {
        spec = it->second;
      } else {
        spec = HeuristicLayout(op.shape, c.mesh);
      }
      if (options.reduction == ReductionMode::kRing && op.type == OpType::kEinsum &&
          c.mesh.num_devices() > 1) {
        const std::string contraction = op.einsum.ContractionLabels();
        if (!contraction.empty() &&
            op.einsum.Extent(contraction[0]) % c.mesh.num_devices() == 0) {
          spec = ShardingSpec::Replicated(op.shape.rank());
          c.ring_split[static_cast<size_t>(sid)] = c.mesh.num_devices();
        }
      }
      c.layout[static_cast<size_t>(sid)] = std::move(spec);
    }
    for (const Operator& op : sg.ops()) {
      c.has_loss = c.has_loss || op.type == OpType::kLoss;
    }
  }

  // --- Boundary transfers: which tensors cross each boundary and how. ---
  std::vector<StageSubgraph> subs_view;
  subs_view.reserve(static_cast<size_t>(num_stages));
  for (StageContext& c : ctx) {
    subs_view.push_back(c.sub);  // Copy for the shared helper; cheap graphs.
  }
  const BoundarySets sets = BuildBoundarySets(graph, subs_view, OwnerStages(graph, pipeline));

  // The layout a tensor uses while resident on stage `t`: its stage op's
  // layout when consumed/produced there, a transit layout otherwise.
  const auto layout_on_stage = [&](int t, int q) -> const ShardingSpec& {
    StageContext& c = ctx[static_cast<size_t>(t)];
    const int sid = c.sub.op_map[static_cast<size_t>(q)];
    if (sid >= 0) {
      return c.layout[static_cast<size_t>(sid)];
    }
    const auto it = c.transit_layout.find(q);
    if (it != c.transit_layout.end()) {
      return it->second;
    }
    return c.transit_layout
        .emplace(q, HeuristicLayout(graph.op(q).shape, c.mesh))
        .first->second;
  };

  std::vector<std::vector<BoundaryTransfer>> fwd_transfers(
      static_cast<size_t>(std::max(0, num_stages - 1)));
  std::vector<std::vector<BoundaryTransfer>> bwd_transfers(fwd_transfers.size());
  for (int b = 0; b + 1 < num_stages; ++b) {
    for (int q : sets.fwd[static_cast<size_t>(b)]) {
      BoundaryTransfer t;
      t.producer = q;
      t.shape = graph.op(q).shape;
      t.src_spec = layout_on_stage(b, q);
      t.dst_spec = layout_on_stage(b + 1, q);
      t.program = BuildReshardProgram(ctx[static_cast<size_t>(b)].mesh, t.src_spec,
                                      ctx[static_cast<size_t>(b + 1)].mesh, t.dst_spec, t.shape,
                                      DTypeBytes(graph.op(q).dtype), options.reshard);
      fwd_transfers[static_cast<size_t>(b)].push_back(std::move(t));
    }
    for (int q : sets.bwd[static_cast<size_t>(b)]) {
      BoundaryTransfer t;
      t.producer = q;
      t.shape = graph.op(q).shape;
      t.src_spec = layout_on_stage(b + 1, q);
      t.dst_spec = layout_on_stage(b, q);
      t.program = BuildReshardProgram(ctx[static_cast<size_t>(b + 1)].mesh, t.src_spec,
                                      ctx[static_cast<size_t>(b)].mesh, t.dst_spec, t.shape,
                                      DTypeBytes(graph.op(q).dtype), options.reshard);
      bwd_transfers[static_cast<size_t>(b)].push_back(std::move(t));
    }
  }

  // --- Static instruction lists, validated then annotated. ---
  std::vector<MeshProgram> programs =
      EmitPipelinePrograms(sim_input.schedule, num_stages, num_microbatches);
  if (const std::string error = ValidatePrograms(programs, num_microbatches); !error.empty()) {
    return Status::Internal("emitted programs failed validation: " + error);
  }
  AnnotatePrograms(graph, pipeline, &programs);
  for (int s = 0; s < num_stages; ++s) {
    ctx[static_cast<size_t>(s)].program = programs[static_cast<size_t>(s)];
  }

  // --- Run: one worker thread per logical device. ---
  Transport transport(cluster.num_devices());
  ExecutionProfiler profiler;
  // Analytical per-device memory estimate for each stage, reported next to
  // the planned and measured numbers.
  std::vector<int64_t> modeled_bytes(static_cast<size_t>(num_stages), 0);
  for (int s = 0; s < num_stages; ++s) {
    const CompiledStage& stage = pipeline.stages[static_cast<size_t>(s)];
    const int in_flight =
        MaxInFlightMicrobatches(sim_input.schedule, num_stages, s, num_microbatches);
    modeled_bytes[static_cast<size_t>(s)] =
        std::llround(stage.weight_bytes + in_flight * stage.act_bytes_per_microbatch +
                     stage.work_bytes);
  }
  ExecResult result;
  if (std::any_of(ctx.begin(), ctx.end(),
                  [](const StageContext& c) { return c.has_loss; })) {
    result.microbatch_loss.assign(static_cast<size_t>(num_microbatches), 0.0f);
  }
  ExecShared shared;
  shared.graph = &graph;
  shared.options = options;
  shared.num_microbatches = num_microbatches;
  shared.ctx = &ctx;
  shared.fwd_transfers = &fwd_transfers;
  shared.bwd_transfers = &bwd_transfers;
  shared.transport = &transport;
  shared.profiler = &profiler;
  shared.modeled_bytes = &modeled_bytes;
  shared.result = &result;

  std::vector<std::unique_ptr<DeviceWorker>> workers;
  for (int s = 0; s < num_stages; ++s) {
    for (int r = 0; r < ctx[static_cast<size_t>(s)].mesh.num_devices(); ++r) {
      workers.push_back(std::make_unique<DeviceWorker>(&shared, s, r));
    }
  }
  {
    TraceSpan span("execute_pipeline", "exec");
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (auto& worker : workers) {
      threads.emplace_back([&worker] { worker->Run(); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  result.stage_timings = profiler.stage_timings();
  std::sort(result.device_memory.begin(), result.device_memory.end(),
            [](const DeviceMemoryStats& a, const DeviceMemoryStats& b) {
              return std::tie(a.stage, a.rank) < std::tie(b.stage, b.rank);
            });
  result.total_bytes = transport.TotalBytes();
  result.cross_mesh_bytes = transport.ChannelBytes(Channel::kCrossMesh);
  result.collective_bytes = transport.ChannelBytes(Channel::kCollective);
  result.total_messages = transport.TotalMessages();
  result.num_devices = static_cast<int>(workers.size());
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

}  // namespace exec
}  // namespace alpa
