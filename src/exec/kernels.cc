#include "src/exec/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/exec/arena.h"
#include "src/exec/gemm.h"
#include "src/support/logging.h"

namespace alpa {
namespace exec {

namespace {

// Right-aligned broadcast/resize map: operand index for output index
// `out_idx` along aligned dims (input dim d_in pairs with output dim
// d_in + rank_delta). Index map in_i = out_i * in_dim / out_dim covers
// identity (equal dims), broadcast/upsample (in < out) and strided
// subsample (in > out) with one integer formula.
int64_t MappedOperandIndex(const TensorShape& in_shape, const TensorShape& out_shape,
                           const std::vector<int64_t>& out_index) {
  const int rank_delta = out_shape.rank() - in_shape.rank();
  ALPA_CHECK_GE(rank_delta, 0);
  int64_t linear = 0;
  for (int d = 0; d < in_shape.rank(); ++d) {
    const int64_t out_dim = out_shape.dim(d + rank_delta);
    const int64_t in_i = out_index[static_cast<size_t>(d + rank_delta)] * in_shape.dim(d) / out_dim;
    linear = linear * in_shape.dim(d) + in_i;
  }
  return linear;
}

// The operand's index step along the output's innermost dim, or -1 when the
// map is irregular there (in_dim neither matching nor 1). Step 1: aligned
// identity; step 0: broadcast (or a scalar operand).
int64_t InnerStep(const TensorShape& in_shape, const TensorShape& out_shape) {
  if (in_shape.rank() == 0) {
    return 0;
  }
  const int64_t in_last = in_shape.dim(in_shape.rank() - 1);
  const int64_t out_last = out_shape.dim(out_shape.rank() - 1);
  if (in_last == out_last) {
    return 1;
  }
  if (in_last == 1) {
    return 0;
  }
  return -1;
}

void EvalElementwise(const Operator& op, const std::vector<const HostTensor*>& operands,
                     TileData* out) {
  // Fast path: every operand regular along the innermost dim — one mapped
  // base index per run, then a flat strided loop over independent cells.
  bool regular = op.shape.rank() > 0;
  for (const HostTensor* operand : operands) {
    regular = regular && InnerStep(operand->shape(), op.shape) >= 0;
  }
  if (regular) {
    const size_t n_ops = operands.size();
    std::vector<const float*> base(n_ops);
    std::vector<int64_t> step(n_ops);
    for (size_t t = 0; t < n_ops; ++t) {
      step[t] = InnerStep(operands[t]->shape(), op.shape);
    }
    std::vector<int64_t> scratch;
    ForEachRun(out->box, &scratch, [&](int64_t k, const std::vector<int64_t>& index, int64_t len) {
      for (size_t t = 0; t < n_ops; ++t) {
        base[t] = operands[t]->data() + MappedOperandIndex(operands[t]->shape(), op.shape, index);
      }
      float* o = out->data.data() + k;
      for (int64_t i = 0; i < len; ++i) {
        double s = 0.0;
        for (size_t t = 0; t < n_ops; ++t) {
          s += base[t][i * step[t]];
        }
        o[i] = Squash(s);
      }
    });
    return;
  }
  size_t k = 0;
  ForEachIndex(out->box, [&](const std::vector<int64_t>& index) {
    double s = 0.0;
    for (const HostTensor* operand : operands) {
      s += operand->data()[MappedOperandIndex(operand->shape(), op.shape, index)];
    }
    out->data[k++] = Squash(s);
  });
}

void EvalReduce(const Operator& op, const HostTensor& in, TileData* out) {
  const int rank_delta = in.shape().rank() - op.shape.rank();
  ALPA_CHECK_GE(rank_delta, 0);
  // Preimage box: unmatched leading input dims range fully; aligned dims
  // cover [i*in/out, (i+1)*in/out). Hoisted out of the cell loop along with
  // the iteration scratch so the inner loops allocate nothing.
  Box pre(static_cast<size_t>(in.shape().rank()));
  for (int d = 0; d < rank_delta; ++d) {
    pre[static_cast<size_t>(d)] = {0, in.shape().dim(d)};
  }
  std::vector<int64_t> pre_scratch;
  size_t k = 0;
  ForEachIndex(out->box, [&](const std::vector<int64_t>& index) {
    for (int d = rank_delta; d < in.shape().rank(); ++d) {
      const int64_t out_dim = op.shape.dim(d - rank_delta);
      const int64_t i = index[static_cast<size_t>(d - rank_delta)];
      pre[static_cast<size_t>(d)] = {i * in.shape().dim(d) / out_dim,
                                     (i + 1) * in.shape().dim(d) / out_dim};
    }
    // Row-major run walk preserves the reference's sequential f64 addition
    // order exactly; the pointer loop just skips per-element index math.
    double sum = 0.0;
    int64_t count = 0;
    ForEachRun(pre, &pre_scratch,
               [&](int64_t, const std::vector<int64_t>& pre_index, int64_t len) {
                 const float* p = in.data() + LinearIndexOf(in.shape(), pre_index);
                 for (int64_t i = 0; i < len; ++i) {
                   sum += p[i];
                 }
                 count += len;
               });
    out->data[k++] = static_cast<float>(count > 0 ? sum / static_cast<double>(count) : 0.0);
  });
}

// Softmax and layer norm share the row decomposition: per-row statistics
// are computed over the FULL last dim regardless of the output box, so a
// device holding a last-dim shard still produces bit-identical cells.
void EvalRowNormalize(const Operator& op, const HostTensor& in, TileData* out) {
  ALPA_CHECK_GE(op.shape.rank(), 1);
  ALPA_CHECK(in.shape() == op.shape);
  const int64_t row = op.shape.dim(op.shape.rank() - 1);
  Box lead(out->box.begin(), out->box.end() - 1);
  const auto [col_lo, col_hi] = out->box.back();
  size_t k = 0;
  std::vector<int64_t> full_index(static_cast<size_t>(op.shape.rank()));
  ForEachIndex(lead, [&](const std::vector<int64_t>& lead_index) {
    std::copy(lead_index.begin(), lead_index.end(), full_index.begin());
    full_index.back() = 0;
    const int64_t base = LinearIndexOf(in.shape(), full_index);
    const float* x = in.data() + base;
    if (op.type == OpType::kSoftmax) {
      double max = x[0];
      for (int64_t c = 1; c < row; ++c) {
        max = std::max<double>(max, x[c]);
      }
      double denom = 0.0;
      for (int64_t c = 0; c < row; ++c) {
        denom += std::exp(static_cast<double>(x[c]) - max);
      }
      for (int64_t c = col_lo; c < col_hi; ++c) {
        out->data[k++] = static_cast<float>(std::exp(static_cast<double>(x[c]) - max) / denom);
      }
    } else {
      double mean = 0.0;
      for (int64_t c = 0; c < row; ++c) {
        mean += x[c];
      }
      mean /= static_cast<double>(row);
      double var = 0.0;
      for (int64_t c = 0; c < row; ++c) {
        const double d = static_cast<double>(x[c]) - mean;
        var += d * d;
      }
      var /= static_cast<double>(row);
      const double inv = 1.0 / std::sqrt(var + 1e-5);
      for (int64_t c = col_lo; c < col_hi; ++c) {
        out->data[k++] = static_cast<float>((static_cast<double>(x[c]) - mean) * inv);
      }
    }
  });
}

void EvalEmbedding(const Operator& op, const HostTensor& ids, const HostTensor& table,
                   TileData* out) {
  ALPA_CHECK_EQ(table.shape().rank(), 2);
  const int64_t vocab = table.shape().dim(0);
  const int64_t model = table.shape().dim(1);
  // Runs along the model dim are row copies out of the table; the id index
  // buffer is hoisted and reused across rows.
  std::vector<int64_t> scratch;
  std::vector<int64_t> id_index;
  const int64_t col_lo = out->box.empty() ? 0 : out->box.back().first;
  ForEachRun(out->box, &scratch, [&](int64_t k, const std::vector<int64_t>& index, int64_t len) {
    id_index.assign(index.begin(), index.end() - (index.empty() ? 0 : 1));
    const int64_t token = LinearIndexOf(ids.shape(), id_index);
    const int64_t id = static_cast<int64_t>(ids.data()[token]) % vocab;
    std::memcpy(out->data.data() + k, table.data() + id * model + col_lo,
                sizeof(float) * static_cast<size_t>(len));
  });
}

void EvalEmbeddingGrad(const Operator& op, const HostTensor& ids, const HostTensor& grad_out,
                       TileData* out) {
  ALPA_CHECK_EQ(op.shape.rank(), 2);
  const int64_t vocab = op.shape.dim(0);
  const int64_t model = op.shape.dim(1);
  const int64_t tokens = ids.shape().elements();
  ALPA_CHECK_EQ(grad_out.shape().elements(), tokens * model);
  // Scatter form of the reference's per-cell gather: one ascending pass
  // over the tokens, accumulating each token's grad row into its vocab
  // row's f64 accumulators. Per output cell the additions happen in the
  // exact same ascending-t order the reference uses, so the result is
  // bit-identical — at O(tokens * model) instead of O(vocab * model *
  // tokens).
  const auto [v_lo, v_hi] = out->box[0];
  const auto [m_lo, m_hi] = out->box[1];
  const int64_t m_w = m_hi - m_lo;
  std::vector<double> acc(static_cast<size_t>(std::max<int64_t>(0, (v_hi - v_lo) * m_w)), 0.0);
  for (int64_t t = 0; t < tokens; ++t) {
    const int64_t v = static_cast<int64_t>(ids.data()[t]) % vocab;
    if (v < v_lo || v >= v_hi) {
      continue;
    }
    double* row = acc.data() + (v - v_lo) * m_w;
    const float* g = grad_out.data() + t * model + m_lo;
#pragma omp simd
    for (int64_t m = 0; m < m_w; ++m) {
      row[m] += static_cast<double>(g[m]);
    }
  }
  for (size_t i = 0; i < acc.size(); ++i) {
    out->data[i] = static_cast<float>(acc[i]);
  }
}

// Token t lands in expert e = t % E, slot c = t / E; slots past the
// capacity drop (and the inverse fills dropped tokens with zero).
void EvalMoeDispatch(const Operator& op, const HostTensor& x, TileData* out) {
  ALPA_CHECK_EQ(op.shape.rank(), 3);
  const int64_t experts = op.shape.dim(0);
  const int64_t model = op.shape.dim(2);
  ALPA_CHECK_EQ(x.shape().elements() % model, 0);
  const int64_t tokens = x.shape().elements() / model;
  const int64_t col_lo = out->box.back().first;
  std::vector<int64_t> scratch;
  ForEachRun(out->box, &scratch, [&](int64_t k, const std::vector<int64_t>& index, int64_t len) {
    const int64_t token = index[1] * experts + index[0];
    if (token < tokens) {
      std::memcpy(out->data.data() + k, x.data() + token * model + col_lo,
                  sizeof(float) * static_cast<size_t>(len));
    } else {
      std::memset(out->data.data() + k, 0, sizeof(float) * static_cast<size_t>(len));
    }
  });
}

void EvalMoeCombine(const Operator& op, const HostTensor& expert_out, TileData* out) {
  ALPA_CHECK_EQ(expert_out.shape().rank(), 3);
  const int64_t experts = expert_out.shape().dim(0);
  const int64_t capacity = expert_out.shape().dim(1);
  const int64_t model = expert_out.shape().dim(2);
  ALPA_CHECK_EQ(op.shape.elements() % model, 0);
  // Within a run the full-tensor linear index just increments, so token/m
  // decompose incrementally without per-element index vectors.
  std::vector<int64_t> scratch;
  ForEachRun(out->box, &scratch, [&](int64_t k, const std::vector<int64_t>& index, int64_t len) {
    int64_t linear = LinearIndexOf(op.shape, index);
    for (int64_t i = 0; i < len; ++i, ++linear) {
      const int64_t token = linear / model;
      const int64_t m = linear % model;
      const int64_t e = token % experts;
      const int64_t c = token / experts;
      out->data[static_cast<size_t>(k + i)] =
          c < capacity ? expert_out.data()[(e * capacity + c) * model + m] : 0.0f;
    }
  });
}

// Mean of squares over operand 0. The labels operand is shape-only in this
// IR (integer class ids with no numeric loss formula attached), and the
// backward builder never emits gradients for kInput operands, so the loss
// reads only the logits. The f64 accumulation is deliberately sequential —
// never vectorized or reassociated.
void EvalLoss(const HostTensor& logits, TileData* out) {
  double sum = 0.0;
  const int64_t n = logits.shape().elements();
  for (int64_t i = 0; i < n; ++i) {
    const double x = logits.data()[i];
    sum += x * x;
  }
  out->data[0] = static_cast<float>(n > 0 ? sum / static_cast<double>(n) : 0.0);
}

void EvalUpdate(const Operator& op, const HostTensor& param, const HostTensor& grad,
                TileData* out) {
  ALPA_CHECK(param.shape() == op.shape);
  ALPA_CHECK(grad.shape() == op.shape);
  std::vector<int64_t> scratch;
  ForEachRun(out->box, &scratch, [&](int64_t k, const std::vector<int64_t>& index, int64_t len) {
    const int64_t base = LinearIndexOf(op.shape, index);
    const float* p = param.data() + base;
    const float* g = grad.data() + base;
    float* o = out->data.data() + k;
    for (int64_t i = 0; i < len; ++i) {
      o[i] = static_cast<float>(static_cast<double>(p[i]) -
                                kLearningRate * static_cast<double>(g[i]));
    }
  });
}

// --- Einsum -> GEMM lowering ---------------------------------------------
//
// Classifies each output label by which operands carry it (both: batch,
// operand 0 only: M, operand 1 only: N), flattens the contraction labels
// into a single K axis in ContractionLabels() odometer order (first label
// restricted to [lo, hi)), and hands the f64-accumulation GEMM one offset
// table per operand axis. Because flattened-K ascending IS the reference
// odometer order and GemmF64Acc keeps one unbroken f64 chain per cell across
// all of K, the lowering is bit-identical to the reference loop for every
// lowerable einsum.
bool TryEinsumGemm(const Operator& op, const std::vector<const HostTensor*>& operands,
                   int64_t contraction_lo, int64_t contraction_hi, const Box& box,
                   std::vector<double>* out) {
  const EinsumSpec& spec = op.einsum;
  if (operands.size() != 2) {
    return false;
  }
  const std::string contraction = spec.ContractionLabels();
  if (contraction.empty()) {
    return false;  // Assignment (not +=) semantics; keep the reference path.
  }
  if (box.size() != spec.output.size()) {
    return false;
  }
  // Duplicate output labels make a cell's operand index depend on the LAST
  // occurrence only (label_value overwrite in the reference); the offset
  // tables below sum over occurrences instead, so bail out.
  bool seen[256] = {false};
  for (char l : spec.output) {
    const unsigned char u = static_cast<unsigned char>(l);
    if (seen[u]) {
      return false;
    }
    seen[u] = true;
  }

  // Per-operand stride per label, summed over repeated occurrences within
  // the operand (matches label_value-based indexing for traces).
  int64_t stride_of[2][256] = {{0}, {0}};
  bool has[2][256] = {{false}, {false}};
  for (int t = 0; t < 2; ++t) {
    const std::string& labels = spec.operands[static_cast<size_t>(t)];
    ALPA_CHECK_EQ(operands[static_cast<size_t>(t)]->shape().rank(),
                  static_cast<int>(labels.size()));
    int64_t stride = 1;
    for (int d = static_cast<int>(labels.size()) - 1; d >= 0; --d) {
      const unsigned char u = static_cast<unsigned char>(labels[static_cast<size_t>(d)]);
      stride_of[t][u] += stride;
      has[t][u] = true;
      stride *= operands[static_cast<size_t>(t)]->shape().dim(d);
    }
  }

  // Output box strides (row-major over the box extents).
  const size_t out_rank = box.size();
  std::vector<int64_t> box_stride(out_rank, 1);
  for (int d = static_cast<int>(out_rank) - 2; d >= 0; --d) {
    box_stride[static_cast<size_t>(d)] =
        box_stride[static_cast<size_t>(d + 1)] * (box[static_cast<size_t>(d + 1)].second -
                                                  box[static_cast<size_t>(d + 1)].first);
  }
  struct OutDim {
    int64_t lo, hi, bstride;
    unsigned char label;
  };
  std::vector<OutDim> m_dims, n_dims, b_dims;
  for (size_t d = 0; d < out_rank; ++d) {
    const unsigned char u = static_cast<unsigned char>(spec.output[d]);
    const OutDim od{box[d].first, box[d].second, box_stride[d], u};
    if (has[0][u] && has[1][u]) {
      b_dims.push_back(od);
    } else if (has[0][u]) {
      m_dims.push_back(od);
    } else if (has[1][u]) {
      n_dims.push_back(od);
    } else {
      return false;  // Output label no operand carries.
    }
  }

  const int64_t cells = std::max<int64_t>(1, BoxElements(box));
  const int64_t first_extent = spec.Extent(contraction[0]);
  ALPA_CHECK_GE(contraction_lo, 0);
  ALPA_CHECK_LE(contraction_hi, first_extent);
  if (contraction_hi <= contraction_lo || BoxElements(box) == 0) {
    out->assign(static_cast<size_t>(cells), 0.0);
    return true;  // Empty contraction range (or box): all sums stay 0.
  }
  // Batch x M x N covers the box, so the scatter below writes every cell.
  out->resize(static_cast<size_t>(cells));

  // Flattened K: odometer over contraction labels, last label fastest.
  std::vector<std::pair<int64_t, int64_t>> ranges;
  int64_t k_total = 1;
  for (size_t c = 0; c < contraction.size(); ++c) {
    const int64_t lo = c == 0 ? contraction_lo : 0;
    const int64_t hi = c == 0 ? contraction_hi : spec.Extent(contraction[c]);
    ranges.push_back({lo, hi});
    k_total *= hi - lo;
  }
  std::vector<int64_t> ka(static_cast<size_t>(k_total));
  std::vector<int64_t> kb(static_cast<size_t>(k_total));
  {
    std::vector<int64_t> val(contraction.size());
    for (size_t c = 0; c < contraction.size(); ++c) {
      val[c] = ranges[c].first;
    }
    for (int64_t kk = 0; kk < k_total; ++kk) {
      int64_t oa = 0;
      int64_t ob = 0;
      for (size_t c = 0; c < contraction.size(); ++c) {
        const unsigned char u = static_cast<unsigned char>(contraction[c]);
        oa += stride_of[0][u] * val[c];
        ob += stride_of[1][u] * val[c];
      }
      ka[static_cast<size_t>(kk)] = oa;
      kb[static_cast<size_t>(kk)] = ob;
      for (size_t c = contraction.size(); c-- > 0;) {
        if (++val[c] < ranges[c].second) {
          break;
        }
        val[c] = ranges[c].first;
      }
    }
  }

  // Enumerate a dim group over its box ranges: operand offsets + output box
  // offsets per flattened position.
  const auto enumerate = [](const std::vector<OutDim>& dims, const int64_t* strides,
                            std::vector<int64_t>* op_off, std::vector<int64_t>* out_off) {
    int64_t count = 1;
    for (const OutDim& d : dims) {
      count *= d.hi - d.lo;
    }
    op_off->resize(static_cast<size_t>(count));
    out_off->resize(static_cast<size_t>(count));
    std::vector<int64_t> val(dims.size());
    for (size_t d = 0; d < dims.size(); ++d) {
      val[d] = dims[d].lo;
    }
    for (int64_t i = 0; i < count; ++i) {
      int64_t oo = 0;
      int64_t bo = 0;
      for (size_t d = 0; d < dims.size(); ++d) {
        oo += strides[dims[d].label] * val[d];
        bo += dims[d].bstride * (val[d] - dims[d].lo);
      }
      (*op_off)[static_cast<size_t>(i)] = oo;
      (*out_off)[static_cast<size_t>(i)] = bo;
      for (size_t d = dims.size(); d-- > 0;) {
        if (++val[d] < dims[d].hi) {
          break;
        }
        val[d] = dims[d].lo;
      }
    }
    return count;
  };

  std::vector<int64_t> ma, om, nb, on;
  const int64_t m_count = enumerate(m_dims, stride_of[0], &ma, &om);
  const int64_t n_count = enumerate(n_dims, stride_of[1], &nb, &on);

  // Batch offsets need BOTH operands' strides; enumerate twice plus output.
  std::vector<int64_t> b0, b1, bo, unused;
  const int64_t b_count = enumerate(b_dims, stride_of[0], &b0, &bo);
  enumerate(b_dims, stride_of[1], &b1, &unused);

  const float* d0 = operands[0]->data();
  const float* d1 = operands[1]->data();
  // The kernel packs its panels straight through the offset tables (A's
  // element (m, kk) at ma[m] + ka[kk], B's (kk, n) at kb[kk] + nb[n]) and
  // writes its product into an f64 slab in a per-thread arena, so the
  // steady-state hot loop never touches the system allocator.
  thread_local Arena arena;
  arena.Reset();
  double* c_buf = arena.AllocDoubles(m_count * n_count);
  for (int64_t b = 0; b < b_count; ++b) {
    const GemmOperand a{d0 + b0[static_cast<size_t>(b)], ma.data(), ka.data()};
    const GemmOperand bm{d1 + b1[static_cast<size_t>(b)], kb.data(), nb.data()};
    GemmF64Acc(m_count, n_count, k_total, a, bm, c_buf);
    double* o = out->data() + bo[static_cast<size_t>(b)];
    for (int64_t m = 0; m < m_count; ++m) {
      const double* crow = c_buf + m * n_count;
      const int64_t o_m = om[static_cast<size_t>(m)];
      for (int64_t n = 0; n < n_count; ++n) {
        o[o_m + on[static_cast<size_t>(n)]] = crow[n];
      }
    }
  }
  return true;
}

}  // namespace

float Squash(double s) { return static_cast<float>(s / (1.0 + std::fabs(s) * 0.25)); }

void EvalEinsumPartialsReference(const Operator& op,
                                 const std::vector<const HostTensor*>& operands,
                                 int64_t contraction_lo, int64_t contraction_hi, const Box& box,
                                 std::vector<double>* out) {
  ALPA_CHECK(op.type == OpType::kEinsum);
  const EinsumSpec& spec = op.einsum;
  ALPA_CHECK_EQ(operands.size(), spec.operands.size());
  const std::string contraction = spec.ContractionLabels();

  // Slot per distinct label; output labels fill from the cell index, then
  // contraction labels iterate row-major (last label fastest), so the
  // double accumulation order is a pure function of the einsum spec.
  int64_t label_value[256] = {0};
  struct Term {
    const float* data;
    // (stride, label) per operand dim, innermost last.
    std::vector<std::pair<int64_t, unsigned char>> dims;
  };
  std::vector<Term> terms(operands.size());
  for (size_t i = 0; i < operands.size(); ++i) {
    const std::string& labels = spec.operands[i];
    ALPA_CHECK_EQ(operands[i]->shape().rank(), static_cast<int>(labels.size()));
    terms[i].data = operands[i]->data();
    int64_t stride = 1;
    terms[i].dims.resize(labels.size());
    for (int d = static_cast<int>(labels.size()) - 1; d >= 0; --d) {
      terms[i].dims[static_cast<size_t>(d)] = {stride, static_cast<unsigned char>(labels[static_cast<size_t>(d)])};
      stride *= operands[i]->shape().dim(d);
    }
  }
  const auto term_index = [&](const Term& term) {
    int64_t idx = 0;
    for (const auto& [stride, label] : term.dims) {
      idx += stride * label_value[label];
    }
    return idx;
  };

  // Contraction ranges: the first label carries the [lo, hi) restriction.
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (size_t c = 0; c < contraction.size(); ++c) {
    const int64_t extent = spec.Extent(contraction[c]);
    if (c == 0) {
      ALPA_CHECK_GE(contraction_lo, 0);
      ALPA_CHECK_LE(contraction_hi, extent);
      ranges.push_back({contraction_lo, contraction_hi});
    } else {
      ranges.push_back({0, extent});
    }
  }
  if (contraction.empty()) {
    ALPA_CHECK_EQ(contraction_lo, 0);
    ALPA_CHECK_EQ(contraction_hi, 1);
  }

  out->assign(static_cast<size_t>(std::max<int64_t>(1, BoxElements(box))), 0.0);
  size_t k = 0;
  ForEachIndex(box, [&](const std::vector<int64_t>& index) {
    for (size_t d = 0; d < spec.output.size(); ++d) {
      label_value[static_cast<unsigned char>(spec.output[d])] = index[d];
    }
    double sum = 0.0;
    if (contraction.empty()) {
      double prod = 1.0;
      for (const Term& term : terms) {
        prod *= term.data[term_index(term)];
      }
      sum = prod;
    } else {
      // Odometer over contraction labels.
      bool live = true;
      for (size_t c = 0; c < contraction.size(); ++c) {
        if (ranges[c].second <= ranges[c].first) {
          live = false;
        }
        label_value[static_cast<unsigned char>(contraction[c])] = ranges[c].first;
      }
      while (live) {
        double prod = 1.0;
        for (const Term& term : terms) {
          prod *= term.data[term_index(term)];
        }
        sum += prod;
        size_t c = contraction.size();
        while (c > 0) {
          --c;
          const unsigned char label = static_cast<unsigned char>(contraction[c]);
          if (++label_value[label] < ranges[c].second) {
            break;
          }
          label_value[label] = ranges[c].first;
          if (c == 0) {
            live = false;
          }
        }
      }
    }
    (*out)[k++] = sum;
  });
}

void EvalEinsumPartials(const Operator& op, const std::vector<const HostTensor*>& operands,
                        int64_t contraction_lo, int64_t contraction_hi, const Box& box,
                        std::vector<double>* out) {
  ALPA_CHECK(op.type == OpType::kEinsum);
  if (TryEinsumGemm(op, operands, contraction_lo, contraction_hi, box, out)) {
    return;
  }
  EvalEinsumPartialsReference(op, operands, contraction_lo, contraction_hi, box, out);
}

void EvalEinsumRegion(const Operator& op, const std::vector<const HostTensor*>& operands,
                      int64_t contraction_lo, int64_t contraction_hi, TileData* out) {
  // Per-thread partials, consumed before this call returns, so every call
  // after the first on a thread reuses the buffer.
  thread_local std::vector<double> sums;
  EvalEinsumPartials(op, operands, contraction_lo, contraction_hi, out->box, &sums);
  out->data.resize(sums.size());
  for (size_t i = 0; i < sums.size(); ++i) {
    out->data[i] = static_cast<float>(sums[i]);
  }
}

void EvalOpRegion(const Operator& op, const std::vector<const HostTensor*>& operands,
                  TileData* out) {
  ALPA_CHECK(out->full_shape == op.shape);
  // Einsums size the tile and write every cell themselves; the other
  // kernels fill a zeroed tile.
  if (op.type != OpType::kEinsum) {
    out->data.assign(static_cast<size_t>(std::max<int64_t>(1, BoxElements(out->box))), 0.0f);
  }
  switch (op.type) {
    case OpType::kEinsum: {
      const std::string contraction = op.einsum.ContractionLabels();
      const int64_t hi = contraction.empty() ? 1 : op.einsum.Extent(contraction[0]);
      EvalEinsumRegion(op, operands, 0, hi, out);
      break;
    }
    case OpType::kElementwise:
      EvalElementwise(op, operands, out);
      break;
    case OpType::kReduce:
      ALPA_CHECK_EQ(operands.size(), 1u);
      EvalReduce(op, *operands[0], out);
      break;
    case OpType::kSoftmax:
    case OpType::kLayerNorm:
      ALPA_CHECK_EQ(operands.size(), 1u);
      EvalRowNormalize(op, *operands[0], out);
      break;
    case OpType::kEmbedding:
      ALPA_CHECK_EQ(operands.size(), 2u);
      EvalEmbedding(op, *operands[0], *operands[1], out);
      break;
    case OpType::kEmbeddingGrad:
      ALPA_CHECK_EQ(operands.size(), 2u);
      EvalEmbeddingGrad(op, *operands[0], *operands[1], out);
      break;
    case OpType::kMoeDispatch:
      ALPA_CHECK_EQ(operands.size(), 1u);
      EvalMoeDispatch(op, *operands[0], out);
      break;
    case OpType::kMoeCombine:
      ALPA_CHECK_EQ(operands.size(), 1u);
      EvalMoeCombine(op, *operands[0], out);
      break;
    case OpType::kLoss:
      ALPA_CHECK_GE(operands.size(), 1u);
      EvalLoss(*operands[0], out);
      break;
    case OpType::kUpdate:
      ALPA_CHECK_EQ(operands.size(), 2u);
      EvalUpdate(op, *operands[0], *operands[1], out);
      break;
    case OpType::kInput:
    case OpType::kParameter:
      ALPA_LOG(FATAL) << "Leaf op " << op.name << " has no kernel; generate it instead";
      break;
  }
}

}  // namespace exec
}  // namespace alpa
