#include "src/exec/gemm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/host_tensor.h"
#include "src/exec/kernels.h"
#include "src/graph/operator.h"
#include "src/graph/tensor.h"

namespace alpa {
namespace exec {
namespace {

// The contract GemmF64Acc promises bit-identity with: one fresh f64
// accumulator per output cell, ascending k, stored over whatever C held.
void NaiveGemmF64Acc(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
                     double* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t l = 0; l < k; ++l) {
        acc += static_cast<double>(a[i * k + l]) * static_cast<double>(b[l * n + j]);
      }
      c[i * n + j] = acc;
    }
  }
}

std::vector<float> RandomFloats(const std::string& tag, int64_t count) {
  std::vector<float> data(static_cast<size_t>(count));
  const uint64_t key = HashName(tag);
  for (int64_t i = 0; i < count; ++i) {
    data[static_cast<size_t>(i)] = GenValue(key, i);
  }
  return data;
}

std::vector<int64_t> Strided(int64_t count, int64_t stride) {
  std::vector<int64_t> offsets(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    offsets[static_cast<size_t>(i)] = i * stride;
  }
  return offsets;
}

// C = A * B for row-major A (m x k) and B (k x n).
void RowMajorGemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b, double* c) {
  const std::vector<int64_t> a_row = Strided(m, k), a_col = Strided(k, 1);
  const std::vector<int64_t> b_row = Strided(k, n), b_col = Strided(n, 1);
  GemmF64Acc(m, n, k, {a, a_row.data(), a_col.data()}, {b, b_row.data(), b_col.data()}, c);
}

// Every blocking boundary of every ISA's kernel. The tiles are 8 x 16
// (AVX-512), 6 x 8 (AVX2) and 4 x 4 (SSE2), so m and n take each MR and NR
// and one either side. k takes KC = 256 and one either side, plus 2 * KC + 1:
// three blocks, the last one product deep.
const int64_t kRowsCols[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 15, 16, 17, 31, 64, 65};
const int64_t kDepths[] = {1, 2, 3, 5, 7, 13, 31, 64, 65, 255, 256, 257, 513};

TEST(GemmF64Acc, BitIdenticalToNaiveTripleLoop) {
  int checked = 0;
  for (int64_t m : kRowsCols) {
    for (int64_t n : kRowsCols) {
      for (int64_t k : kDepths) {
        // Keep the sweep fast: every tile-sized m and n still meets every k.
        if (m * n * k > 150000) {
          continue;
        }
        const std::vector<float> a = RandomFloats("a", m * k);
        const std::vector<float> b = RandomFloats("b", k * n);
        std::vector<double> c(static_cast<size_t>(m * n));
        std::vector<double> want(static_cast<size_t>(m * n));
        // Non-zero starting C: the kernel overwrites it, never adds to it.
        for (size_t i = 0; i < c.size(); ++i) {
          c[i] = want[i] = 0.125 * static_cast<double>(i % 17) - 1.0;
        }
        RowMajorGemm(m, n, k, a.data(), b.data(), c.data());
        NaiveGemmF64Acc(m, n, k, a.data(), b.data(), want.data());
        ASSERT_EQ(c, want) << "m=" << m << " n=" << n << " k=" << k;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 2000);
}

TEST(GemmF64Acc, LargeSquareStillExact) {
  const int64_t m = 97, n = 89, k = 101;
  const std::vector<float> a = RandomFloats("la", m * k);
  const std::vector<float> b = RandomFloats("lb", k * n);
  std::vector<double> c(static_cast<size_t>(m * n), 0.0);
  std::vector<double> want = c;
  RowMajorGemm(m, n, k, a.data(), b.data(), c.data());
  NaiveGemmF64Acc(m, n, k, a.data(), b.data(), want.data());
  EXPECT_EQ(c, want);
}

// --- Einsum GEMM lowering vs the odometer reference ----------------------

Operator MakeEinsum(const std::string& output, const std::vector<std::string>& operand_specs,
                    const std::map<char, int64_t>& extents) {
  Operator op;
  op.id = 100;
  op.type = OpType::kEinsum;
  op.name = "einsum";
  op.einsum.output = output;
  op.einsum.operands = operand_specs;
  op.einsum.extents = extents;
  std::vector<int64_t> dims;
  for (char label : output) {
    dims.push_back(extents.at(label));
  }
  op.shape = TensorShape(dims);
  for (size_t i = 0; i < operand_specs.size(); ++i) {
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

struct EinsumCase {
  std::string output;
  std::vector<std::string> operand_specs;
  std::map<char, int64_t> extents;
  // A further contraction range to check, when non-empty.
  std::pair<int64_t, int64_t> range = {0, 0};
};

// The sweep covers GEMM-lowerable shapes (plain, batched, transposed
// layouts, merged row/col labels, multi-label contractions) and shapes that
// must take the odometer fallback (duplicate labels, single operand): both
// paths must agree bit for bit either way.
std::vector<EinsumCase> EinsumCases() {
  return {
      {"mn", {"mk", "kn"}, {{'m', 5}, {'n', 3}, {'k', 7}}},
      {"mn", {"mk", "kn"}, {{'m', 1}, {'n', 1}, {'k', 1}}},
      {"mn", {"mk", "kn"}, {{'m', 64}, {'n', 65}, {'k', 31}}},
      {"bmn", {"bmk", "bkn"}, {{'b', 3}, {'m', 4}, {'n', 2}, {'k', 5}}},
      {"mn", {"km", "kn"}, {{'m', 6}, {'n', 4}, {'k', 9}}},   // A transposed layout.
      {"mn", {"mk", "nk"}, {{'m', 6}, {'n', 4}, {'k', 9}}},   // B transposed layout.
      {"mn", {"km", "nk"}, {{'m', 6}, {'n', 4}, {'k', 9}}},   // Both transposed.
      {"abc", {"abk", "kc"}, {{'a', 3}, {'b', 4}, {'c', 5}, {'k', 6}}},  // Merged rows.
      {"mn", {"mab", "abn"}, {{'m', 4}, {'n', 3}, {'a', 2}, {'b', 5}}},  // 2-label contraction.
      {"bsh", {"bsk", "kh"}, {{'b', 2}, {'s', 8}, {'h', 16}, {'k', 16}}},  // GPT projection.
      // Attention scores with k past the kernel's 256-deep blocks; the
      // extra range [200, 520) straddles block boundaries both in absolute
      // k and relative to its own start.
      {"nst", {"nsk", "ntk"}, {{'n', 2}, {'s', 9}, {'t', 17}, {'k', 600}}, {200, 520}},
      {"ab", {"aa", "ab"}, {{'a', 4}, {'b', 3}}},  // Duplicate label: fallback.
      {"m", {"mk"}, {{'m', 5}, {'k', 7}}},         // Single operand: fallback.
  };
}

TEST(EinsumGemm, LoweringBitIdenticalToReference) {
  for (const EinsumCase& c : EinsumCases()) {
    const Operator op = MakeEinsum(c.output, c.operand_specs, c.extents);
    std::vector<HostTensor> storage;
    storage.reserve(c.operand_specs.size());
    std::vector<const HostTensor*> operands;
    for (size_t i = 0; i < c.operand_specs.size(); ++i) {
      storage.push_back(
          MakeOperand(c.operand_specs[i], c.extents, c.output + ":" + std::to_string(i)));
    }
    for (const HostTensor& t : storage) {
      operands.push_back(&t);
    }
    const std::string contraction = op.einsum.ContractionLabels();
    const int64_t extent = contraction.empty() ? 1 : op.einsum.Extent(contraction[0]);
    const Box full = FullBox(op.shape);

    std::vector<double> fast;
    std::vector<double> ref;
    EvalEinsumPartials(op, operands, 0, extent, full, &fast);
    EvalEinsumPartialsReference(op, operands, 0, extent, full, &ref);
    ASSERT_EQ(fast, ref) << c.output << " full range";

    // Split contraction ranges (the ring all-reduce partials).
    if (extent >= 2) {
      const int64_t mid = extent / 2;
      for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{{0, mid}, {mid, extent}}) {
        EvalEinsumPartials(op, operands, lo, hi, full, &fast);
        EvalEinsumPartialsReference(op, operands, lo, hi, full, &ref);
        ASSERT_EQ(fast, ref) << c.output << " range [" << lo << "," << hi << ")";
      }
    }
    if (c.range.second > c.range.first) {
      EvalEinsumPartials(op, operands, c.range.first, c.range.second, full, &fast);
      EvalEinsumPartialsReference(op, operands, c.range.first, c.range.second, full, &ref);
      ASSERT_EQ(fast, ref) << c.output << " range [" << c.range.first << "," << c.range.second
                           << ")";
    }

    // Interior sub-box (a device tile).
    Box box = full;
    bool shrunk = false;
    for (auto& [lo, hi] : box) {
      if (hi - lo >= 2) {
        const int64_t span = hi - lo;
        lo = span / 4;
        hi = lo + (span + 1) / 2;
        shrunk = true;
      }
    }
    if (shrunk) {
      EvalEinsumPartials(op, operands, 0, extent, box, &fast);
      EvalEinsumPartialsReference(op, operands, 0, extent, box, &ref);
      ASSERT_EQ(fast, ref) << c.output << " sub-box";
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace alpa
