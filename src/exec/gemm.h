// Register-blocked GEMM for the execution engine: f32 operands, f64
// accumulation, bit-identical to the naive triple loop.
//
// Each output cell is one f64 chain `0.0 + p0 + p1 + ...` in ascending k,
// exactly the reference interpreter's `sum = 0.0; sum += prod`. The product
// of two f32 values is exact in f64 (24+24 mantissa bits fit in 53), so FMA
// contraction cannot change a rounding, and the chain is never reassociated:
// only independent output cells share a vector. Einsum contractions lower
// onto this kernel without changing a single output bit, which is what lets
// the executor and the numeric oracle ride on it.
//
// Blocking (gemm.cc): the k loop runs in KC-deep blocks. Per block, the
// operands are converted to f64 once, into zero-padded micro-panels read
// straight through the callers' offset tables, and an MR x NR tile of
// accumulators stays in vector registers across the block. The first block
// starts every accumulator at +0.0; later blocks reload the running sum the
// previous block stored in C, so the per-cell chain is unbroken. The tile
// and vector width follow the ISA the translation unit is compiled for.
#ifndef SRC_EXEC_GEMM_H_
#define SRC_EXEC_GEMM_H_

#include <cstdint>

namespace alpa {
namespace exec {

// A float matrix addressed through offset tables: element (r, c) is
// data[row[r] + col[c]]. Row-major, transposed and einsum-flattened layouts
// are all just different tables.
struct GemmOperand {
  const float* data;
  const int64_t* row;
  const int64_t* col;
};

// C (f64, m x n, row-major, contiguous) = A (m x k) * B (k x n). C's prior
// contents are ignored: the result is bit-identical to
//   for (i) for (j) {
//     double sum = 0.0;
//     for (l) sum += (double)A(i, l) * (double)B(l, j);
//     C(i, j) = sum;
//   }
void GemmF64Acc(int64_t m, int64_t n, int64_t k, const GemmOperand& a, const GemmOperand& b,
                double* c);

}  // namespace exec
}  // namespace alpa

#endif  // SRC_EXEC_GEMM_H_
