#include "src/exec/gemm.h"

#include <algorithm>

#include "src/exec/arena.h"
#include "src/support/logging.h"

namespace alpa {
namespace exec {

namespace {

// The tile fits the vector register file of the ISA this file is compiled
// for: MR x NR accumulators plus the NR-wide B row of the current k step.
//  - AVX-512, 32 zmm: 8 x 16 = 16 accumulators + 2 B vectors.
//  - AVX2, 16 ymm:     6 x 8 = 12 accumulators + 2 B vectors + 1 broadcast.
//  - SSE2, 16 xmm:     4 x 4 =  8 accumulators + 2 B vectors + 1 broadcast.
// The width is not a tuning knob: GCC lowers a vector wider than the
// registers through memory (a 64-byte type built for AVX2 or SSE2 runs at
// about 1 GFLOP/s).
#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 16;
#elif defined(__AVX2__)
constexpr int kVecBytes = 32;
constexpr int64_t kMR = 6;
constexpr int64_t kNR = 8;
#else
constexpr int kVecBytes = 16;
constexpr int64_t kMR = 4;
constexpr int64_t kNR = 4;
#endif
constexpr int64_t kLanes = kVecBytes / static_cast<int64_t>(sizeof(double));
constexpr int64_t kNV = kNR / kLanes;  // Vectors per tile row.
// Depth of one k block: a kc x NR B micro-panel (32 KiB at NR = 16) stays
// in L1 while every A micro-panel of the row block streams past it.
constexpr int64_t kKC = 256;
// Rows per packed A block: MC x KC doubles (256 KiB at MR = 8) stay in L2.
constexpr int64_t kMC = 16 * kMR;

// Loads and stores go straight through these vector types; __may_alias__
// makes reading and writing the double arrays they overlay well defined.
typedef double Vec __attribute__((vector_size(kVecBytes), __may_alias__));
// C rows sit at arbitrary offsets, so C is read and written through a view
// that assumes only double alignment.
typedef double UnalignedVec __attribute__((vector_size(kVecBytes), aligned(8), __may_alias__));

int64_t RoundUp(int64_t x, int64_t step) { return (x + step - 1) / step * step; }

// B rows [l0, l0 + kc) as ceil(n / NR) micro-panels of kc x NR, zero-padded
// past column n: the panel of columns [j, j + NR) starts at dst + j * kc and
// holds row l at + l * NR.
void PackB(const GemmOperand& b, int64_t l0, int64_t kc, int64_t n, double* dst) {
  const int64_t full = n / kNR * kNR;
  for (int64_t l = 0; l < kc; ++l) {
    const float* src = b.data + b.row[l0 + l];
    double* out = dst + l * kNR;
    int64_t j = 0;
    for (; j < full; j += kNR, out += kc * kNR) {
      for (int64_t jj = 0; jj < kNR; ++jj) {
        out[jj] = src[b.col[j + jj]];
      }
    }
    if (j < n) {
      for (int64_t jj = 0; jj < kNR; ++jj) {
        out[jj] = j + jj < n ? static_cast<double>(src[b.col[j + jj]]) : 0.0;
      }
    }
  }
}

// A rows [i0, i0 + mc), columns [l0, l0 + kc) as ceil(mc / MR) micro-panels
// of kc x MR, zero-padded past row mc: the panel of rows [i0 + i, +MR)
// starts at dst + i * kc and holds column l at + l * MR.
void PackA(const GemmOperand& a, int64_t i0, int64_t mc, int64_t l0, int64_t kc, double* dst) {
  const int64_t* col = a.col + l0;
  for (int64_t i = 0; i < mc; i += kMR) {
    double* panel = dst + i * kc;
    for (int64_t r = 0; r < kMR; ++r) {
      if (i + r < mc) {
        const float* src = a.data + a.row[i0 + i + r];
        for (int64_t l = 0; l < kc; ++l) {
          panel[l * kMR + r] = src[col[l]];
        }
      } else {
        for (int64_t l = 0; l < kc; ++l) {
          panel[l * kMR + r] = 0.0;
        }
      }
    }
  }
}

// One MR x NR tile over a kc-deep block. Its accumulators start at +0.0 in
// the first block and at the running sums C holds otherwise, take the
// block's products in ascending k, and go back to C.
inline __attribute__((always_inline)) void Tile(int64_t kc, const double* ap, const double* bp,
                                                bool first, double* c, int64_t ldc) {
  Vec acc[kMR][kNV];
#pragma GCC unroll 16
  for (int64_t i = 0; i < kMR; ++i) {
#pragma GCC unroll 4
    for (int64_t v = 0; v < kNV; ++v) {
      if (first) {
        acc[i][v] = Vec{};
      } else {
        acc[i][v] = *reinterpret_cast<const UnalignedVec*>(c + i * ldc + v * kLanes);
      }
    }
  }
  for (int64_t l = 0; l < kc; ++l, ap += kMR, bp += kNR) {
    Vec bv[kNV];
#pragma GCC unroll 4
    for (int64_t v = 0; v < kNV; ++v) {
      bv[v] = *reinterpret_cast<const Vec*>(bp + v * kLanes);
    }
#pragma GCC unroll 16
    for (int64_t i = 0; i < kMR; ++i) {
      const double av = ap[i];
#pragma GCC unroll 4
      for (int64_t v = 0; v < kNV; ++v) {
        acc[i][v] += av * bv[v];
      }
    }
  }
#pragma GCC unroll 16
  for (int64_t i = 0; i < kMR; ++i) {
#pragma GCC unroll 4
    for (int64_t v = 0; v < kNV; ++v) {
      *reinterpret_cast<UnalignedVec*>(c + i * ldc + v * kLanes) = acc[i][v];
    }
  }
}

// A tile cut by the edge of C: computed in full on a local tile, of which
// only the mb x nb corner is read from and written back to C.
void EdgeTile(int64_t kc, const double* ap, const double* bp, bool first, double* c,
              int64_t ldc, int64_t mb, int64_t nb) {
  alignas(64) double tile[kMR * kNR] = {};
  if (!first) {
    for (int64_t i = 0; i < mb; ++i) {
      std::copy(c + i * ldc, c + i * ldc + nb, tile + i * kNR);
    }
  }
  Tile(kc, ap, bp, first, tile, kNR);
  for (int64_t i = 0; i < mb; ++i) {
    std::copy(tile + i * kNR, tile + i * kNR + nb, c + i * ldc);
  }
}

}  // namespace

void GemmF64Acc(int64_t m, int64_t n, int64_t k, const GemmOperand& a, const GemmOperand& b,
                double* c) {
  ALPA_CHECK_GE(m, 0);
  ALPA_CHECK_GE(n, 0);
  ALPA_CHECK_GE(k, 0);
  if (m == 0 || n == 0) {
    return;
  }
  if (k == 0) {
    std::fill(c, c + m * n, 0.0);
    return;
  }
  // Both packed blocks share one 64-byte-aligned allocation from a
  // per-thread slab, so steady-state calls never touch the allocator.
  const int64_t kc_max = std::min(k, kKC);
  const int64_t b_doubles = kc_max * RoundUp(n, kNR);
  thread_local Arena arena;
  arena.Reset();
  double* const b_pack =
      arena.AllocDoubles(b_doubles + kc_max * RoundUp(std::min(m, kMC), kMR));
  double* const a_pack = b_pack + b_doubles;
  for (int64_t l0 = 0; l0 < k; l0 += kKC) {
    const int64_t kc = std::min(kKC, k - l0);
    const bool first = l0 == 0;
    PackB(b, l0, kc, n, b_pack);
    for (int64_t i0 = 0; i0 < m; i0 += kMC) {
      const int64_t mc = std::min(kMC, m - i0);
      PackA(a, i0, mc, l0, kc, a_pack);
      for (int64_t j = 0; j < n; j += kNR) {
        const int64_t nb = std::min(kNR, n - j);
        for (int64_t i = 0; i < mc; i += kMR) {
          const int64_t mb = std::min(kMR, mc - i);
          double* tile = c + (i0 + i) * n + j;
          if (mb == kMR && nb == kNR) {
            Tile(kc, a_pack + i * kc, b_pack + j * kc, first, tile, n);
          } else {
            EdgeTile(kc, a_pack + i * kc, b_pack + j * kc, first, tile, n, mb, nb);
          }
        }
      }
    }
  }
}

}  // namespace exec
}  // namespace alpa
