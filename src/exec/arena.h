// Arena memory planning: best-fit offset assignment over live intervals.
//
// Given the liveness intervals of one device's buffers, PlanArena assigns
// each buffer a byte offset in a single slab such that buffers whose
// intervals overlap in time never overlap in address space. The slab's
// high-water mark is the device's *planned* peak memory — the number
// ExecResult reports next to the runtime-measured peak and the analytical
// model's estimate. The Arena class is the matching runtime slab: one
// 64-byte-aligned allocation serving kernel scratch (GEMM packing panels,
// f64 partial buffers) through a bump pointer, so the hot loop never hits
// the system allocator.
#ifndef SRC_EXEC_ARENA_H_
#define SRC_EXEC_ARENA_H_

#include <cstdint>
#include <vector>

#include "src/exec/host_tensor.h"
#include "src/exec/liveness.h"

namespace alpa {
namespace exec {

struct ArenaAssignment {
  TensorRef ref;
  int64_t offset = 0;
  int64_t bytes = 0;
  int def = 0;
  int last_use = 0;
};

struct ArenaPlan {
  std::vector<ArenaAssignment> assignments;
  // Slab size: max over assignments of offset + bytes.
  int64_t arena_bytes = 0;
  // Sum-of-live lower bound (PeakLiveBytes of the input intervals).
  int64_t peak_live_bytes = 0;
};

// Best-fit placement: intervals are processed in (def, size-descending)
// order; each is placed in the smallest address gap — among the already
// placed, time-overlapping assignments — that fits, or at the current high
// water mark. Offsets are aligned to `alignment` bytes. Zero-byte intervals
// get offset 0.
ArenaPlan PlanArena(const std::vector<LiveInterval>& intervals, int64_t alignment = 64);

// True when no two time-overlapping assignments overlap in [offset,
// offset + bytes). The invariant PlanArena guarantees; exposed for tests.
bool PlanIsValid(const ArenaPlan& plan);

// Runtime scratch slab: bump allocation out of one aligned buffer, with
// geometric growth between (never during) iterations. AllocFloats /
// AllocDoubles return 64-byte-aligned views valid until the next Reset.
class Arena {
 public:
  float* AllocFloats(int64_t n);
  double* AllocDoubles(int64_t n);
  // Rewinds the bump pointer, drops the overflow blocks, and regrows the
  // slab to the high-water mark when that outgrew it.
  void Reset();
  int64_t capacity_bytes() const { return static_cast<int64_t>(slab_.size()) * 4; }
  int64_t high_water_bytes() const { return high_water_; }

 private:
  void* AllocBytes(int64_t bytes);

  AlignedFloatBuffer slab_;
  int64_t used_ = 0;        // Bytes handed out since the last Reset.
  int64_t high_water_ = 0;  // Max used_ ever observed.
  // Overflow blocks for requests that outgrow the slab mid-iteration; the
  // slab catches up (and these drop) on the next Reset.
  std::vector<AlignedFloatBuffer> overflow_;
};

}  // namespace exec
}  // namespace alpa

#endif  // SRC_EXEC_ARENA_H_
