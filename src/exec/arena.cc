#include "src/exec/arena.h"

#include <algorithm>

#include "src/support/logging.h"

namespace alpa {
namespace exec {

namespace {

int64_t AlignUp(int64_t x, int64_t alignment) {
  return (x + alignment - 1) / alignment * alignment;
}

bool TimeOverlap(const ArenaAssignment& a, const ArenaAssignment& b) {
  return a.def <= b.last_use && b.def <= a.last_use;
}

}  // namespace

ArenaPlan PlanArena(const std::vector<LiveInterval>& intervals, int64_t alignment) {
  ALPA_CHECK_GT(alignment, 0);
  ArenaPlan plan;
  plan.peak_live_bytes = PeakLiveBytes(intervals);

  // Placement order: interval start, then size descending — big long-lived
  // buffers anchor low offsets, small short-lived ones fill the gaps.
  std::vector<LiveInterval> order = intervals;
  std::sort(order.begin(), order.end(), [](const LiveInterval& a, const LiveInterval& b) {
    if (a.def != b.def) {
      return a.def < b.def;
    }
    if (a.bytes != b.bytes) {
      return a.bytes > b.bytes;
    }
    return a.ref < b.ref;
  });

  for (const LiveInterval& interval : order) {
    ArenaAssignment assignment;
    assignment.ref = interval.ref;
    assignment.bytes = interval.bytes;
    assignment.def = interval.def;
    assignment.last_use = interval.last_use;
    if (interval.bytes <= 0) {
      plan.assignments.push_back(assignment);
      continue;
    }
    // Address ranges already occupied during this interval's lifetime.
    std::vector<std::pair<int64_t, int64_t>> busy;
    for (const ArenaAssignment& placed : plan.assignments) {
      if (placed.bytes > 0 && TimeOverlap(placed, assignment)) {
        busy.push_back({placed.offset, placed.offset + placed.bytes});
      }
    }
    std::sort(busy.begin(), busy.end());
    // Best fit: the smallest gap between busy ranges that holds the buffer;
    // ties go to the lower offset. Falls back to the end of the last range.
    int64_t best_offset = -1;
    int64_t best_waste = -1;
    int64_t cursor = 0;
    for (const auto& [lo, hi] : busy) {
      if (lo > cursor) {
        const int64_t gap = lo - cursor;
        if (gap >= interval.bytes) {
          const int64_t waste = gap - interval.bytes;
          if (best_waste < 0 || waste < best_waste) {
            best_waste = waste;
            best_offset = cursor;
          }
        }
      }
      cursor = std::max(cursor, AlignUp(hi, alignment));
    }
    assignment.offset = best_offset >= 0 ? best_offset : cursor;
    plan.arena_bytes = std::max(plan.arena_bytes, assignment.offset + assignment.bytes);
    plan.assignments.push_back(assignment);
  }
  return plan;
}

bool PlanIsValid(const ArenaPlan& plan) {
  for (size_t i = 0; i < plan.assignments.size(); ++i) {
    const ArenaAssignment& a = plan.assignments[i];
    for (size_t j = i + 1; j < plan.assignments.size(); ++j) {
      const ArenaAssignment& b = plan.assignments[j];
      if (a.bytes <= 0 || b.bytes <= 0 || !TimeOverlap(a, b)) {
        continue;
      }
      const bool disjoint = a.offset + a.bytes <= b.offset || b.offset + b.bytes <= a.offset;
      if (!disjoint) {
        return false;
      }
    }
  }
  return true;
}

void* Arena::AllocBytes(int64_t bytes) {
  const int64_t aligned = AlignUp(bytes, 64);
  const int64_t capacity = capacity_bytes();
  if (used_ + aligned > capacity) {
    high_water_ = std::max(high_water_, used_ + aligned);
    if (used_ == 0) {
      // Nothing handed out yet: grow the slab in place.
      slab_.ResizeUninitialized(static_cast<size_t>(AlignUp(aligned * 2, 64) / 4));
    } else {
      // Mid-iteration overflow: dedicated block now, bigger slab at Reset.
      overflow_.emplace_back(static_cast<size_t>(aligned / 4));
      return overflow_.back().data();
    }
  }
  char* p = reinterpret_cast<char*>(slab_.data()) + used_;
  used_ += aligned;
  high_water_ = std::max(high_water_, used_);
  return p;
}

void Arena::Reset() {
  used_ = 0;
  overflow_.clear();
  if (high_water_ > capacity_bytes()) {
    slab_.ResizeUninitialized(static_cast<size_t>(AlignUp(high_water_, 64) / 4));
  }
}

float* Arena::AllocFloats(int64_t n) {
  return static_cast<float*>(AllocBytes(n * static_cast<int64_t>(sizeof(float))));
}

double* Arena::AllocDoubles(int64_t n) {
  return static_cast<double*>(AllocBytes(n * static_cast<int64_t>(sizeof(double))));
}

}  // namespace exec
}  // namespace alpa
