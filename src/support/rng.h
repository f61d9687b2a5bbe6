// Deterministic pseudo-random number generator (SplitMix64) so that tests
// and benchmarks are reproducible across platforms and standard libraries.
#ifndef SRC_SUPPORT_RNG_H_
#define SRC_SUPPORT_RNG_H_

#include <cstdint>

namespace alpa {

// The SplitMix64 output function of `x` (the generator below returns it for
// successive states): a bijection on 64-bit words with full avalanche, i.e.
// flipping any input bit flips each output bit with probability ~1/2.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t NextUint64() {
    const uint64_t z = SplitMix64(state_);
    state_ += 0x9e3779b97f4a7c15ULL;
    return z;
  }

  // Uniform integer in [0, bound).
  uint64_t NextBounded(uint64_t bound) { return bound == 0 ? 0 : NextUint64() % bound; }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

 private:
  uint64_t state_;
};

}  // namespace alpa

#endif  // SRC_SUPPORT_RNG_H_
