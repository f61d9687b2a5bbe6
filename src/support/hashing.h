// Incremental 64-bit hashing: FNV-1a, and a word-at-a-time hasher for
// large in-process keys (WordHash64, below).
//
// FNV-1a is used for the structural layer signatures of the stage profiler
// and the keys of the process-wide ILP memo cache: a 64-bit hash replaces
// the large heap-allocated signature strings the profiler originally
// compared, and doubles as a dictionary key that survives across profiler
// instances. Collisions are vanishingly unlikely at our scale (hundreds of
// layers); debug builds additionally verify hash-equal layers are
// string-equal.
#ifndef SRC_SUPPORT_HASHING_H_
#define SRC_SUPPORT_HASHING_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "src/support/rng.h"

namespace alpa {

class Fnv1a64 {
 public:
  Fnv1a64& Bytes(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= kPrime;
    }
    return *this;
  }

  Fnv1a64& U64(uint64_t value) { return Bytes(&value, sizeof(value)); }
  Fnv1a64& I64(int64_t value) { return Bytes(&value, sizeof(value)); }
  Fnv1a64& I32(int32_t value) { return Bytes(&value, sizeof(value)); }
  Fnv1a64& Double(double value) {
    // Bit pattern, not value: -0.0 vs 0.0 never occurs in our keys, and the
    // bit pattern is what determinism of the memoized results depends on.
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return U64(bits);
  }
  Fnv1a64& Bool(bool value) { return I32(value ? 1 : 0); }
  Fnv1a64& Str(std::string_view s) {
    Bytes(s.data(), s.size());
    // Length-delimit so "ab"+"c" and "a"+"bc" hash differently.
    return U64(s.size());
  }

  uint64_t hash() const { return hash_; }

 private:
  static constexpr uint64_t kOffset = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t hash_ = kOffset;
};

// Word-at-a-time hashing for large keys that never leave the process (the
// solver's core memo). U64 takes one SplitMix64 mix of the running hash
// where Fnv1a64 takes eight byte steps. Doubles hashes a contiguous span
// on four independent SplitMix64 chains, word k of the span on chain
// k mod 4, so four mixes are in flight where U64 has one; the chains start
// from four distinct constants, and a non-symmetric fold (each chain
// rotated by its own amount) makes the span one word for a U64 step.
// Every step is a bijection of its running state, so changing any one word
// always changes the result; the mix is non-linear, so several bit flips
// cannot cancel the way they do in a word-wise xor-multiply; and the
// distinct seeds and rotations keep two words swapped between chains from
// cancelling. Values are not stable across versions: anything persisted or
// compared across processes hashes with Fnv1a64.
class WordHash64 {
 public:
  WordHash64& U64(uint64_t value) {
    hash_ = SplitMix64(hash_ ^ value);
    return *this;
  }
  WordHash64& I64(int64_t value) { return U64(static_cast<uint64_t>(value)); }
  // `n` doubles by bit pattern, as one span.
  WordHash64& Doubles(const double* values, size_t n) {
    uint64_t c0 = 0x243f6a8885a308d3ull;
    uint64_t c1 = 0x13198a2e03707344ull;
    uint64_t c2 = 0xa4093822299f31d0ull;
    uint64_t c3 = 0x082efa98ec4e6c89ull;
    size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      c0 = SplitMix64(c0 ^ Bits(values[k]));
      c1 = SplitMix64(c1 ^ Bits(values[k + 1]));
      c2 = SplitMix64(c2 ^ Bits(values[k + 2]));
      c3 = SplitMix64(c3 ^ Bits(values[k + 3]));
    }
    if (k < n) c0 = SplitMix64(c0 ^ Bits(values[k++]));
    if (k < n) c1 = SplitMix64(c1 ^ Bits(values[k++]));
    if (k < n) c2 = SplitMix64(c2 ^ Bits(values[k++]));
    return U64(c0 ^ std::rotl(c1, 16) ^ std::rotl(c2, 32) ^ std::rotl(c3, 48));
  }

  uint64_t hash() const { return hash_; }

 private:
  static uint64_t Bits(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
  }

  uint64_t hash_ = 0;
};

}  // namespace alpa

#endif  // SRC_SUPPORT_HASHING_H_
