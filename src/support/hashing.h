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
// solver's core memo): each 64-bit word takes one SplitMix64 mix where
// Fnv1a64 takes eight byte steps. Every step is a bijection of the running
// hash, so changing any one word always changes the result, and the mix is
// non-linear, so several bit flips cannot cancel the way they do in a
// word-wise xor-multiply. Values are not stable across versions: anything
// persisted or compared across processes hashes with Fnv1a64.
class WordHash64 {
 public:
  WordHash64& U64(uint64_t value) {
    hash_ = SplitMix64(hash_ ^ value);
    return *this;
  }
  WordHash64& I64(int64_t value) { return U64(static_cast<uint64_t>(value)); }
  WordHash64& Double(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return U64(bits);
  }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0;
};

}  // namespace alpa

#endif  // SRC_SUPPORT_HASHING_H_
