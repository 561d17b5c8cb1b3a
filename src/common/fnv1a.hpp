// FNV-1a (64-bit), the one byte hash behind trace checksums and program
// fingerprints, golden data-memory hashes and fleet campaign fingerprints.
// Hashes that are written to disk or compared across runs depend on it
// staying bit-exact.
#pragma once

#include <cstddef>

#include "common/bits.hpp"

namespace s4e {

inline constexpr u64 kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr u64 kFnv1aPrime = 0x100000001b3ull;

// Mix one byte into `hash`: the step fnv1a() applies to every byte, for
// code that hashes bytes as it produces or consumes them.
inline u64 fnv1a_byte(u64 hash, u8 byte) noexcept {
  return (hash ^ byte) * kFnv1aPrime;
}

// Hash `size` bytes at `data`; pass a previous result as `seed` to continue
// one hash over several buffers.
inline u64 fnv1a(const u8* data, std::size_t size,
                 u64 seed = kFnv1aOffsetBasis) noexcept {
  u64 hash = seed;
  for (std::size_t i = 0; i < size; ++i) hash = fnv1a_byte(hash, data[i]);
  return hash;
}

}  // namespace s4e
