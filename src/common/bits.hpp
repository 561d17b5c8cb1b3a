// Bit-field helpers shared by the decoder, encoder, assembler and fault
// injector. All operate on uint32_t words (RV32, XLEN = 32).
#pragma once

#include <cstdint>

#include "common/status.hpp"

namespace s4e {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

// Extract bits [lo, lo+width) of `value`, right-aligned.
constexpr u32 extract_bits(u32 value, unsigned lo, unsigned width) {
  return (width >= 32) ? (value >> lo)
                       : ((value >> lo) & ((u32{1} << width) - 1));
}

// Insert the low `width` bits of `field` at position `lo` of `value`.
constexpr u32 insert_bits(u32 value, unsigned lo, unsigned width, u32 field) {
  const u32 mask = (width >= 32) ? ~u32{0} : (((u32{1} << width) - 1) << lo);
  return (value & ~mask) | ((field << lo) & mask);
}

// Sign-extend the low `width` bits of `value` to 32 bits.
constexpr i32 sign_extend(u32 value, unsigned width) {
  const unsigned shift = 32 - width;
  return static_cast<i32>(value << shift) >> shift;
}

// True if `value` fits in a signed `width`-bit immediate.
constexpr bool fits_signed(i64 value, unsigned width) {
  const i64 lo = -(i64{1} << (width - 1));
  const i64 hi = (i64{1} << (width - 1)) - 1;
  return value >= lo && value <= hi;
}

// Count of set bits.
constexpr unsigned popcount32(u32 value) {
  unsigned count = 0;
  while (value != 0) {
    value &= value - 1;
    ++count;
  }
  return count;
}

// Saturating u64 arithmetic for instruction budgets: campaign hang budgets
// and run limits are products/sums of values callers control (golden
// instruction counts, user-supplied factors), and a silent wraparound turns
// "practically unbounded" into "stop immediately".
constexpr u64 saturating_add(u64 a, u64 b) {
  return a > ~u64{0} - b ? ~u64{0} : a + b;
}

constexpr u64 saturating_mul(u64 a, u64 b) {
  if (a == 0 || b == 0) return 0;
  return a > ~u64{0} / b ? ~u64{0} : a * b;
}

// Flip bit `bit` (0-based) of `value`.
constexpr u32 flip_bit(u32 value, unsigned bit) { return value ^ (u32{1} << bit); }

// Test bit `bit` of `value`.
constexpr bool test_bit(u32 value, unsigned bit) {
  return ((value >> bit) & 1u) != 0;
}

}  // namespace s4e
