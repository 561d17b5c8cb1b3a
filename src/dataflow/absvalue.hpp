// Abstract value lattice for the register data-flow analysis.
//
// One AbsValue approximates the set of 32-bit patterns a GPR may hold at a
// program point. Values are canonicalized as the sign-extended i32 reading
// (widened to i64 by the accessors and the arithmetic), which makes signed
// branch folding a plain integer comparison; raw u32 patterns are recovered
// by truncation.
//
//   kBottom  — no value (unreached)
//   kConsts  — explicit set of at most kMaxConsts values (sorted, unique)
//   kRange   — {lo, lo+stride, ..., hi} superset approximation
//   kStack   — sp0 + [lo..hi] (offset from the function's incoming sp);
//              distinguishes stack addresses from the program image
//   kTop     — any value
//
// Joins stay exact (set union) up to kMaxConsts values, then decay to a
// stride-aware interval hull. All operations are *sound* over-approximations:
// the concrete result set is always contained in the abstract result.
//
// The value is heap-free and trivially copyable: the const set is stored
// inline as i32 (every canonical value fits by construction, and range() /
// stack() send out-of-i32 bounds to top) in a union with the range/stack
// bounds, so copying a whole RegState is one memcpy.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "isa/opcode.hpp"

namespace s4e::dataflow {

class AbsValue {
 public:
  enum class Kind : u8 { kBottom, kConsts, kRange, kStack, kTop };

  static constexpr std::size_t kMaxConsts = 16;
  static constexpr u64 kMaxEnum = 64;  // enumeration budget (e.g. load fan-in)

  AbsValue() = default;  // bottom

  static AbsValue bottom() { return AbsValue(); }
  static AbsValue top();
  static AbsValue constant(u32 raw);
  // Canonical (sign-extended) values in any order; sorted and deduplicated
  // in place. More than kMaxConsts values decay to their interval hull.
  static AbsValue from_values(std::span<i64> values);
  // Interval [lo, hi] with stride; normalized (singleton -> kConsts, bounds
  // outside i32 -> kTop, stride adjusted to divide hi - lo).
  static AbsValue range(i64 lo, i64 hi, i64 stride);
  // Stack slot / pointer: sp0 + [lo, hi].
  static AbsValue stack(i64 lo, i64 hi, i64 stride);

  Kind kind() const noexcept { return kind_; }
  bool is_bottom() const noexcept { return kind_ == Kind::kBottom; }
  bool is_top() const noexcept { return kind_ == Kind::kTop; }
  bool is_consts() const noexcept { return kind_ == Kind::kConsts; }
  bool is_range() const noexcept { return kind_ == Kind::kRange; }
  bool is_stack() const noexcept { return kind_ == Kind::kStack; }

  bool is_const() const noexcept {
    return kind_ == Kind::kConsts && count_ == 1;
  }
  u32 const_raw() const noexcept { return static_cast<u32>(values_[0]); }
  i64 const_value() const noexcept { return values_[0]; }

  // kConsts only: the canonical values, ascending.
  std::span<const i32> values() const noexcept {
    return {values_.data(), count_};
  }

  // Bounds. Valid for kConsts / kRange (canonical values) and kStack
  // (offsets from the incoming sp).
  i64 lo() const noexcept;
  i64 hi() const noexcept;
  i64 stride() const noexcept;

  // True when the value set has lo/hi bounds (kConsts or kRange).
  bool has_bounds() const noexcept { return is_consts() || is_range(); }

  // Cardinality when enumerable (kConsts / kRange); 0 otherwise.
  u64 count() const noexcept;

  // The raw u32 pattern of the i-th value in ascending canonical order.
  // Precondition: i < count().
  u32 nth(u64 i) const noexcept;

  // All raw u32 patterns, if enumerable within `limit`; else empty.
  std::vector<u32> enumerate(u64 limit = kMaxEnum) const;

  static AbsValue join(const AbsValue& a, const AbsValue& b);

  // Widening: anything not already bottom/top goes to top. Applied by the
  // solver to values that keep changing past the visit threshold so chains
  // like a decremented counter terminate.
  void widen() {
    if (kind_ != Kind::kBottom) *this = top();
  }

  // Compares the kind and its live payload only: the const slots past
  // count_ and the bounds of a const set are not part of the value.
  bool operator==(const AbsValue& other) const noexcept;

  std::string describe() const;

 private:
  struct Bounds {
    i32 lo;
    i32 hi;
    u32 stride;  // divides hi - lo, which can reach 2^32 - 1
  };

  Kind kind_ = Kind::kBottom;
  u8 count_ = 0;  // kConsts: live entries of values_
  union {
    std::array<i32, kMaxConsts> values_{};  // kConsts, ascending
    Bounds bounds_;                         // kRange / kStack
  };
};

// Abstract transfer of the ALU. All are sound; `top` in means `top` out
// except where the operation itself bounds the result (e.g. AND with a
// non-negative mask). Shift amounts follow RV32 semantics (low 5 bits).
AbsValue av_add(const AbsValue& a, const AbsValue& b);
AbsValue av_sub(const AbsValue& a, const AbsValue& b);
AbsValue av_and(const AbsValue& a, const AbsValue& b);
AbsValue av_or(const AbsValue& a, const AbsValue& b);
AbsValue av_xor(const AbsValue& a, const AbsValue& b);
AbsValue av_sll(const AbsValue& a, const AbsValue& b);
AbsValue av_srl(const AbsValue& a, const AbsValue& b);
AbsValue av_sra(const AbsValue& a, const AbsValue& b);
AbsValue av_mul(const AbsValue& a, const AbsValue& b);
// slt/sltu (always within [0, 1], constant when decidable).
AbsValue av_slt(const AbsValue& a, const AbsValue& b, bool is_unsigned);
// div/divu/rem/remu/mulh/mulhsu/mulhu: precise only element-wise.
AbsValue av_muldiv(isa::Op op, const AbsValue& a, const AbsValue& b);

}  // namespace s4e::dataflow
