#include "dataflow/absvalue.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/strings.hpp"

namespace s4e::dataflow {

namespace {

constexpr i64 kI32Min = -(i64{1} << 31);
constexpr i64 kI32Max = (i64{1} << 31) - 1;

bool fits_i32(i64 v) { return v >= kI32Min && v <= kI32Max; }

i64 canon(u32 raw) { return static_cast<i64>(static_cast<i32>(raw)); }

// Common stride of a sorted value set: gcd of consecutive differences
// (0 for a singleton).
template <typename T>
i64 stride_of(std::span<const T> values) {
  i64 g = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    g = std::gcd(g, i64{values[i]} - i64{values[i - 1]});
  }
  return g;
}

// Element-wise evaluation when the operand sets are small enough that the
// exact image can be computed. Returns nullopt when either side is not
// enumerable or the pair count exceeds the budget.
template <typename F>
std::optional<AbsValue> elementwise(const AbsValue& a, const AbsValue& b,
                                    F&& f) {
  const u64 ca = a.count();
  const u64 cb = b.count();
  if (ca == 0 || cb == 0 || ca * cb > AbsValue::kMaxEnum) return std::nullopt;
  std::array<i64, AbsValue::kMaxEnum> out;
  std::size_t n = 0;
  for (u64 i = 0; i < ca; ++i) {
    const u32 x = a.nth(i);
    for (u64 j = 0; j < cb; ++j) out[n++] = canon(f(x, b.nth(j)));
  }
  return AbsValue::from_values(std::span<i64>(out.data(), n));
}

// Interval hull of two bounded values with a sound common stride.
AbsValue hull(const AbsValue& a, const AbsValue& b) {
  const i64 lo = std::min(a.lo(), b.lo());
  const i64 hi = std::max(a.hi(), b.hi());
  i64 g = std::gcd(a.stride(), b.stride());
  g = std::gcd(g, b.lo() - a.lo());
  return AbsValue::range(lo, hi, g);
}

// Smallest power-of-two bound: values of a, b in [0, 2^k) stay in [0, 2^k)
// under or/xor/and.
i64 pow2_bound(i64 max_hi) {
  i64 bound = 1;
  while (bound <= max_hi) bound <<= 1;
  return bound - 1;
}

}  // namespace

AbsValue AbsValue::top() {
  AbsValue v;
  v.kind_ = Kind::kTop;
  return v;
}

AbsValue AbsValue::constant(u32 raw) {
  AbsValue v;
  v.kind_ = Kind::kConsts;
  v.count_ = 1;
  v.values_[0] = static_cast<i32>(raw);
  return v;
}

AbsValue AbsValue::from_values(std::span<i64> values) {
  if (values.empty()) return bottom();
  std::sort(values.begin(), values.end());
  const auto end = std::unique(values.begin(), values.end());
  const std::span<const i64> set(values.begin(), end);
  if (!fits_i32(set.front()) || !fits_i32(set.back())) return top();
  if (set.size() > kMaxConsts) {
    return range(set.front(), set.back(), stride_of(set));
  }
  AbsValue v;
  v.kind_ = Kind::kConsts;
  v.count_ = static_cast<u8>(set.size());
  std::copy(set.begin(), set.end(), v.values_.begin());
  return v;
}

AbsValue AbsValue::range(i64 lo, i64 hi, i64 stride) {
  if (lo > hi) return bottom();
  if (!fits_i32(lo) || !fits_i32(hi)) return top();
  if (lo == hi) return constant(static_cast<u32>(lo));
  if (stride < 1) stride = 1;
  // The stride must tile the interval; widening it to a divisor of the
  // span only adds values (sound).
  stride = std::gcd(stride, hi - lo);
  AbsValue v;
  v.kind_ = Kind::kRange;
  v.bounds_ = {static_cast<i32>(lo), static_cast<i32>(hi),
               static_cast<u32>(stride)};
  return v;
}

AbsValue AbsValue::stack(i64 lo, i64 hi, i64 stride) {
  if (lo > hi || !fits_i32(lo) || !fits_i32(hi)) return top();
  AbsValue v;
  v.kind_ = Kind::kStack;
  v.bounds_ = {static_cast<i32>(lo), static_cast<i32>(hi),
               static_cast<u32>(lo == hi ? 1
                                         : std::gcd(stride < 1 ? 1 : stride,
                                                    hi - lo))};
  return v;
}

i64 AbsValue::lo() const noexcept {
  return kind_ == Kind::kConsts ? values_[0] : bounds_.lo;
}

i64 AbsValue::hi() const noexcept {
  return kind_ == Kind::kConsts ? values_[count_ - 1] : bounds_.hi;
}

i64 AbsValue::stride() const noexcept {
  if (kind_ == Kind::kConsts) {
    const i64 g = stride_of(values());
    return g == 0 ? 1 : g;
  }
  return bounds_.stride;
}

u64 AbsValue::count() const noexcept {
  switch (kind_) {
    case Kind::kConsts:
      return count_;
    case Kind::kRange:
      return static_cast<u64>((i64{bounds_.hi} - bounds_.lo) /
                              bounds_.stride) +
             1;
    default:
      return 0;
  }
}

u32 AbsValue::nth(u64 i) const noexcept {
  if (kind_ == Kind::kConsts) return static_cast<u32>(values_[i]);
  return static_cast<u32>(bounds_.lo) + static_cast<u32>(i * bounds_.stride);
}

std::vector<u32> AbsValue::enumerate(u64 limit) const {
  const u64 n = count();
  if (n == 0 || n > limit) return {};
  std::vector<u32> out(n);
  for (u64 i = 0; i < n; ++i) out[i] = nth(i);
  return out;
}

bool AbsValue::operator==(const AbsValue& other) const noexcept {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kConsts:
      return count_ == other.count_ &&
             std::equal(values_.begin(), values_.begin() + count_,
                        other.values_.begin());
    case Kind::kRange:
    case Kind::kStack:
      return bounds_.lo == other.bounds_.lo && bounds_.hi == other.bounds_.hi &&
             bounds_.stride == other.bounds_.stride;
    default:
      return true;
  }
}

AbsValue AbsValue::join(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom()) return b;
  if (b.is_bottom()) return a;
  if (a.is_top() || b.is_top()) return top();
  if (a == b) return a;
  if (a.is_stack() || b.is_stack()) {
    if (a.is_stack() && b.is_stack()) {
      const i64 g = std::gcd(std::gcd(a.stride(), b.stride()), b.lo() - a.lo());
      return stack(std::min(a.lo(), b.lo()), std::max(a.hi(), b.hi()), g);
    }
    return top();  // stack pointer joined with a plain value
  }
  if (a.is_consts() && b.is_consts()) {
    std::array<i64, 2 * kMaxConsts> merged;
    const auto end = std::merge(a.values().begin(), a.values().end(),
                                b.values().begin(), b.values().end(),
                                merged.begin());
    return from_values(std::span<i64>(merged.begin(), end));
  }
  return hull(a, b);
}

std::string AbsValue::describe() const {
  switch (kind_) {
    case Kind::kBottom:
      return "unreached";
    case Kind::kTop:
      return "unknown";
    case Kind::kStack:
      if (bounds_.lo == bounds_.hi) {
        return format("sp%+lld", static_cast<long long>(bounds_.lo));
      }
      return format("sp+[%lld..%lld]", static_cast<long long>(bounds_.lo),
                    static_cast<long long>(bounds_.hi));
    case Kind::kRange:
      return format("[0x%08x..0x%08x step %lld]",
                    static_cast<u32>(bounds_.lo), static_cast<u32>(bounds_.hi),
                    static_cast<long long>(bounds_.stride));
    case Kind::kConsts: {
      std::string out = "{";
      for (std::size_t i = 0; i < count_; ++i) {
        if (i != 0) out += ",";
        out += format("0x%x", static_cast<u32>(values_[i]));
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

AbsValue av_add(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (a.is_stack() || b.is_stack()) {
    const AbsValue& sp = a.is_stack() ? a : b;
    const AbsValue& off = a.is_stack() ? b : a;
    if (!off.has_bounds()) return AbsValue::top();  // incl. stack + stack
    return AbsValue::stack(sp.lo() + off.lo(), sp.hi() + off.hi(),
                           std::gcd(sp.stride(), off.stride()));
  }
  if (auto exact = elementwise(a, b, [](u32 x, u32 y) { return x + y; })) {
    return *exact;
  }
  if (a.has_bounds() && b.has_bounds()) {
    return AbsValue::range(a.lo() + b.lo(), a.hi() + b.hi(),
                           std::gcd(a.stride(), b.stride()));
  }
  return AbsValue::top();
}

AbsValue av_sub(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (a.is_stack() && b.is_stack()) {
    // (sp + x) - (sp + y) = x - y: a plain bounded value again.
    return AbsValue::range(a.lo() - b.hi(), a.hi() - b.lo(),
                           std::gcd(a.stride(), b.stride()));
  }
  if (a.is_stack() && b.has_bounds()) {
    return AbsValue::stack(a.lo() - b.hi(), a.hi() - b.lo(),
                           std::gcd(a.stride(), b.stride()));
  }
  if (a.is_stack() || b.is_stack()) return AbsValue::top();
  if (auto exact = elementwise(a, b, [](u32 x, u32 y) { return x - y; })) {
    return *exact;
  }
  if (a.has_bounds() && b.has_bounds()) {
    return AbsValue::range(a.lo() - b.hi(), a.hi() - b.lo(),
                           std::gcd(a.stride(), b.stride()));
  }
  return AbsValue::top();
}

AbsValue av_and(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (auto exact = elementwise(a, b, [](u32 x, u32 y) { return x & y; })) {
    return *exact;
  }
  // AND with a non-negative constant mask bounds the result to [0, mask]
  // whatever the other side is (even top) — the clamp that makes jump-table
  // selectors like `andi t, t, 3` finite.
  for (const AbsValue* side : {&a, &b}) {
    if (side->is_const() && side->const_value() >= 0) {
      return AbsValue::range(0, side->const_value(), 1);
    }
  }
  if (a.has_bounds() && b.has_bounds() && a.lo() >= 0 && b.lo() >= 0) {
    return AbsValue::range(0, std::min(a.hi(), b.hi()), 1);
  }
  return AbsValue::top();
}

AbsValue av_or(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (auto exact = elementwise(a, b, [](u32 x, u32 y) { return x | y; })) {
    return *exact;
  }
  if (a.has_bounds() && b.has_bounds() && a.lo() >= 0 && b.lo() >= 0) {
    return AbsValue::range(0, pow2_bound(std::max(a.hi(), b.hi())), 1);
  }
  return AbsValue::top();
}

AbsValue av_xor(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (auto exact = elementwise(a, b, [](u32 x, u32 y) { return x ^ y; })) {
    return *exact;
  }
  if (a.has_bounds() && b.has_bounds() && a.lo() >= 0 && b.lo() >= 0) {
    return AbsValue::range(0, pow2_bound(std::max(a.hi(), b.hi())), 1);
  }
  return AbsValue::top();
}

AbsValue av_sll(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (auto exact =
          elementwise(a, b, [](u32 x, u32 y) { return x << (y & 31); })) {
    return *exact;
  }
  if (b.is_const() && a.has_bounds()) {
    const i64 sh = b.const_value() & 31;
    const i64 lo = a.lo() << sh;
    const i64 hi = a.hi() << sh;
    return AbsValue::range(lo, hi, a.stride() << sh);  // top if out of i32
  }
  return AbsValue::top();
}

AbsValue av_srl(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (auto exact =
          elementwise(a, b, [](u32 x, u32 y) { return x >> (y & 31); })) {
    return *exact;
  }
  if (b.is_const() && a.has_bounds() && a.lo() >= 0) {
    const i64 sh = b.const_value() & 31;
    return AbsValue::range(a.lo() >> sh, a.hi() >> sh, 1);
  }
  return AbsValue::top();
}

AbsValue av_sra(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (auto exact = elementwise(a, b, [](u32 x, u32 y) {
        return static_cast<u32>(static_cast<i32>(x) >> (y & 31));
      })) {
    return *exact;
  }
  if (b.is_const() && a.has_bounds()) {
    const i64 sh = b.const_value() & 31;
    return AbsValue::range(a.lo() >> sh, a.hi() >> sh, 1);
  }
  return AbsValue::top();
}

AbsValue av_mul(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (auto exact = elementwise(a, b, [](u32 x, u32 y) { return x * y; })) {
    return *exact;
  }
  const AbsValue* cv = a.is_const() ? &a : b.is_const() ? &b : nullptr;
  const AbsValue* rv = a.is_const() ? &b : &a;
  if (cv != nullptr && rv->has_bounds()) {
    const i64 c = cv->const_value();
    if (c == 0) return AbsValue::constant(0);
    const i64 x = rv->lo() * c;
    const i64 y = rv->hi() * c;
    return AbsValue::range(std::min(x, y), std::max(x, y),
                           rv->stride() * (c < 0 ? -c : c));
  }
  return AbsValue::top();
}

AbsValue av_slt(const AbsValue& a, const AbsValue& b, bool is_unsigned) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (auto exact = elementwise(a, b, [&](u32 x, u32 y) -> u32 {
        return is_unsigned ? (x < y)
                           : (static_cast<i32>(x) < static_cast<i32>(y));
      })) {
    return *exact;
  }
  if (!is_unsigned && a.has_bounds() && b.has_bounds()) {
    if (a.hi() < b.lo()) return AbsValue::constant(1);
    if (a.lo() >= b.hi()) return AbsValue::constant(0);
  }
  return AbsValue::range(0, 1, 1);
}

AbsValue av_muldiv(isa::Op op, const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  auto f = [op](u32 x, u32 y) -> u32 {
    const i64 sx = static_cast<i32>(x);
    const i64 sy = static_cast<i32>(y);
    switch (op) {
      case isa::Op::kMulh:
        return static_cast<u32>((sx * sy) >> 32);
      case isa::Op::kMulhsu:
        return static_cast<u32>((sx * static_cast<i64>(y)) >> 32);
      case isa::Op::kMulhu:
        return static_cast<u32>(
            (static_cast<u64>(x) * static_cast<u64>(y)) >> 32);
      case isa::Op::kDiv:
        if (y == 0) return ~u32{0};
        if (sx == kI32Min && sy == -1) return x;
        return static_cast<u32>(sx / sy);
      case isa::Op::kDivu:
        return y == 0 ? ~u32{0} : x / y;
      case isa::Op::kRem:
        if (y == 0) return x;
        if (sx == kI32Min && sy == -1) return 0;
        return static_cast<u32>(sx % sy);
      case isa::Op::kRemu:
        return y == 0 ? x : x % y;
      default:
        return 0;
    }
  };
  if (auto exact = elementwise(a, b, f)) return *exact;
  // remu/divu with a positive constant divisor bound the result.
  if (b.is_const() && b.const_value() > 0) {
    const i64 d = b.const_value();
    if (op == isa::Op::kRemu) return AbsValue::range(0, d - 1, 1);
    if (op == isa::Op::kRem) return AbsValue::range(-(d - 1), d - 1, 1);
  }
  return AbsValue::top();
}

}  // namespace s4e::dataflow
