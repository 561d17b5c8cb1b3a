#include "dataflow/memmodel.hpp"

#include <array>
#include <optional>

namespace s4e::dataflow {

namespace {

i64 canon(u32 raw) { return static_cast<i64>(static_cast<i32>(raw)); }

// Byte read across all loadable sections; nullopt when unmapped.
std::optional<u8> read_byte(const assembler::Program& program, u32 address) {
  for (const auto& section : program.sections) {
    if (address >= section.base &&
        address - section.base < section.bytes.size()) {
      return section.bytes[address - section.base];
    }
  }
  return std::nullopt;
}

}  // namespace

void MemModel::record_store(const AbsValue& addr, u32 size) {
  switch (addr.kind()) {
    case AbsValue::Kind::kBottom:
      return;  // unreachable store
    case AbsValue::Kind::kStack:
      return;  // stack is disjoint from the loaded image (see header)
    case AbsValue::Kind::kConsts:
    case AbsValue::Kind::kRange:
      dirty_.emplace_back(addr.lo(), addr.hi() + size - 1);
      return;
    case AbsValue::Kind::kTop:
      all_dirty_ = true;
      return;
  }
}

bool MemModel::range_clean(i64 lo, i64 hi) const {
  if (all_dirty_) return false;
  for (const auto& [dlo, dhi] : dirty_) {
    if (lo <= dhi && dlo <= hi) return false;
  }
  return true;
}

AbsValue MemModel::load(const AbsValue& addr, u32 size,
                        bool sign_extend) const {
  if (addr.is_bottom()) return AbsValue::bottom();
  if (!loads_enabled_ || program_ == nullptr) return AbsValue::top();
  const u64 targets = addr.count();
  if (targets == 0 || targets > AbsValue::kMaxEnum) {
    return AbsValue::top();  // stack, top, or too many
  }
  std::array<i64, AbsValue::kMaxEnum> loaded;
  for (u64 t = 0; t < targets; ++t) {
    const u32 a = addr.nth(t);
    if (!range_clean(canon(a), canon(a) + size - 1)) return AbsValue::top();
    u32 raw = 0;
    for (u32 i = 0; i < size; ++i) {
      const auto byte = read_byte(*program_, a + i);
      if (!byte) return AbsValue::top();
      raw |= u32{*byte} << (8 * i);
    }
    loaded[t] = sign_extend && size < 4
                    ? static_cast<i64>(s4e::sign_extend(raw, 8 * size))
                    : canon(raw);
  }
  return AbsValue::from_values(std::span<i64>(loaded.data(), targets));
}

}  // namespace s4e::dataflow
