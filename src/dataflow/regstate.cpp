#include "dataflow/regstate.hpp"

namespace s4e::dataflow {

namespace {

using isa::Instr;
using isa::Op;

// Unsigned bounds of a sign-pure value (raw u32 reading); nullopt when the
// set mixes values above and below 2^31.
struct UBounds {
  u64 lo, hi;
};
std::optional<UBounds> unsigned_bounds(const AbsValue& v) {
  if (!v.has_bounds()) return std::nullopt;
  if (v.lo() >= 0) {
    return UBounds{static_cast<u64>(v.lo()), static_cast<u64>(v.hi())};
  }
  if (v.hi() < 0) {
    const u64 wrap = u64{1} << 32;
    return UBounds{static_cast<u64>(v.lo()) + wrap,
                   static_cast<u64>(v.hi()) + wrap};
  }
  return std::nullopt;
}

// Tri-state comparisons. Stack values compare against each other by offset
// (same unknown base, assumed not to wrap); stack vs plain is undecidable.
bool comparable(const AbsValue& a, const AbsValue& b) {
  if (a.is_stack() || b.is_stack()) return a.is_stack() && b.is_stack();
  return a.has_bounds() && b.has_bounds();
}

std::optional<bool> def_eq(const AbsValue& a, const AbsValue& b) {
  if (!comparable(a, b)) return std::nullopt;
  if (a.hi() < b.lo() || b.hi() < a.lo()) return false;
  // Both collapse to one value (consts singleton or one stack offset).
  if (a.lo() == a.hi() && b.lo() == b.hi() && a.lo() == b.lo()) return true;
  return std::nullopt;
}

std::optional<bool> def_lt_signed(const AbsValue& a, const AbsValue& b) {
  if (!comparable(a, b)) return std::nullopt;
  if (a.hi() < b.lo()) return true;
  if (a.lo() >= b.hi()) return false;  // min(a) >= max(b): a < b never holds
  return std::nullopt;
}

std::optional<bool> def_lt_unsigned(const AbsValue& a, const AbsValue& b) {
  if (a.is_stack() && b.is_stack()) return def_lt_signed(a, b);  // offsets
  const auto ua = unsigned_bounds(a);
  const auto ub = unsigned_bounds(b);
  if (!ua || !ub || a.is_stack() || b.is_stack()) return std::nullopt;
  if (ua->hi < ub->lo) return true;
  if (ua->lo >= ub->hi) return false;
  return std::nullopt;
}

std::optional<bool> negate(std::optional<bool> v) {
  if (!v) return std::nullopt;
  return !*v;
}

}  // namespace

RegState RegDomain::boundary(const cfg::Function& fn,
                             const cfg::BasicBlock& block) const {
  (void)fn;
  (void)block;
  RegState state;
  state.reached = true;
  for (auto& reg : state.regs) reg = AbsValue::top();
  state.regs[0] = AbsValue::constant(0);
  state.regs[2] = AbsValue::stack(0, 0, 1);  // incoming sp is the frame ref
  if (options_.is_entry_function) {
    // Reset state: the loader initializes sp; x0 is hardwired; gp/tp and
    // the argument registers are treated as environment-provided. ra and
    // the temporaries/saved registers hold garbage until written.
    state.maybe_uninit = kCallerSavedMask & ~(0xffu << 10);  // ra, t0-t6
    state.maybe_uninit |= reg_bit(8) | reg_bit(9) | (0x3ffu << 18);  // s0-s11
  }
  return state;
}

RegState RegDomain::transfer(const cfg::Function& fn,
                             const cfg::BasicBlock& block, State state) const {
  (void)fn;
  if (!state.reached) return state;
  u32 pc = block.start;
  for (const Instr& instr : block.insns) {
    apply(instr, pc, options_.mem, state);
    pc += instr.length;
  }
  finish_block(block, state, call_effect(block));
  return state;
}

const CallEffect* RegDomain::call_effect(const cfg::BasicBlock& block) const {
  if (options_.call_effects == nullptr) return nullptr;
  auto it = options_.call_effects->find(block.id);
  return it == options_.call_effects->end() ? nullptr : &it->second;
}

bool RegDomain::join(State& into, const State& from, bool widen) const {
  if (!from.reached) return false;
  if (!into.reached) {
    into = from;
    return true;
  }
  bool changed = false;
  for (unsigned r = 0; r < isa::kGprCount; ++r) {
    if (into.regs[r] == from.regs[r]) continue;  // the join is `into` itself
    AbsValue joined = AbsValue::join(into.regs[r], from.regs[r]);
    if (joined != into.regs[r]) {
      if (widen) joined.widen();
      if (joined != into.regs[r]) {
        into.regs[r] = joined;
        changed = true;
      }
    }
  }
  const u32 uninit = into.maybe_uninit | from.maybe_uninit;
  if (uninit != into.maybe_uninit) {
    into.maybe_uninit = uninit;
    changed = true;
  }
  return changed;
}

bool RegDomain::edge_feasible(const cfg::Function& fn,
                              const cfg::BasicBlock& block, const State& out,
                              const cfg::Edge& edge) const {
  (void)fn;
  if (block.terminator != cfg::Terminator::kBranch) return true;
  const auto taken = eval_branch(block.insns.back(), out);
  if (!taken) return true;
  return *taken == (edge.kind == cfg::EdgeKind::kTaken);
}

AbsValue RegDomain::result(const Instr& instr, u32 pc, const MemModel* mem,
                           const State& state) {
  const AbsValue& a = state.regs[instr.rs1];
  const AbsValue& b = state.regs[instr.rs2];
  const auto imm = [&] {
    return AbsValue::constant(static_cast<u32>(instr.imm));
  };
  const auto shamt = [&] {  // kIShift encoding
    return AbsValue::constant(instr.rs2);
  };

  switch (instr.op) {
    case Op::kLui:
      return imm();  // imm is pre-shifted by the decoder
    case Op::kAuipc:
      return AbsValue::constant(pc + static_cast<u32>(instr.imm));
    case Op::kJal:
    case Op::kJalr:
      return AbsValue::constant(pc + instr.length);
    case Op::kAddi:
      return av_add(a, imm());
    case Op::kSlti:
      return av_slt(a, imm(), false);
    case Op::kSltiu:
      return av_slt(a, imm(), true);
    case Op::kXori:
      return av_xor(a, imm());
    case Op::kOri:
      return av_or(a, imm());
    case Op::kAndi:
      return av_and(a, imm());
    case Op::kSlli:
      return av_sll(a, shamt());
    case Op::kSrli:
      return av_srl(a, shamt());
    case Op::kSrai:
      return av_sra(a, shamt());
    case Op::kAdd:
      return av_add(a, b);
    case Op::kSub:
      return av_sub(a, b);
    case Op::kSll:
      return av_sll(a, b);
    case Op::kSlt:
      return av_slt(a, b, false);
    case Op::kSltu:
      return av_slt(a, b, true);
    case Op::kXor:
      return av_xor(a, b);
    case Op::kSrl:
      return av_srl(a, b);
    case Op::kSra:
      return av_sra(a, b);
    case Op::kOr:
      return av_or(a, b);
    case Op::kAnd:
      return av_and(a, b);
    case Op::kMul:
      return av_mul(a, b);
    case Op::kMulh:
    case Op::kMulhsu:
    case Op::kMulhu:
    case Op::kDiv:
    case Op::kDivu:
    case Op::kRem:
    case Op::kRemu:
      return av_muldiv(instr.op, a, b);
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu: {
      if (mem == nullptr) return AbsValue::top();
      const bool sext = instr.op == Op::kLb || instr.op == Op::kLh;
      return mem->load(effective_address(instr, state), access_size(instr.op),
                       sext);
    }
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
    // Atomics: rd receives the loaded value (or the SC success flag) —
    // unknown to the static domain, and the memory effect is modelled as
    // a clobber by the surrounding MemModel invalidation.
    case Op::kLrW:
    case Op::kScW:
    case Op::kAmoswapW:
    case Op::kAmoaddW:
    case Op::kAmoxorW:
    case Op::kAmoorW:
    case Op::kAmoandW:
    case Op::kAmominW:
    case Op::kAmomaxW:
    case Op::kAmominuW:
    case Op::kAmomaxuW:
      return AbsValue::top();
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kFence:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kMret:
    case Op::kWfi:
    case Op::kCount:
      break;  // no GPR effect
  }
  return AbsValue::bottom();
}

void RegDomain::apply(const Instr& instr, u32 pc, const MemModel* mem,
                      State& state) {
  if (!instr.info().writes_rd || instr.rd == 0) return;
  state.regs[instr.rd] = result(instr, pc, mem, state);
  state.maybe_uninit &= ~reg_bit(instr.rd);
}

void RegDomain::finish_block(const cfg::BasicBlock& block, State& state,
                             const CallEffect* effect) {
  if (block.terminator != cfg::Terminator::kCall || !state.reached) return;
  if (effect == nullptr) {
    // Conservative call-return clobber: the callee may write every
    // caller-saved register (so they are initialized but unknown at the
    // continuation); sp and the callee-saved registers are preserved per
    // the calling convention.
    for (unsigned r = 1; r < isa::kGprCount; ++r) {
      if (kCallerSavedMask & reg_bit(r)) {
        state.regs[r] = AbsValue::top();
        state.maybe_uninit &= ~reg_bit(r);
      }
    }
    return;
  }
  // Summary-driven effect. Preserved registers (not in `clobbered`) keep the
  // caller's abstract value and uninit bit; clobbered registers become the
  // callee's return value (a0/a1) or top; only must-written registers are
  // definitely initialized afterwards.
  for (unsigned r = 1; r < isa::kGprCount; ++r) {
    if ((effect->clobbered & reg_bit(r)) == 0) continue;
    if (r == 10) {
      state.regs[r] = effect->ret0;
    } else if (r == 11) {
      state.regs[r] = effect->ret1;
    } else {
      state.regs[r] = AbsValue::top();
    }
    if (effect->must_write & reg_bit(r)) state.maybe_uninit &= ~reg_bit(r);
  }
  if (!effect->sp_balanced) state.regs[2] = AbsValue::top();
}

std::optional<bool> RegDomain::eval_branch(const Instr& branch,
                                           const State& state) {
  const AbsValue& a = state.regs[branch.rs1];
  const AbsValue& b = state.regs[branch.rs2];
  // Exact element-wise evaluation first (covers stride gaps etc.).
  const u64 ca = a.count();
  const u64 cb = b.count();
  if (ca != 0 && cb != 0 && ca * cb <= 256) {
    bool any_true = false;
    bool any_false = false;
    for (u64 i = 0; i < ca; ++i) {
      const u32 x = a.nth(i);
      for (u64 j = 0; j < cb; ++j) {
        const u32 y = b.nth(j);
        bool t = false;
        switch (branch.op) {
          case Op::kBeq: t = x == y; break;
          case Op::kBne: t = x != y; break;
          case Op::kBlt: t = static_cast<i32>(x) < static_cast<i32>(y); break;
          case Op::kBge: t = static_cast<i32>(x) >= static_cast<i32>(y); break;
          case Op::kBltu: t = x < y; break;
          case Op::kBgeu: t = x >= y; break;
          default: return std::nullopt;
        }
        (t ? any_true : any_false) = true;
        if (any_true && any_false) return std::nullopt;
      }
    }
    return any_true;
  }
  switch (branch.op) {
    case Op::kBeq: return def_eq(a, b);
    case Op::kBne: return negate(def_eq(a, b));
    case Op::kBlt: return def_lt_signed(a, b);
    case Op::kBge: return negate(def_lt_signed(a, b));
    case Op::kBltu: return def_lt_unsigned(a, b);
    case Op::kBgeu: return negate(def_lt_unsigned(a, b));
    default: return std::nullopt;
  }
}

AbsValue effective_address(const Instr& instr, const RegState& state) {
  return av_add(state.regs[instr.rs1],
                AbsValue::constant(static_cast<u32>(instr.imm)));
}

u32 access_size(Op op) {
  switch (op) {
    case Op::kLb:
    case Op::kLbu:
    case Op::kSb:
      return 1;
    case Op::kLh:
    case Op::kLhu:
    case Op::kSh:
      return 2;
    default:
      return 4;
  }
}

}  // namespace s4e::dataflow
