// Forward abstract-interpretation domain over the 32 GPRs.
//
// Each state tracks, per register, an AbsValue plus a may-be-uninitialized
// bit. The entry state is ABI-aware: at the program entry point x0 and sp
// (set by the loader) and the argument/global registers are initialized,
// while ra and the temporaries/saved registers hold reset garbage; at a
// callee entry everything is initialized (the caller's frame is live) and
// sp is the fresh frame reference. Call-return edges clobber the
// caller-saved registers and preserve sp and the callee-saved registers —
// the standard RV32 calling-convention assumption, which hand-written
// assembly in workloads/ must honour for the results to be sound.
#pragma once

#include <array>
#include <map>
#include <optional>

#include "cfg/cfg.hpp"
#include "dataflow/absvalue.hpp"
#include "dataflow/memmodel.hpp"
#include "isa/defuse.hpp"
#include "isa/registers.hpp"

namespace s4e::dataflow {

constexpr u32 reg_bit(unsigned reg) { return u32{1} << reg; }

// ra, t0-t2, a0-a7, t3-t6: clobbered across calls.
inline constexpr u32 kCallerSavedMask =
    reg_bit(1) | reg_bit(5) | reg_bit(6) | reg_bit(7) |
    (0xffu << 10) |                    // a0-a7
    (0xfu << 28);                      // t3-t6

// The effect of one call site on the caller's state, distilled from the
// callee's bottom-up FunctionSummary (summaries.hpp). The defaults are the
// conservative RV32 ABI assumptions and reproduce the pre-summary behavior
// exactly, so a null/absent effect is always sound.
struct CallEffect {
  // May-write: registers whose incoming value might not survive the call.
  // The complement (minus sp, handled via sp_balanced) is preserved: the
  // caller's abstract value and uninit bit flow across the call unchanged.
  u32 clobbered = kCallerSavedMask;
  // Must-write: registers the callee writes on every returning path. Only
  // these lose their maybe-uninit bit (forward) or their liveness (backward
  // kill) — a may-written register could still hold the caller's value.
  u32 must_write = 0;
  // Registers whose incoming value the callee (transitively) may read.
  u32 may_read = kCallReadMaskDefault;
  // Abstract a0/a1 at the callee's returns; meaningful when clobbered.
  AbsValue ret0 = AbsValue::top();
  AbsValue ret1 = AbsValue::top();
  // False when the callee provably unbalances sp: the caller's sp becomes
  // top at the continuation instead of being assumed preserved.
  bool sp_balanced = true;
  // True when this effect came from a computed (non-conservative) summary.
  // Precision-only consumers (e.g. lint's uninitialized-argument check)
  // restrict themselves to refined effects to avoid ABI-default noise.
  bool refined = false;

  // a0-a7, sp, gp, tp — mirrors liveness.hpp's kCallReadMask, restated here
  // to keep the header dependency one-directional (liveness includes us).
  static constexpr u32 kCallReadMaskDefault =
      (0xffu << 10) | reg_bit(2) | reg_bit(3) | reg_bit(4);
};

struct RegState {
  bool reached = false;
  std::array<AbsValue, isa::kGprCount> regs;  // default: all bottom
  u32 maybe_uninit = 0;
};

class RegDomain {
 public:
  static constexpr bool kForward = true;
  using State = RegState;

  struct Options {
    bool is_entry_function = false;
    const MemModel* mem = nullptr;
    // Per-call-block effects from interprocedural summaries (keyed by the
    // kCall block's id). Null or missing entries fall back to the
    // conservative ABI clobber.
    const std::map<cfg::BlockId, CallEffect>* call_effects = nullptr;
  };

  explicit RegDomain(const Options& options) : options_(options) {}

  State boundary(const cfg::Function& fn, const cfg::BasicBlock& block) const;
  State transfer(const cfg::Function& fn, const cfg::BasicBlock& block,
                 State state) const;
  bool join(State& into, const State& from, bool widen) const;
  bool edge_feasible(const cfg::Function& fn, const cfg::BasicBlock& block,
                     const State& out, const cfg::Edge& edge) const;

  // The abstract value `instr` at `pc` writes to its rd in `state` — the
  // one ALU/load switch. Bottom for ops that write no GPR.
  static AbsValue result(const isa::Instr& instr, u32 pc, const MemModel* mem,
                         const State& state);

  // Small-step update for one instruction at `pc`: rd := result(...) for
  // the ops that write one. Public so linter walks can replay blocks from a
  // solved in-state.
  static void apply(const isa::Instr& instr, u32 pc, const MemModel* mem,
                    State& state);

  // Post-block effect: the call-return clobber for kCall blocks. A null
  // `effect` applies the conservative ABI assumptions.
  static void finish_block(const cfg::BasicBlock& block, State& state,
                           const CallEffect* effect = nullptr);

  // Definite branch outcome from the state at the branch, if decidable.
  static std::optional<bool> eval_branch(const isa::Instr& branch,
                                         const State& state);

 private:
  const CallEffect* call_effect(const cfg::BasicBlock& block) const;

  Options options_;
};

// Replay `block` from `state` (its solved in-state), invoking
// cb(pc, instr, state_before_instr) ahead of every instruction, then
// applying it. Runs finish_block at the end.
template <typename Cb>
void walk_block(const cfg::BasicBlock& block, const MemModel* mem,
                RegState state, Cb&& cb) {
  u32 pc = block.start;
  for (const isa::Instr& instr : block.insns) {
    cb(pc, instr, state);
    RegDomain::apply(instr, pc, mem, state);
    pc += instr.length;
  }
  RegDomain::finish_block(block, state);
}

// Abstract effective address of the load/store `instr` in `state`.
AbsValue effective_address(const isa::Instr& instr, const RegState& state);

// Access width in bytes for a load/store op.
u32 access_size(isa::Op op);

}  // namespace s4e::dataflow
