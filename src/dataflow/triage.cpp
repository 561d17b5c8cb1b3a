#include "dataflow/triage.hpp"

#include <algorithm>

#include "isa/decoder.hpp"
#include "isa/defuse.hpp"
#include "isa/rvc.hpp"

namespace s4e::dataflow {

namespace {

using cfg::Terminator;
using isa::Instr;

// Canonical (sign-extended i32) reading of a program address — the space
// AbsValue and MemModel work in.
i64 canon(u32 address) { return static_cast<i32>(address); }

// Side-effect-free register-to-register computation: no memory access, no
// control transfer, no CSR/system interaction, cannot trap (RV32 division
// by zero is defined). The only architectural effect is the rd write.
bool pure_alu(const Instr& instr) {
  switch (instr.info().op_class) {
    case isa::OpClass::kArith:
    case isa::OpClass::kMul:
    case isa::OpClass::kDiv:
      return true;
    default:
      return false;
  }
}

// The pc a branch at `pc` continues at.
u32 successor(const Instr& branch, u32 pc, bool taken) {
  return taken ? pc + static_cast<u32>(branch.imm) : pc + branch.length;
}

// Both abstract values collapse to the same single concrete value (or the
// same single stack offset).
bool singleton_equal(const AbsValue& a, const AbsValue& b) {
  if (a.is_stack() != b.is_stack()) return false;
  if (!a.is_stack() && (!a.has_bounds() || !b.has_bounds())) return false;
  return a.lo() == a.hi() && b.lo() == b.hi() && a.lo() == b.lo();
}

void merge_ranges(std::vector<StaticTriage::Range>& ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const auto& x, const auto& y) { return x.lo < y.lo; });
  std::vector<StaticTriage::Range> merged;
  for (const auto& r : ranges) {
    if (!merged.empty() && r.lo <= merged.back().hi + 1) {
      merged.back().hi = std::max(merged.back().hi, r.hi);
    } else {
      merged.push_back(r);
    }
  }
  ranges = std::move(merged);
}

bool overlaps(const std::vector<StaticTriage::Range>& ranges, i64 lo, i64 hi) {
  if (lo > hi) return true;  // wrapped around the canonical seam: punt
  for (const auto& r : ranges) {
    if (lo <= r.hi && r.lo <= hi) return true;
  }
  return false;
}

}  // namespace

std::optional<TriageMode> parse_triage_mode(std::string_view value) {
  if (value.empty() || value == "on") return TriageMode::kOn;
  if (value == "off") return TriageMode::kOff;
  if (value == "verify") return TriageMode::kVerify;
  return std::nullopt;
}

Result<StaticTriage> StaticTriage::build(const assembler::Program& program,
                                         const TriageOptions& options) {
  S4E_TRY(an, analyze_program(program));
  StaticTriage t;
  t.sections_ = program.sections;
  t.analysis_ = std::make_shared<const Analysis>(std::move(an));
  const Analysis& a = *t.analysis_;

  // Whole-program register read set. kExit blocks add the exit-ecall
  // observation window (the environment reads the argument and pointer
  // registers to form the exit code).
  t.ever_read_ = 0;
  t.reads_unknown_ = false;
  t.writes_unknown_ = false;
  bool any_stack_read = false;
  bool any_stack_write = false;
  i64 stack_lo = 0;  // sp-relative access offset bounds, across all frames
  i64 stack_hi = -1;
  for (std::size_t f = 0; f < a.cfg.functions.size(); ++f) {
    if (!a.function_reachable[f]) continue;
    const cfg::Function& fn = a.cfg.functions[f];
    const FunctionAnalysis& fa = a.functions[f];
    for (const cfg::BasicBlock& block : fn.blocks) {
      if (!fa.block_reachable[block.id]) continue;
      t.code_ranges_.push_back({canon(block.start), canon(block.end - 1)});
      u32 index = 0;
      walk_block(
          block, &a.mem, fa.reg.in[block.id],
          [&](u32 pc, const Instr& instr, const RegState& state) {
            t.ever_read_ |= isa::def_use(instr).reads;
            t.occurrences_.push_back(
                {pc, static_cast<u32>(f), block.id, index++});
            if (!instr.reads_memory() && !instr.writes_memory()) return;
            const AbsValue addr = effective_address(instr, state);
            const i64 size = access_size(instr.op);
            // Atomics record on both sides: an AMO first reads the word it
            // then overwrites, so a fault there is observable AND clobbered.
            const auto record = [&](bool write) {
              bool& unknown = write ? t.writes_unknown_ : t.reads_unknown_;
              auto& ranges = write ? t.write_ranges_ : t.read_ranges_;
              bool& any_stack = write ? any_stack_write : any_stack_read;
              if (addr.is_stack()) {
                any_stack = true;
                stack_lo = std::min(stack_lo, addr.lo());
                stack_hi = std::max(stack_hi, addr.hi() + size - 1);
              } else if (addr.has_bounds()) {
                ranges.push_back({addr.lo(), addr.hi() + size - 1});
              } else {
                unknown = true;
              }
            };
            if (instr.reads_memory()) record(false);
            if (instr.writes_memory()) record(true);
          });
      if (block.terminator == Terminator::kExit) {
        t.ever_read_ |= kExitLiveMask;
      }
    }
  }

  // Stack accesses live in [entry_sp - depth + lo, entry_sp + hi] for some
  // reachable function's entry sp, all of which sit within `depth` bytes of
  // the loader's initial sp. An unknown stack top or depth widens them to
  // "anywhere".
  if (any_stack_read || any_stack_write) {
    const i64 depth = a.summaries.empty() ? -1 : a.summaries[0].total_bytes;
    if (options.stack_top == 0 || depth < 0) {
      if (any_stack_read) t.reads_unknown_ = true;
      if (any_stack_write) t.writes_unknown_ = true;
    } else {
      const i64 top = canon(options.stack_top);
      const Range window{top - depth + stack_lo, top + stack_hi};
      if (any_stack_read) t.read_ranges_.push_back(window);
      if (any_stack_write) t.write_ranges_.push_back(window);
    }
  }

  merge_ranges(t.code_ranges_);
  merge_ranges(t.read_ranges_);
  merge_ranges(t.write_ranges_);
  std::ranges::stable_sort(t.occurrences_, {}, &Occurrence::pc);
  return t;
}

bool StaticTriage::overlaps_code(i64 lo, i64 hi) const {
  return overlaps(code_ranges_, lo, hi);
}

bool StaticTriage::data_readable(i64 lo, i64 hi) const {
  return reads_unknown_ || overlaps(read_ranges_, lo, hi);
}

bool StaticTriage::data_writable(i64 lo, i64 hi) const {
  return writes_unknown_ || overlaps(write_ranges_, lo, hi);
}

std::optional<u32> StaticTriage::image_word(u32 address) const {
  for (const assembler::Section& section : sections_) {
    if (address < section.base ||
        u64{address} + 4 > u64{section.base} + section.bytes.size()) {
      continue;
    }
    const std::size_t off = address - section.base;
    return u32{section.bytes[off]} | (u32{section.bytes[off + 1]} << 8) |
           (u32{section.bytes[off + 2]} << 16) |
           (u32{section.bytes[off + 3]} << 24);
  }
  return std::nullopt;
}

TriageDecision StaticTriage::gpr_fault(unsigned reg) const {
  // x0 is left to execution: its hardwiring is the VP's concern, not a
  // liveness fact.
  if (reg == 0 || reg >= isa::kGprCount) return {};
  if ((ever_read_ & reg_bit(reg)) == 0) return {true, "dead-register"};
  return {};
}

TriageDecision StaticTriage::code_fault(u32 address, bool stuck_at, u8 bit,
                                        bool stuck_value) const {
  const i64 lo = canon(address);
  const i64 hi = lo + 3;
  if (stuck_at) {
    // Forcing a bit to its current value is the identity patch; it stays
    // one as long as no store may rewrite the word (the per-instruction
    // enforcement would otherwise revert a legitimate store).
    const std::optional<u32> word = image_word(address);
    if (word.has_value() && bit < 32 &&
        (((*word >> bit) & 1) != 0) == stuck_value && !data_writable(lo, hi)) {
      return {true, "stuck-at-nop"};
    }
  }
  if (!overlaps_code(lo, hi) && !data_readable(lo, hi) &&
      !data_writable(lo, hi)) {
    // Neither fetched nor read nor rewritten-then-read; .text is not part
    // of the campaign's final-state comparison.
    return {true, "unreachable-code"};
  }
  return {};
}

StaticTriage::Site StaticTriage::site(u32 address, u8 length) const {
  Site site;
  site.address_ = address;
  site.length_ = length;
  const i64 lo = canon(address);
  const i64 hi = lo + length - 1;
  // Any data read of the patched bytes makes the encoding itself
  // observable; no equivalence class below survives that.
  if (data_readable(lo, hi)) return site;
  if (!overlaps_code(lo, hi)) {
    site.verdict_ = {true, "unreachable-code"};
    return site;
  }

  const auto occurrences =
      std::ranges::equal_range(occurrences_, address, {}, &Occurrence::pc);
  const Analysis& a = *analysis_;
  // A partial overlap must run; so must loads, stores, jumps and CSRs (no
  // static equivalence class).
  if (occurrences.empty()) return site;
  for (const Occurrence& o : occurrences) {
    const Instr& orig =
        a.cfg.functions[o.function].blocks[o.block].insns[o.index];
    if (orig.length != length || !(pure_alu(orig) || orig.is_branch())) {
      return site;
    }
  }

  site.contexts_.reserve(occurrences.size());
  for (const Occurrence& o : occurrences) {
    const cfg::BasicBlock& block = a.cfg.functions[o.function].blocks[o.block];
    const FunctionAnalysis& fa = a.functions[o.function];
    Site::Context& ctx = site.contexts_.emplace_back();
    ctx.original = &block.insns[o.index];

    // State before the instruction: replay the block prefix.
    ctx.before = fa.reg.in[o.block];
    ctx.pc = block.start;
    for (u32 i = 0; i < o.index; ++i) {
      RegDomain::apply(block.insns[i], ctx.pc, &a.mem, ctx.before);
      ctx.pc += block.insns[i].length;
    }

    // Live set after the instruction: fold the block suffix backward.
    auto effect_it = fa.call_effects.find(o.block);
    u32 live = Liveness::exit_adjust(
        block, fa.live.out[o.block],
        effect_it == fa.call_effects.end() ? nullptr : &effect_it->second);
    for (u32 i = static_cast<u32>(block.insns.size()); i-- > o.index + 1u;) {
      const isa::DefUse du = isa::def_use(block.insns[i]);
      live = (live & ~du.writes) | du.reads;
    }
    ctx.live_after = live & ~u32{1};

    const Instr& orig = *ctx.original;
    if (pure_alu(orig)) {
      ctx.value = RegDomain::result(orig, ctx.pc, &a.mem, ctx.before);
    } else if (const auto taken = RegDomain::eval_branch(orig, ctx.before)) {
      ctx.next = successor(orig, ctx.pc, *taken);
    }
  }
  return site;
}

TriageDecision StaticTriage::mutant(const Site& site, u32 original,
                                    u32 mutated) const {
  const u32 mask = site.length_ == 2 ? 0xffffu : ~u32{0};
  if ((original & mask) == (mutated & mask)) return {true, "identical"};
  if (site.contexts_.empty()) return site.verdict_;

  Instr mut;
  if (site.length_ == 2) {
    auto decoded = isa::decompress(static_cast<u16>(mutated));
    if (!decoded.ok()) return {};
    mut = *decoded;
  } else {
    auto decoded = isa::decoder().decode(mutated);
    if (!decoded.ok()) return {};
    mut = *decoded;
  }
  mut.length = site.length_;

  const Analysis& a = *analysis_;
  bool value_equiv = true;
  bool branch_equiv = true;
  bool dead_write = true;
  for (const Site::Context& ctx : site.contexts_) {
    const Instr& orig = *ctx.original;
    if (pure_alu(orig) && pure_alu(mut)) {
      if (value_equiv &&
          (orig.rd != mut.rd || orig.rd == 0 ||
           !singleton_equal(ctx.value, RegDomain::result(mut, ctx.pc, &a.mem,
                                                         ctx.before)))) {
        value_equiv = false;
      }
      const u32 written = isa::def_use(orig).writes | isa::def_use(mut).writes;
      if ((written & ctx.live_after) != 0) dead_write = false;
      branch_equiv = false;
    } else if (orig.is_branch() && mut.is_branch()) {
      if (branch_equiv) {
        const auto taken = RegDomain::eval_branch(mut, ctx.before);
        if (!ctx.next.has_value() || !taken.has_value() ||
            *ctx.next != successor(mut, ctx.pc, *taken)) {
          branch_equiv = false;
        }
      }
      value_equiv = false;
      dead_write = false;
    } else {
      return {};  // the mutant leaves the original's class
    }
    if (!value_equiv && !branch_equiv && !dead_write) return {};
  }
  if (value_equiv) return {true, "value-equivalent"};
  if (branch_equiv) return {true, "branch-equivalent"};
  if (dead_write) return {true, "dead-write"};
  return {};
}

TriageDecision StaticTriage::mutant(u32 address, u8 length, u32 original,
                                    u32 mutated) const {
  return mutant(site(address, length), original, mutated);
}

}  // namespace s4e::dataflow
