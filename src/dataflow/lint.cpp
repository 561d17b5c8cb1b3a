#include "dataflow/lint.hpp"

#include <algorithm>
#include <optional>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "isa/disasm.hpp"
#include "isa/registers.hpp"

namespace s4e::dataflow {

namespace {

using cfg::Terminator;
using isa::Instr;

// Raw u32 bounds of a bounded, sign-pure abstract value (the canonical
// signed interval maps back to one unsigned interval only when it does not
// straddle 2^31).
std::optional<std::pair<u64, u64>> raw_bounds(const AbsValue& v) {
  if (!v.has_bounds()) return std::nullopt;
  if (v.lo() >= 0) {
    return std::pair<u64, u64>{static_cast<u64>(v.lo()),
                               static_cast<u64>(v.hi())};
  }
  if (v.hi() < 0) {
    const i64 wrap = i64{1} << 32;
    return std::pair<u64, u64>{static_cast<u64>(v.lo() + wrap),
                               static_cast<u64>(v.hi() + wrap)};
  }
  return std::nullopt;
}

struct Linter {
  const Analysis& an;
  const LintOptions& opts;
  LintReport report;

  void add(CheckKind kind, u32 pc, const std::string& function,
           std::string message) {
    report.findings.push_back({kind, pc, function, std::move(message)});
  }

  void check_unreachable() {
    for (std::size_t f = 0; f < an.cfg.functions.size(); ++f) {
      const cfg::Function& fn = an.cfg.functions[f];
      if (!an.function_reachable[f]) {
        add(CheckKind::kUnreachableBlock, fn.entry, fn.name,
            format("function '%s' is never called from reachable code",
                   fn.name.c_str()));
        continue;
      }
      for (const cfg::BasicBlock& block : fn.blocks) {
        if (an.functions[f].block_reachable[block.id]) continue;
        add(CheckKind::kUnreachableBlock, block.start, fn.name,
            format("unreachable basic block [0x%08x, 0x%08x) in '%s'",
                   block.start, block.end, fn.name.c_str()));
      }
    }
  }

  const CallEffect* call_effect(std::size_t f, const cfg::BasicBlock& block) {
    const auto& effects = an.functions[f].call_effects;
    auto it = effects.find(block.id);
    return it == effects.end() ? nullptr : &it->second;
  }

  void check_uninit_reads() {
    for_each_reachable_block([&](const cfg::Function& fn, std::size_t f,
                                 const cfg::BasicBlock& block) {
      RegState state = an.functions[f].reg.in[block.id];
      u32 pc = block.start;
      for (const Instr& instr : block.insns) {
        const u32 bad =
            isa::def_use(instr).reads & state.maybe_uninit & ~u32{1};
        for (unsigned r = 1; r < isa::kGprCount; ++r) {
          if ((bad & reg_bit(r)) == 0) continue;
          add(CheckKind::kUninitRead, pc, fn.name,
              format("'%s' reads %s, which may be uninitialized "
                     "on a path reaching 0x%08x",
                     isa::disassemble(instr).c_str(),
                     std::string(isa::gpr_abi_name(r)).c_str(), pc));
        }
        RegDomain::apply(instr, pc, &an.mem, state);
        pc += instr.length;
      }
      // Interprocedural: an argument register the callee provably reads
      // must be initialized at the call. Only refined effects are screened
      // — the ABI default would flag every may-uninit a-register.
      const CallEffect* effect = call_effect(f, block);
      if (effect == nullptr || !effect->refined) return;
      const u32 bad = effect->may_read & state.maybe_uninit & ~u32{1};
      if (bad == 0) return;
      const u32 call_pc = block.end - block.insns.back().length;
      auto callee = an.cfg.function_by_entry.find(block.call_target);
      const std::string callee_name =
          callee == an.cfg.function_by_entry.end()
              ? format("0x%08x", block.call_target)
              : an.cfg.functions[callee->second].name;
      for (unsigned r = 1; r < isa::kGprCount; ++r) {
        if ((bad & reg_bit(r)) == 0) continue;
        add(CheckKind::kUninitRead, call_pc, fn.name,
            format("call to '%s' at 0x%08x passes %s, which may be "
                   "uninitialized and which the callee reads",
                   callee_name.c_str(), call_pc,
                   std::string(isa::gpr_abi_name(r)).c_str()));
      }
    });
  }

  void check_dead_writes() {
    for_each_reachable_block([&](const cfg::Function& fn, std::size_t f,
                                 const cfg::BasicBlock& block) {
      u32 live =
          Liveness::exit_adjust(block, an.functions[f].live.out[block.id],
                                call_effect(f, block));
      u32 pc_end = block.end;
      for (auto it = block.insns.rbegin(); it != block.insns.rend(); ++it) {
        const Instr& instr = *it;
        pc_end -= instr.length;
        const isa::DefUse du = isa::def_use(instr);
        // jal/jalr linkage writes are implicit, not programmer stores.
        if (du.writes != 0 && (du.writes & live) == 0 &&
            instr.op != isa::Op::kJal && instr.op != isa::Op::kJalr) {
          unsigned rd = instr.rd;
          add(CheckKind::kDeadWrite, pc_end, fn.name,
              format("'%s' writes %s but the value is never read "
                     "(dead store)",
                     isa::disassemble(instr).c_str(),
                     std::string(isa::gpr_abi_name(rd)).c_str()));
        }
        live = (live & ~du.writes) | du.reads;
      }
    });
  }

  void check_stack() {
    // Local frame sizes.
    std::vector<i64> frame(an.cfg.functions.size(), -1);
    for (std::size_t f = 0; f < an.cfg.functions.size(); ++f) {
      if (!an.function_reachable[f]) continue;
      const cfg::Function& fn = an.cfg.functions[f];
      const FunctionAnalysis& fa = an.functions[f];
      i64 deepest = 0;
      bool known = true;
      for (const cfg::BasicBlock& block : fn.blocks) {
        if (!fa.block_reachable[block.id]) continue;
        // Sample sp at every instruction (a frame allocated and released
        // within one block never shows at the block boundaries).
        const auto probe = [&](const AbsValue& sp) {
          if (!sp.is_stack()) {
            known = false;
            return;
          }
          deepest = std::max(deepest, -sp.lo());
        };
        walk_block(block, &an.mem, fa.reg.in[block.id],
                   [&](u32 /*pc*/, const isa::Instr& /*instr*/,
                       const RegState& state) { probe(state.regs[2]); });
        probe(fa.reg.out[block.id].regs[2]);
        if (!known) break;
        // Balance: every return must restore the incoming sp exactly.
        if (block.terminator == Terminator::kReturn) {
          const AbsValue& sp = fa.reg.out[block.id].regs[2];
          if (!(sp.is_stack() && sp.lo() == 0 && sp.hi() == 0)) {
            add(CheckKind::kStackImbalance, block.end, fn.name,
                format("'%s' returns with sp = %s instead of its entry "
                       "value (unbalanced stack)",
                       fn.name.c_str(), sp.describe().c_str()));
          }
        }
      }
      frame[f] = known ? deepest : -1;
      if (!known) {
        add(CheckKind::kStackImbalance, fn.entry, fn.name,
            format("'%s' manipulates sp in a way the analysis cannot "
                   "track (stack depth unknown)",
                   fn.name.c_str()));
      }
    }

    // Whole-chain depth, callee-first over the (acyclic) call graph.
    std::vector<i64> total(an.cfg.functions.size(), -2);  // -2 = unvisited
    std::vector<u8> visiting(an.cfg.functions.size(), 0);
    auto depth = [&](auto&& self, std::size_t f) -> i64 {
      if (total[f] != -2) return total[f];
      if (visiting[f] != 0) return -1;  // recursion: unbounded
      visiting[f] = 1;
      i64 best = frame[f];
      if (best >= 0) {
        const cfg::Function& fn = an.cfg.functions[f];
        for (const cfg::BasicBlock& block : fn.blocks) {
          if (block.terminator != Terminator::kCall ||
              !an.functions[f].block_reachable[block.id]) {
            continue;
          }
          auto it = an.cfg.function_by_entry.find(block.call_target);
          const AbsValue& sp = an.functions[f].reg.out[block.id].regs[2];
          const i64 callee_depth =
              it == an.cfg.function_by_entry.end() ? -1
                                                   : self(self, it->second);
          if (callee_depth < 0 || !sp.is_stack()) {
            best = -1;
            break;
          }
          best = std::max(best, -sp.lo() + callee_depth);
        }
      }
      visiting[f] = 0;
      total[f] = best;
      return best;
    };
    for (std::size_t f = 0; f < an.cfg.functions.size(); ++f) {
      if (!an.function_reachable[f]) continue;
      report.frames.push_back(
          {an.cfg.functions[f].name, frame[f], depth(depth, f)});
    }
    report.max_stack_depth = total[0];

    if (opts.stack_limit >= 0 && report.max_stack_depth >= 0 &&
        report.max_stack_depth > opts.stack_limit) {
      add(CheckKind::kStackOverflow, an.cfg.functions[0].entry,
          an.cfg.functions[0].name,
          format("worst-case static stack depth %lld bytes exceeds the "
                 "%lld-byte budget",
                 static_cast<long long>(report.max_stack_depth),
                 static_cast<long long>(opts.stack_limit)));
    }
  }

  void check_recursion() {
    // A reachable call-graph cycle admits no static stack bound; every
    // member is reported (mutual recursion flags each participant once).
    for (std::size_t f = 0; f < an.cfg.functions.size(); ++f) {
      if (!an.function_reachable[f] || f >= an.graph.recursive.size() ||
          !an.graph.recursive[f]) {
        continue;
      }
      const cfg::Function& fn = an.cfg.functions[f];
      add(CheckKind::kRecursion, fn.entry, fn.name,
          format("'%s' is part of a call-graph cycle: recursion depth — "
                 "and therefore stack use — has no static bound",
                 fn.name.c_str()));
    }
  }

  void check_unused_result() {
    // A function that writes a0 on every returning path advertises a
    // result. If no reachable call site keeps a0 live at its continuation,
    // every caller discards it. (Result forwarding is covered: a caller
    // passing a0 through to its own return keeps it live via the return
    // boundary.)
    const std::size_t n = an.cfg.functions.size();
    std::vector<u8> produces(n, 0);
    for (std::size_t f = 1; f < n; ++f) {
      if (!an.function_reachable[f] || f >= an.summaries.size()) continue;
      const FunctionSummary& sum = an.summaries[f];
      produces[f] = !sum.conservative && sum.returns &&
                    (sum.must_write & reg_bit(10)) != 0;
    }
    std::vector<u8> called(n, 0), consumed(n, 0);
    for_each_reachable_block([&](const cfg::Function& /*fn*/, std::size_t f,
                                 const cfg::BasicBlock& block) {
      if (block.terminator != Terminator::kCall) return;
      auto it = an.cfg.function_by_entry.find(block.call_target);
      if (it == an.cfg.function_by_entry.end()) return;
      called[it->second] = 1;
      // Backward out-fact of the call block = live after the call returns.
      if ((an.functions[f].live.out[block.id] & reg_bit(10)) != 0) {
        consumed[it->second] = 1;
      }
    });
    for (std::size_t f = 1; f < n; ++f) {
      if (!produces[f] || !called[f] || consumed[f]) continue;
      const cfg::Function& fn = an.cfg.functions[f];
      add(CheckKind::kUnusedResult, fn.entry, fn.name,
          format("'%s' computes a result in a0, but no reachable call "
                 "site ever uses it",
                 fn.name.c_str()));
    }
  }

  void check_policy() {
    if (opts.policy == nullptr) return;
    const memwatch::Policy& policy = *opts.policy;
    for_each_reachable_block([&](const cfg::Function& fn, std::size_t f,
                                 const cfg::BasicBlock& block) {
      walk_block(block, &an.mem, an.functions[f].reg.in[block.id],
                 [&](u32 pc, const Instr& instr, const RegState& state) {
                   if (!instr.reads_memory() && !instr.writes_memory()) return;
                   const auto bounds =
                       raw_bounds(effective_address(instr, state));
                   if (!bounds) return;  // imprecise: never flag
                   const u64 lo = bounds->first;
                   const u64 hi = bounds->second + access_size(instr.op) - 1;
                   screen_access(fn, pc, instr, lo, hi, policy);
                 });
    });
  }

  void screen_access(const cfg::Function& fn, u32 pc, const Instr& instr,
                     u64 lo, u64 hi, const memwatch::Policy& policy) {
    const bool is_store = instr.writes_memory();
    bool matched_any = false;
    for (const memwatch::Region& region : policy.regions) {
      const u64 rbase = region.base;
      const u64 rend = rbase + region.size;
      if (lo < rend && rbase <= hi) matched_any = true;
      // Must-target: flag only when the whole access range is inside.
      if (!(lo >= rbase && hi < rend)) continue;
      const bool perm_ok = is_store ? region.allow_write : region.allow_read;
      const bool pc_ok = region.pc_allowed(pc);
      if (perm_ok && pc_ok) continue;
      std::string why =
          !perm_ok ? format("%s access is not permitted",
                            is_store ? "write" : "read")
                   : format("pc 0x%08x is outside the authorized window "
                            "[0x%08x, 0x%08x)",
                            pc, region.pc_lo, region.pc_hi);
      add(CheckKind::kPolicyViolation, pc, fn.name,
          format("'%s' %s region '%s' at [0x%08x, 0x%08x]: %s",
                 isa::disassemble(instr).c_str(),
                 is_store ? "writes" : "reads", region.name.c_str(),
                 static_cast<u32>(lo), static_cast<u32>(hi), why.c_str()));
      return;
    }
    if (!policy.default_allow && !matched_any) {
      add(CheckKind::kPolicyViolation, pc, fn.name,
          format("'%s' accesses [0x%08x, 0x%08x], outside every policy "
                 "region (default deny)",
                 isa::disassemble(instr).c_str(), static_cast<u32>(lo),
                 static_cast<u32>(hi)));
    }
  }

  void check_unresolved() {
    for (const UnresolvedSite& site : an.unresolved) {
      add(CheckKind::kUnresolvedIndirect, site.pc, site.function,
          format("unresolved indirect %s at 0x%08x in '%s' (target value: "
                 "%s)",
                 site.is_call ? "call" : "jump", site.pc,
                 site.function.c_str(), site.target.c_str()));
    }
  }

  template <typename Cb>
  void for_each_reachable_block(Cb&& cb) {
    for (std::size_t f = 0; f < an.cfg.functions.size(); ++f) {
      if (!an.function_reachable[f]) continue;
      const cfg::Function& fn = an.cfg.functions[f];
      for (const cfg::BasicBlock& block : fn.blocks) {
        if (!an.functions[f].block_reachable[block.id]) continue;
        cb(fn, f, block);
      }
    }
  }
};

}  // namespace

std::string_view check_name(CheckKind kind) noexcept {
  switch (kind) {
    case CheckKind::kUninitRead: return "uninit-read";
    case CheckKind::kUnreachableBlock: return "unreachable";
    case CheckKind::kDeadWrite: return "dead-write";
    case CheckKind::kStackImbalance: return "stack-imbalance";
    case CheckKind::kPolicyViolation: return "policy";
    case CheckKind::kUnresolvedIndirect: return "indirect";
    case CheckKind::kUnusedResult: return "unused-result";
    case CheckKind::kRecursion: return "recursion";
    case CheckKind::kStackOverflow: return "stack-overflow";
  }
  return "?";
}

std::string Finding::to_string() const {
  return format("[%s] 0x%08x (%s): %s",
                std::string(check_name(kind)).c_str(), pc, function.c_str(),
                message.c_str());
}

std::string Finding::to_json() const {
  return format("{\"check\":\"%s\",\"pc\":\"0x%08x\",\"function\":\"%s\","
                "\"message\":\"%s\"}",
                std::string(check_name(kind)).c_str(), pc,
                json_escape(function).c_str(), json_escape(message).c_str());
}

std::string LintReport::to_string() const {
  std::string out;
  out += format("s4e-lint: %zu finding(s)\n", findings.size());
  for (const Finding& finding : findings) {
    out += "  " + finding.to_string() + "\n";
  }
  out += "stack frames (static):\n";
  for (const FrameInfo& frame : frames) {
    out += format("  %-24s frame %4lld bytes, with callees ",
                  frame.function.c_str(),
                  static_cast<long long>(frame.frame_bytes));
    out += frame.total_bytes < 0
               ? "unknown\n"
               : format("%4lld bytes\n",
                        static_cast<long long>(frame.total_bytes));
  }
  if (max_stack_depth >= 0) {
    out += format("worst-case stack depth from entry: %lld bytes\n",
                  static_cast<long long>(max_stack_depth));
  }
  return out;
}

LintReport lint(const Analysis& analysis, const LintOptions& options) {
  Linter linter{analysis, options, {}};
  linter.check_unreachable();
  linter.check_uninit_reads();
  linter.check_dead_writes();
  linter.check_stack();
  linter.check_recursion();
  linter.check_unused_result();
  linter.check_policy();
  linter.check_unresolved();
  std::stable_sort(linter.report.findings.begin(),
                   linter.report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.pc != b.pc) return a.pc < b.pc;
                     return static_cast<u8>(a.kind) < static_cast<u8>(b.kind);
                   });
  return std::move(linter.report);
}

Result<LintReport> lint_program(const assembler::Program& program,
                                const LintOptions& options) {
  S4E_TRY(analysis, analyze_program(program));
  return lint(analysis, options);
}

}  // namespace s4e::dataflow
