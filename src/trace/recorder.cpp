#include "trace/recorder.hpp"

#include <algorithm>

#include "asm/program.hpp"
#include "isa/csr.hpp"
#include "isa/opcode.hpp"
#include "vp/devices/clint.hpp"
#include "vp/devices/gpio.hpp"

namespace s4e::trace {

using isa::Op;
using isa::OpClass;

TraceRecorder::Config TraceRecorder::config_for(
    const vp::MachineConfig& machine, const assembler::Program& program) {
  Config config;
  config.fingerprint = program_fingerprint(program);
  config.entry_pc = program.entry;
  config.recorded = machine.timing;
  config.ram_base = machine.ram_base;
  config.ram_size = machine.ram_size;
  return config;
}

namespace {

Header header_for(const TraceRecorder::Config& config) {
  Header header;
  header.fingerprint = config.fingerprint;
  header.entry_pc = config.entry_pc;
  header.recorded = config.recorded;
  return header;
}

// Instruction byte length from the raw encoding: decompressed RVC forms
// keep their 16-bit parcel in `encoding`, so the standard low-bit rule
// applies unchanged.
u32 insn_length(u32 encoding) noexcept {
  return (encoding & 3) == 3 ? 4 : 2;
}

bool branch_taken(Op op, u32 rs1, u32 rs2) noexcept {
  switch (op) {
    case Op::kBeq: return rs1 == rs2;
    case Op::kBne: return rs1 != rs2;
    case Op::kBlt: return static_cast<i32>(rs1) < static_cast<i32>(rs2);
    case Op::kBge: return static_cast<i32>(rs1) >= static_cast<i32>(rs2);
    case Op::kBltu: return rs1 < rs2;
    case Op::kBgeu: return rs1 >= rs2;
    default: return false;
  }
}

}  // namespace

TraceRecorder::TraceRecorder(const Config& config)
    : config_(config), writer_(header_for(config)),
      cursor_(config.entry_pc) {}

Status TraceRecorder::attach_checked(s4e_vm* vm) {
  if (s4e_num_harts(vm) > 1) {
    return Error(ErrorCode::kUnsupported,
                 "trace recording requires a single-hart machine (an SMP "
                 "interleaving is not a single PC stream)");
  }
  attach(vm);
  accounted_ = s4e_icount(vm);
  return Status();
}

TraceRecorder::StaticInsn& TraceRecorder::static_slot(u32 pc) {
  const u32 aligned = pc & ~u32{1};
  if (static_.empty()) static_base_ = aligned;
  if (aligned < static_base_) {
    static_.insert(static_.begin(), (static_base_ - aligned) / 2,
                   StaticInsn{});
    static_base_ = aligned;
  }
  const std::size_t slot = (aligned - static_base_) / 2;
  if (slot >= static_.size()) static_.resize(slot + 1);
  return static_[slot];
}

void TraceRecorder::on_tb_trans(const s4e_tb_info& tb) {
  // Walk backwards so each plain instruction knows its run.
  u16 run = 0;
  u8 run_length = 0;
  for (u32 i = tb.n_insns; i-- > 0;) {
    const s4e_insn_info& insn = tb.insns[i];
    StaticInsn info;
    info.length = static_cast<u8>(insn_length(insn.encoding));
    info.imm = insn.imm;
    switch (static_cast<OpClass>(insn.op_class)) {
      case OpClass::kArith:
      case OpClass::kFence:
        info.kind = StaticInsn::kPlain;
        break;
      case OpClass::kMul:
        info.kind = StaticInsn::kMul;
        break;
      case OpClass::kJump:
        info.kind = static_cast<Op>(insn.op) == Op::kJal ? StaticInsn::kJal
                                                         : StaticInsn::kJalr;
        break;
      case OpClass::kLoad:
        info.kind = StaticInsn::kLoad;
        break;
      case OpClass::kStore:
        info.kind = StaticInsn::kStore;
        break;
      case OpClass::kBranch:
        // A branch to its own fall-through leaves no trace in the next
        // block head: read its operands at issue.
        info.kind = static_cast<u32>(insn.imm) == info.length
                        ? StaticInsn::kObserved
                        : StaticInsn::kBranch;
        break;
      default:
        info.kind = static_cast<Op>(insn.op) == Op::kMret
                        ? StaticInsn::kMret
                        : StaticInsn::kObserved;
        break;
    }
    if (info.kind == StaticInsn::kPlain) {
      run = run_length == info.length ? static_cast<u16>(run + 1) : 1;
      run_length = info.length;
      info.plain_run = run;
    } else {
      run = 0;
      run_length = 0;
    }
    if (info.kind == StaticInsn::kObserved) request_insn_exec(i);
    static_slot(insn.address) = info;
  }
}

void TraceRecorder::catch_up(u64 icount, u32 next_pc) {
  if (icount <= accounted_) return;
  u64 remaining = icount - accounted_;
  accounted_ = icount;
  flush_pending(nullptr);
  while (remaining != 0) {
    const StaticInsn info = static_at(cursor_);
    switch (info.kind) {
      case StaticInsn::kPlain: {
        const u32 count =
            static_cast<u32>(std::min<u64>(remaining, info.plain_run));
        if (run_count_ != 0 && run_length_ != info.length) flush_run();
        run_length_ = info.length;
        run_count_ += count;
        instructions_ += count;
        advance(info.length * count);
        remaining -= count;
        break;
      }
      case StaticInsn::kMul:
        flush_run();
        writer_.mul(info.length);
        ++instructions_;
        advance(info.length);
        --remaining;
        break;
      case StaticInsn::kJal: {
        const u32 target = cursor_ + static_cast<u32>(info.imm);
        flush_run();
        writer_.jump(cursor_, target);
        ++instructions_;
        cursor_ = target;
        --remaining;
        break;
      }
      case StaticInsn::kBranch:
      case StaticInsn::kJalr:
      case StaticInsn::kMret: {
        // It ended its block: `next_pc` is where it went.
        if (remaining != 1) {
          taint_at(TaintKind::kCursorResync);
          remaining = 0;
          break;
        }
        flush_run();
        if (info.kind == StaticInsn::kJalr) {
          writer_.jump(cursor_, next_pc);
          cursor_ = next_pc;
        } else if (info.kind == StaticInsn::kMret) {
          writer_.mret(cursor_, next_pc);
          cursor_ = next_pc;
        } else if (next_pc == cursor_ + static_cast<u32>(info.imm)) {
          writer_.branch_taken(cursor_, next_pc);
          cursor_ = next_pc;
        } else {
          writer_.branch_not_taken(info.length);
          advance(info.length);
        }
        ++instructions_;
        remaining = 0;
        break;
      }
      default:
        // The cursor left the translated code the block lists describe:
        // a contract violation the trace must not hide.
        taint_at(TaintKind::kCursorResync);
        remaining = 0;
        break;
    }
  }
}

void TraceRecorder::flush_run() {
  if (run_count_ == 0) return;
  writer_.run(run_length_, run_count_);
  run_count_ = 0;
}

void TraceRecorder::taint_at(TaintKind kind) {
  flush_run();
  writer_.taint(kind);
  ++taints_;
}

void TraceRecorder::flush_pending(const vp::RunResult* result) {
  if (!pending_) return;
  const Pending pending = *pending_;
  pending_.reset();
  flush_run();
  ++instructions_;
  switch (static_cast<OpClass>(pending.op_class)) {
    case OpClass::kLoad:
    case OpClass::kStore: {
      // Exactly one access on the non-trap path (a trapped access never
      // reaches here — on_trap flushed it as kTrapInsn).
      const MemAccess& access = pending.mem[0];
      const bool is_store =
          static_cast<OpClass>(pending.op_class) == OpClass::kStore;
      Tag tag;
      if (access.mmio) {
        tag = is_store ? (pending.length == 4 ? Tag::kStoreMmio4
                                              : Tag::kStoreMmio2)
                       : (pending.length == 4 ? Tag::kLoadMmio4
                                              : Tag::kLoadMmio2);
      } else {
        tag = is_store ? (pending.length == 4 ? Tag::kStore4 : Tag::kStore2)
                       : (pending.length == 4 ? Tag::kLoad4 : Tag::kLoad2);
      }
      writer_.mem(tag, access.addr, access.size);
      ++mem_accesses_;
      advance(pending.length);
      break;
    }
    case OpClass::kAmo:
      if (pending.mem_count == 2) {
        writer_.mem(Tag::kAmoRmw, pending.mem[0].addr, pending.mem[0].size);
        mem_accesses_ += 2;
      } else if (pending.mem_count == 1) {
        writer_.mem(pending.mem[0].store ? Tag::kAmoStore : Tag::kAmoLoad,
                    pending.mem[0].addr, pending.mem[0].size);
        ++mem_accesses_;
      } else {
        writer_.amo_fail();  // failed sc.w: no access modelled
      }
      advance(pending.length);
      break;
    case OpClass::kCsr:
      writer_.csr(pending.length);
      advance(pending.length);
      break;
    case OpClass::kSystem:
      if (static_cast<Op>(pending.op) == Op::kWfi) {
        if (result != nullptr &&
            result->reason == vp::StopReason::kWfiHalt) {
          writer_.wfi_halt();
        } else {
          // The wfi slept (timer armed: modelled time fast-forwarded) and
          // execution continued — a timing-dependent amount of time passed,
          // so the trace is only valid for the recording configuration.
          taint_at(TaintKind::kWfiSleep);
          writer_.wfi_sleep();
        }
      } else {
        // ecall on the semihosting-exit path (a trapped ecall/ebreak was
        // flushed by on_trap as kTrapInsn and never reaches here).
        writer_.sys_exit();
      }
      advance(pending.length);
      break;
    default:
      // Unreachable: only the classes above are made pending.
      advance(pending.length);
      break;
  }
}

void TraceRecorder::on_tb_exec(u32 tb_start) {
  catch_up(s4e_icount(vm()), tb_start);
  flush_pending(nullptr);
  ++blocks_;
  if (cursor_valid_ && tb_start == cursor_) {
    flush_run();
    writer_.block();
    return;
  }
  if (cursor_valid_) {
    // Control flow arrived somewhere the event stream cannot derive — a
    // contract violation unless a taint (interrupt) explains it.
    taint_at(TaintKind::kCursorResync);
  }
  flush_run();
  writer_.block_at(tb_start, cursor_);
  cursor_ = tb_start;
  cursor_valid_ = true;
}

void TraceRecorder::begin_insn(u64 icount, u32 pc) {
  catch_up(icount, pc);
  accounted_ = icount + 1;
  flush_pending(nullptr);
  if (cursor_valid_ && pc != cursor_) {
    taint_at(TaintKind::kCursorResync);
    cursor_ = pc;
  } else if (!cursor_valid_) {
    // Should be resynced by the enclosing block dispatch; be safe.
    cursor_ = pc;
    cursor_valid_ = true;
  }
}

void TraceRecorder::begin_mem_insn(u64 icount, u32 pc) {
  begin_insn(icount, pc);
  const StaticInsn info = static_at(pc);
  pending_ = Pending{pc,
                     info.length,
                     0,
                     static_cast<u8>(info.kind == StaticInsn::kStore
                                         ? OpClass::kStore
                                         : OpClass::kLoad),
                     {},
                     0};
}

void TraceRecorder::on_insn_exec(const s4e_insn_info& insn) {
  begin_insn(s4e_icount(vm()), insn.address);
  const u32 length = insn_length(insn.encoding);
  switch (static_cast<OpClass>(insn.op_class)) {
    case OpClass::kDiv: {
      // The iterative divider's cost depends on the dividend; read it now,
      // before execution can overwrite rs1 (rd may alias it).
      const u32 dividend = s4e_read_gpr(vm(), insn.rs1);
      flush_run();
      writer_.div(length, dividend);
      ++instructions_;
      advance(length);
      break;
    }
    case OpClass::kBranch: {  // to its own fall-through (see on_tb_trans)
      const bool taken = branch_taken(static_cast<Op>(insn.op),
                                      s4e_read_gpr(vm(), insn.rs1),
                                      s4e_read_gpr(vm(), insn.rs2));
      flush_run();
      if (taken) {
        const u32 target = insn.address + static_cast<u32>(insn.imm);
        writer_.branch_taken(insn.address, target);
        cursor_ = target;
      } else {
        writer_.branch_not_taken(length);
        advance(length);
      }
      ++instructions_;
      break;
    }
    case OpClass::kCsr: {
      // Counter CSRs read the very quantity the replay matrix varies; a
      // program that observes them can branch on them, so the recorded
      // path is only valid for the recording configuration.
      const Op op = static_cast<Op>(insn.op);
      const bool wants_read =
          !(op == Op::kCsrrw || op == Op::kCsrrwi) || insn.rd != 0;
      if (wants_read) {
        switch (insn.csr) {
          case isa::kCsrCycle:
          case isa::kCsrCycleh:
          case isa::kCsrMcycle:
          case isa::kCsrMcycleh:
            taint_at(TaintKind::kCsrCycleRead);
            break;
          case isa::kCsrTime:
          case isa::kCsrTimeh:
            taint_at(TaintKind::kCsrTimeRead);
            break;
          case isa::kCsrMip:
            taint_at(TaintKind::kCsrMipRead);
            break;
          default:
            break;
        }
      }
      pending_ = Pending{insn.address, length, insn.op, insn.op_class, {}, 0};
      break;
    }
    case OpClass::kSystem:
      // ecall / ebreak / wfi: outcome (exit, trap, halt, sleep) arrives as
      // a later event. (mret is derived in catch_up.)
      pending_ = Pending{insn.address, length, insn.op, insn.op_class, {}, 0};
      break;
    case OpClass::kAmo:
      pending_ = Pending{insn.address, length, insn.op, insn.op_class, {}, 0};
      break;
    default:  // never requested: see on_tb_trans
      break;
  }
}

void TraceRecorder::on_mem(const s4e_mem_event& event) {
  // The count includes the accessing instruction. A load or store has no
  // insn_exec request: its access opens it (an AMO is open already).
  const u64 icount = s4e_icount(vm());
  if (accounted_ < icount) begin_mem_insn(icount - 1, event.pc);
  if (!pending_ || pending_->mem_count >= 2) return;
  MemAccess access;
  access.addr = event.vaddr;
  access.size = event.size;
  access.store = event.is_store != 0;
  access.mmio = !(event.vaddr >= config_.ram_base &&
                  event.vaddr - config_.ram_base <=
                      config_.ram_size - event.size);
  if (access.mmio) {
    // CLINT and GPIO state is a function of modelled time; the UART and the
    // test finisher are not. CLINT *stores* arm interrupts whose delivery
    // point is cycle-exact, so they taint too.
    if (event.vaddr - vp::Clint::kDefaultBase < vp::Clint::kWindowSize) {
      taint_at(access.store ? TaintKind::kClintStore : TaintKind::kClintLoad);
    } else if (!access.store &&
               event.vaddr - vp::Gpio::kDefaultBase < vp::Gpio::kWindowSize) {
      taint_at(TaintKind::kGpioLoad);
    }
  }
  pending_->mem[pending_->mem_count++] = access;
}

void TraceRecorder::on_trap(const s4e_trap_event& event) {
  const u64 icount = s4e_icount(vm());
  // A load or store access fault: the faulting instruction (counted, not
  // requested, no memory event) opens here. Every other instruction that
  // traps was requested, so it is accounted already, and a fetch trap or
  // an interrupt has epc = the next PC.
  if ((event.cause == vp::kCauseLoadFault ||
       event.cause == vp::kCauseStoreFault) &&
      accounted_ < icount) {
    begin_mem_insn(icount - 1, event.epc);
  }
  catch_up(icount, event.epc);
  const bool interrupt = (event.cause & 0x8000'0000u) != 0;
  const u32 mtvec = s4e_read_csr(vm(), isa::kCsrMtvec);
  const bool handled = mtvec != 0;
  const u32 handler = mtvec & ~u32{3};  // sync traps: base, never vectored

  if (!interrupt && pending_ && event.epc == pending_->pc) {
    // Synchronous trap raised by the pending instruction's handler.
    const Pending pending = *pending_;
    pending_.reset();
    flush_run();
    writer_.trap_insn(pending.op_class, pending.length, handled, event.cause,
                      pending.pc, handler);
    ++instructions_;
    if (handled) {
      cursor_ = handler;
    } else {
      cursor_valid_ = false;  // run ends here
    }
    return;
  }

  flush_pending(nullptr);
  if (interrupt) {
    // Asynchronous: the delivery point is a function of the cycle count, so
    // the path from here on is configuration-specific.
    taint_at(TaintKind::kInterrupt);
    cursor_valid_ = false;  // next block dispatch resyncs via kBlockAt
    return;
  }
  // Standalone synchronous trap: instruction fetch / decode failed at a
  // block head — no instruction executed, no class cost charged.
  if (cursor_valid_ && event.epc != cursor_) {
    taint_at(TaintKind::kCursorResync);
    cursor_ = event.epc;
  }
  flush_run();
  writer_.trap_fetch(handled, event.cause, cursor_, handler);
  if (handled) {
    cursor_ = handler;
    cursor_valid_ = true;
  } else {
    cursor_valid_ = false;
  }
}

Footer TraceRecorder::make_footer(const vp::RunResult& result) const {
  Footer footer;
  footer.stop_reason = static_cast<u8>(result.reason);
  footer.exit_code = result.exit_code;
  footer.instructions = instructions_;
  footer.blocks = blocks_;
  footer.mem_accesses = mem_accesses_;
  footer.taints = taints_;
  footer.recorded_cycles = result.cycles;
  return footer;
}

Status TraceRecorder::finish(const vp::RunResult& result,
                             const std::string& path) {
  catch_up(result.instructions, result.final_pc);
  flush_pending(&result);
  flush_run();
  return writer_.save(path, make_footer(result));
}

std::vector<u8> TraceRecorder::finish_bytes(const vp::RunResult& result) {
  catch_up(result.instructions, result.final_pc);
  flush_pending(&result);
  flush_run();
  return writer_.finish(make_footer(result));
}

}  // namespace s4e::trace
