#include "trace/recorder.hpp"

#include <algorithm>
#include <cstring>
#include <new>

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

namespace {

constexpr std::size_t align_up(std::size_t value, std::size_t to) {
  return (value + to - 1) / to * to;
}

}  // namespace

void TraceRecorder::on_tb_trans(const s4e_tb_info& tb) {
  // An event takes at most 6 template bytes (a jal: tag and a 5-byte
  // varint), and the u8 indexes below hold 255 instructions.
  constexpr u32 kMaxInsns = 255;
  constexpr std::size_t kMaxEventBytes = 6;
  S4E_CHECK_MSG(tb.n_insns <= kMaxInsns,
                "a block plan indexes instructions by u8");
  const u32 n = tb.n_insns;
  PlanInsn insns[kMaxInsns + 1];
  for (u32 i = 0; i < n; ++i) {
    const s4e_insn_info& insn = tb.insns[i];
    PlanInsn& in = insns[i];
    in.pc = insn.address;
    in.imm = insn.imm;
    in.length = static_cast<u8>(insn_length(insn.encoding));
    switch (static_cast<OpClass>(insn.op_class)) {
      case OpClass::kArith:
      case OpClass::kFence:
        in.kind = Kind::kPlain;
        break;
      case OpClass::kMul:
        in.kind = Kind::kMul;
        break;
      case OpClass::kJump:
        in.kind = static_cast<Op>(insn.op) == Op::kJal ? Kind::kJal
                                                       : Kind::kJalr;
        break;
      case OpClass::kLoad:
        in.kind = Kind::kLoad;
        break;
      case OpClass::kStore:
        in.kind = Kind::kStore;
        break;
      case OpClass::kBranch:
        // A branch to its own fall-through leaves no trace in the next
        // block head: read its operands at issue.
        in.kind = static_cast<u32>(insn.imm) == in.length ? Kind::kIssue
                                                          : Kind::kBranch;
        break;
      case OpClass::kDiv:
        in.kind = Kind::kIssue;
        break;
      default:
        in.kind = static_cast<Op>(insn.op) == Op::kMret ? Kind::kMret
                                                        : Kind::kPending;
        break;
    }
    if (in.kind == Kind::kIssue || in.kind == Kind::kPending) {
      request_insn_exec(i);
    }
  }

  // The template: one event per static instruction, one per plain run. A
  // jal ends its block, so the sentinel after it holds the jal's target.
  u8 bytes[kMaxInsns * kMaxEventBytes];
  u8* out = bytes;
  PlanInsn& end = insns[n];
  end = PlanInsn{tb.start, 0, 0, 0, Kind::kEnd, 0, 0};
  for (u32 i = 0; i < n;) {
    PlanInsn& in = insns[i];
    in.bytes = static_cast<u16>(out - bytes);
    in.event = static_cast<u8>(i);
    end.pc = in.pc + in.length;
    ++i;
    if (in.kind == Kind::kPlain) {
      u32 count = 1;
      for (; i < n && insns[i].kind == Kind::kPlain &&
             insns[i].length == in.length;
           ++i, ++count) {
        insns[i].bytes = in.bytes;
        insns[i].event = in.event;
        end.pc = insns[i].pc + in.length;
      }
      *out++ = static_cast<u8>(in.length == 4 ? Tag::kRun4 : Tag::kRun2);
      out = put_varint(out, count);
    } else if (in.kind == Kind::kMul) {
      *out++ = static_cast<u8>(in.length == 4 ? Tag::kMul4 : Tag::kMul2);
    } else if (in.kind == Kind::kJal) {
      end.pc = in.pc + static_cast<u32>(in.imm);
      *out++ = static_cast<u8>(Tag::kJump);
      out = put_varint(out, zigzag(static_cast<i64>(end.pc) - in.pc));
    }
  }
  const std::size_t template_size = static_cast<std::size_t>(out - bytes);
  end.bytes = static_cast<u16>(template_size);
  end.event = static_cast<u8>(n);
  u8 stop = static_cast<u8>(n);
  for (u32 i = n + 1; i-- > 0;) {
    if (!is_static(insns[i].kind)) stop = static_cast<u8>(i);
    insns[i].stop = stop;
  }

  // One slot: header, instructions, template, and the slack Writer::append
  // reads past a template.
  Plan plan;
  std::size_t size = align_up(sizeof(Plan), alignof(PlanInsn));
  plan.insns_at = static_cast<u16>(size);
  size += (n + 1) * sizeof(PlanInsn);
  plan.template_at = static_cast<u16>(size);
  size += template_size + Writer::kAppendSlack;
  std::unique_ptr<u8[]> slot(new u8[size]);
  new (slot.get()) Plan(plan);
  std::memcpy(slot.get() + plan.insns_at, insns, (n + 1) * sizeof(PlanInsn));
  std::memcpy(slot.get() + plan.template_at, bytes, template_size);
  install(tb.start, std::move(slot));
}

void TraceRecorder::install(u32 start, std::unique_ptr<u8[]> slot) {
  start &= ~u32{1};
  if (plan_at_.empty()) plan_base_ = start;
  if (start < plan_base_) {
    const std::size_t shift = (plan_base_ - start) / 2;
    std::vector<std::unique_ptr<u8[]>> grown(shift + plan_at_.size());
    std::move(plan_at_.begin(), plan_at_.end(), grown.begin() + shift);
    plan_at_.swap(grown);
    plan_base_ = start;
  }
  const std::size_t index = (start - plan_base_) / 2;
  if (index >= plan_at_.size()) plan_at_.resize(index + 1);
  std::unique_ptr<u8[]>& entry = plan_at_[index];
  if (reinterpret_cast<const Plan*>(entry.get()) == plan_) {
    replaced_ = std::move(entry);
  }
  entry = std::move(slot);
}

void TraceRecorder::catch_up(u64 icount, u32 next_pc) {
  if (icount <= accounted_) return;
  u64 remaining = icount - accounted_;
  accounted_ = icount;
  flush_pending(nullptr);
  if (plan_ == nullptr) {
    lose_track();
    return;
  }
  const PlanInsn* insns = plan_->insns();
  const u32 stop = insns[pos_].stop;
  if (stop != pos_) {
    const u32 to =
        remaining < stop - pos_ ? pos_ + static_cast<u32>(remaining) : stop;
    emit_static(pos_, to);
    instructions_ += to - pos_;
    remaining -= to - pos_;
    pos_ = to;
    cursor_ = insns[to].pc;
    if (remaining == 0) return;
  }
  // Of the rest, only control flow that ends the block may run unobserved:
  // `next_pc` is where it went.
  const PlanInsn& insn = insns[pos_];
  if (remaining != 1 || !is_exit(insn.kind)) {
    lose_track();
    return;
  }
  flush_run();
  if (insn.kind == Kind::kJalr) {
    writer_.jump(cursor_, next_pc);
    cursor_ = next_pc;
  } else if (insn.kind == Kind::kMret) {
    writer_.mret(cursor_, next_pc);
    cursor_ = next_pc;
  } else if (next_pc == cursor_ + static_cast<u32>(insn.imm)) {
    writer_.branch_taken(cursor_, next_pc);
    cursor_ = next_pc;
  } else {
    writer_.branch_not_taken(insn.length);
    advance(insn.length);
  }
  ++instructions_;
  ++pos_;
}

void TraceRecorder::emit_static(u32 from, u32 to) {
  const PlanInsn* insns = plan_->insns();
  const u8* bytes = plan_->at(plan_->template_at);
  // A plain run that `to` cuts, or that a pending instruction follows,
  // stays open in the RLE state until the next event (as a per-instruction
  // walk keeps it, so stream_size() agrees); every other event is written
  // whole.
  const bool hold =
      is_static(insns[to].kind) || insns[to].kind == Kind::kPending;
  const u32 last = to - 1;
  const u32 whole_end =
      hold && insns[last].kind == Kind::kPlain ? insns[last].event : to;
  while (from < to) {
    if (insns[from].event == from && whole_end > from) {
      // Whole events, copied from the template.
      flush_run();
      writer_.append(bytes + insns[from].bytes,
                     insns[whole_end].bytes - insns[from].bytes);
      from = whole_end;
      continue;
    }
    // A run entered after its head, or held open: the RLE state merges it
    // with the run's other part when no event falls between them.
    u32 end = from + 1;
    while (end < to && insns[end].event == insns[from].event) ++end;
    add_run(insns[from].length, end - from);
    from = end;
  }
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
  plan_ = plan_at(tb_start);
  pos_ = 0;
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

const TraceRecorder::PlanInsn* TraceRecorder::begin_insn(u64 icount,
                                                         u32 pc) {
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
  if (plan_ != nullptr) {
    const PlanInsn& insn = plan_->insns()[pos_];
    if (insn.kind != Kind::kEnd && insn.pc == pc) {
      ++pos_;
      return &insn;
    }
  }
  plan_ = nullptr;
  return nullptr;
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
  const bool store = event.is_store != 0;
  const bool mmio = !(event.vaddr >= config_.ram_base &&
                      event.vaddr - config_.ram_base <=
                          config_.ram_size - event.size);
  // The count includes the accessing instruction. A load or store has no
  // insn_exec request: it is accounted here, and its access completes its
  // event (an AMO is pending already).
  const u64 icount = s4e_icount(vm());
  const bool opened = accounted_ < icount;
  const PlanInsn* insn = nullptr;
  if (opened) {
    insn = begin_insn(icount - 1, event.pc);
  } else if (!pending_ || pending_->mem_count >= 2) {
    return;
  }
  if (mmio) {
    // CLINT and GPIO state is a function of modelled time; the UART and the
    // test finisher are not. CLINT *stores* arm interrupts whose delivery
    // point is cycle-exact, so they taint too.
    if (event.vaddr - vp::Clint::kDefaultBase < vp::Clint::kWindowSize) {
      taint_at(store ? TaintKind::kClintStore : TaintKind::kClintLoad);
    } else if (!store &&
               event.vaddr - vp::Gpio::kDefaultBase < vp::Gpio::kWindowSize) {
      taint_at(TaintKind::kGpioLoad);
    }
  }
  if (!opened) {  // the AMO pending since its issue
    pending_->mem[pending_->mem_count++] =
        MemAccess{event.vaddr, event.size, store, mmio};
    return;
  }
  // The instruction kind decides the tag (a store's access is a write).
  const bool is_store = insn != nullptr && insn->kind == Kind::kStore;
  const u32 length = insn != nullptr ? insn->length : 0;
  static constexpr Tag kTags[2][2][2] = {
      {{Tag::kLoad2, Tag::kLoad4}, {Tag::kLoadMmio2, Tag::kLoadMmio4}},
      {{Tag::kStore2, Tag::kStore4}, {Tag::kStoreMmio2, Tag::kStoreMmio4}}};
  flush_run();
  writer_.mem(kTags[is_store][mmio][length == 4], event.vaddr, event.size);
  ++instructions_;
  ++mem_accesses_;
  advance(length);
}

void TraceRecorder::on_trap(const s4e_trap_event& event) {
  const u64 icount = s4e_icount(vm());
  const bool interrupt = (event.cause & 0x8000'0000u) != 0;
  const u32 mtvec = s4e_read_csr(vm(), isa::kCsrMtvec);
  const bool handled = mtvec != 0;
  const u32 handler = mtvec & ~u32{3};  // sync traps: base, never vectored
  // Whatever happens next starts in another block.
  const auto trapped = [&](u8 op_class, u32 length, u32 pc) {
    flush_run();
    writer_.trap_insn(op_class, length, handled, event.cause, pc, handler);
    ++instructions_;
    if (handled) {
      cursor_ = handler;
    } else {
      cursor_valid_ = false;  // run ends here
    }
    plan_ = nullptr;
  };

  // A load or store access fault: the faulting instruction (counted, not
  // requested, no memory event) is accounted here. Every other instruction
  // that traps was requested, so it is accounted already, and a fetch trap
  // or an interrupt has epc = the next PC.
  if ((event.cause == vp::kCauseLoadFault ||
       event.cause == vp::kCauseStoreFault) &&
      accounted_ < icount) {
    const PlanInsn* insn = begin_insn(icount - 1, event.epc);
    const bool store = insn != nullptr && insn->kind == Kind::kStore;
    trapped(static_cast<u8>(store ? OpClass::kStore : OpClass::kLoad),
            insn != nullptr ? insn->length : 0, event.epc);
    return;
  }
  catch_up(icount, event.epc);
  if (!interrupt && pending_ && event.epc == pending_->pc) {
    // Synchronous trap raised by the pending instruction's handler.
    const Pending pending = *pending_;
    pending_.reset();
    trapped(pending.op_class, pending.length, pending.pc);
    return;
  }

  flush_pending(nullptr);
  plan_ = nullptr;
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
