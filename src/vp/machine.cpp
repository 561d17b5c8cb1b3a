#include "vp/machine.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "isa/rvc.hpp"

// The C-API handle just wraps the Machine pointer; defined here so both
// machine.cpp and plugin_api.cpp see the same layout.
struct s4e_vm {
  s4e::vp::Machine* machine;
};

namespace s4e::vp {

using isa::Instr;
using isa::Op;

namespace {

// How an instruction ends its translation block: a body instruction does
// not; the others end it, each leaving it by its own kind of exit (a static
// taken edge, an indirect one through the jump cache, or a trap/stop).
enum class BlockRole : u8 { kBody, kStatic, kIndirect, kSystem };

BlockRole block_role(Op op) noexcept {
  switch (op) {
    case Op::kJal: return BlockRole::kStatic;
    case Op::kJalr:
    case Op::kMret: return BlockRole::kIndirect;
    case Op::kEcall:
    case Op::kEbreak:
    // WFI ends its block: the timer interrupt it waits for is only
    // delivered at block boundaries.
    case Op::kWfi: return BlockRole::kSystem;
    default:
      return isa::op_info(op).op_class == isa::OpClass::kBranch
                 ? BlockRole::kStatic
                 : BlockRole::kBody;
  }
}

// The static target of a block ending in `last` (its taken edge), else 0.
u32 taken_pc_of(const DecodedInsn& last) noexcept {
  return block_role(last.op) == BlockRole::kStatic ? last.target : 0;
}

}  // namespace

std::string_view to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kExitEcall: return "exit-ecall";
    case StopReason::kExitTestDevice: return "exit-testdev";
    case StopReason::kExitRequested: return "exit-requested";
    case StopReason::kEbreak: return "ebreak";
    case StopReason::kTrapUnhandled: return "trap-unhandled";
    case StopReason::kMaxInstructions: return "max-instructions";
    case StopReason::kWfiHalt: return "wfi-halt";
    case StopReason::kDebugBreak: return "debug-break";
    case StopReason::kDebugWatch: return "debug-watch";
    case StopReason::kDebugStep: return "debug-step";
    case StopReason::kDebugInterrupt: return "debug-interrupt";
    case StopReason::kDebugSlice: return "debug-slice";
  }
  return "?";
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      timing_(config.timing),
      bus_(config.ram_base, config.ram_size) {
  num_harts_ = std::clamp(config_.num_harts, 1u, Clint::kMaxHarts);
  config_.num_harts = num_harts_;
  if (config_.smp_slice_quantum == 0) config_.smp_slice_quantum = 1;
  smp_ = num_harts_ > 1 || config_.force_slice_scheduler;
  harts_.resize(num_harts_);
  hart_stats_.resize(num_harts_);
  hart_icount_.resize(num_harts_);
  auto uart = std::make_unique<Uart>();
  uart_ = uart.get();
  bus_.add_device(Uart::kDefaultBase, Uart::kWindowSize, std::move(uart));
  auto clint = std::make_unique<Clint>();
  clint_ = clint.get();
  bus_.add_device(Clint::kDefaultBase, Clint::kWindowSize, std::move(clint));
  auto gpio = std::make_unique<Gpio>();
  gpio_ = gpio.get();
  bus_.add_device(Gpio::kDefaultBase, Gpio::kWindowSize, std::move(gpio));
  bus_.add_device(TestDevice::kDefaultBase, TestDevice::kWindowSize,
                  std::make_unique<TestDevice>([this](int code) {
                    if (!pending_stop_) {
                      pending_stop_ = PendingStop{StopReason::kExitTestDevice,
                                                  code, 0, ""};
                    }
                  }));
  vm_handle_ = std::make_unique<s4e_vm>(s4e_vm{this});
  const Bus::RamWindow window = bus_.ram_window();
  ram_data_ = window.data;
  ram_dirty_ = window.dirty;
  ram_base_ = window.base;
  ram_size_ = window.size;
  reset();
}

Machine::~Machine() = default;

s4e_vm* Machine::vm_handle() noexcept { return vm_handle_.get(); }

void Machine::reset() {
  // Stacks grow down from the top of RAM with a 16-byte red zone; SMP harts
  // get staggered stack tops so bare-metal code that never partitions the
  // stack itself still runs (hart 0 keeps the exact single-hart layout).
  const u32 stack_stride =
      num_harts_ > 1 ? (config_.ram_size / (2 * num_harts_)) & ~u32{15} : 0;
  for (unsigned h = 0; h < num_harts_; ++h) {
    Hart& hart = harts_[h];
    hart.cpu = CpuState{};
    hart.cpu.pc = config_.ram_base;
    hart.cpu.write_gpr(2,
                       config_.ram_base + config_.ram_size - 16 -
                           h * stack_stride);
    hart.res_valid = false;
    hart.res_addr = 0;
    hart_stats_[h] = EngineStats{};
    hart_icount_[h] = 0;
  }
  active_hart_ = 0;
  cpu_ = harts_[0].cpu;
  clear_forced();
  cycle_.disarm();
  reservations_active_ = 0;
  slice_start_icount_ = 0;
  slice_end_ = smp_ ? config_.smp_slice_quantum : 0;
  icount_ = 0;
  cycles_ = 0;
  pending_stop_.reset();
  debug_stop_request_ = false;
  chain_epoch_recheck_ = false;
  estats_ = EngineStats{};
  update_debug_check();
  tb_cache_.flush();
  icache_.reset(config_.timing);
  bimodal_.reset();
  bus_.reset_devices();
}

void Machine::sync_active_hart() {
  harts_[active_hart_].cpu = cpu_;
  hart_stats_[active_hart_] = estats_;
  hart_icount_[active_hart_] += icount_ - slice_start_icount_;
  slice_start_icount_ = icount_;
}

void Machine::rotate_hart() {
  sync_active_hart();
  active_hart_ = (active_hart_ + 1) % num_harts_;
  cpu_ = harts_[active_hart_].cpu;
  estats_ = hart_stats_[active_hart_];
  slice_end_ = saturating_add(icount_, config_.smp_slice_quantum);
  // The incoming hart's mie/mstatus may gate the fast path differently.
  chain_epoch_recheck_ = true;
}

void Machine::clear_remote_reservations(u32 address, unsigned size) noexcept {
  for (unsigned h = 0; h < num_harts_; ++h) {
    if (h == active_hart_) continue;
    Hart& hart = harts_[h];
    if (hart.res_valid && address < hart.res_addr + 4 &&
        address + size > hart.res_addr) {
      hart.res_valid = false;
      --reservations_active_;
    }
  }
}

void Machine::save_state(Snapshot& snap) {
  save_core(snap);
  snap.base = nullptr;
  snap.ram_delta = RamDelta{};
  snap_stats_.pages_saved += bus_.ram_snapshot(snap.ram);
  ++snap_stats_.snapshots;
}

void Machine::save_rung(Snapshot& snap, const Snapshot& base) {
  S4E_CHECK_MSG(base.valid && base.base == nullptr,
                "a rung needs a full snapshot as its base");
  save_core(snap);
  snap.base = &base;
  snap.ram = RamImage{};
  snap_stats_.rung_pages += bus_.ram_capture(snap.ram_delta, true);
  ++snap_stats_.rungs;
}

void Machine::save_core(Snapshot& snap) {
  sync_active_hart();
  snap.harts = harts_;
  snap.active_hart = active_hart_;
  snap.slice_end = slice_end_;
  snap.slice_start_icount = slice_start_icount_;
  snap.hart_icount = hart_icount_;
  snap.icount = icount_;
  snap.cycles = cycles_;
  snap.icache_misses = icache_.misses();
  snap.icache_tags = icache_.tags();
  snap.bimodal = bimodal_.table();
  bus_.save_device_state(snap.device_state);
  snap.valid = true;
}

void Machine::restore_state(const Snapshot& snap) {
  S4E_CHECK_MSG(snap.valid, "restore from an empty Snapshot");
  S4E_CHECK_MSG(snap.harts.size() == harts_.size(),
                "snapshot hart count mismatch");
  harts_ = snap.harts;
  active_hart_ = snap.active_hart;
  slice_end_ = snap.slice_end;
  slice_start_icount_ = snap.slice_start_icount;
  hart_icount_ = snap.hart_icount;
  reservations_active_ = 0;
  for (const Hart& hart : harts_) {
    if (hart.res_valid) ++reservations_active_;
  }
  cpu_ = harts_[active_hart_].cpu;
  icount_ = snap.icount;
  cycles_ = snap.cycles;
  icache_.restore(snap.icache_tags, snap.icache_misses);
  bimodal_.table() = snap.bimodal;
  pending_stop_.reset();
  // Maintenance the run requested but did not reach a block boundary to
  // apply (a budget stop, an exit callback) is applied, not discarded: only
  // then was every cached block translated from the bytes now in RAM.
  if (tb_maint_pending_) apply_tb_maintenance();
  chain_epoch_recheck_ = false;
  scratch_block_.reset();
  // Only the code bytes the restore changes go through code_changed; a data
  // store that dirtied a code page leaves that page's translations alone.
  restore_changes_.clear();
  const bool rung = snap.base != nullptr;
  snap_stats_.pages_copied += bus_.ram_restore(
      rung ? snap.base->ram : snap.ram, rung ? &snap.ram_delta : nullptr,
      tb_cache_.code_extent(), restore_changes_);
  if (rung) {
    ++snap_stats_.fast_forwards;
    snap_stats_.prefix_insns += snap.icount;
  }
  snap_stats_.pages_total += bus_.ram_pages();
  const TbCache::CodeChange change = code_changed(restore_changes_);
  snap_stats_.tb_blocks_invalidated += change.dropped;
  snap_stats_.tb_blocks_relowered += change.relowered;
  bus_.restore_device_state(snap.device_state);
  clear_forced();
  cycle_.disarm();
  ++snap_stats_.restores;
}

void Machine::clear_forced() noexcept {
  cpu_.unforce();
  for (Hart& hart : harts_) hart.cpu.unforce();
  forced_mem_ = ForcedByte{};
}

bool Machine::force_gpr_bit(unsigned hart, unsigned reg, unsigned bit,
                            bool value) noexcept {
  if (hart >= num_harts_ || reg == 0 || reg >= isa::kGprCount || bit > 31) {
    return false;
  }
  cpu(hart).force_bit(reg, bit, value);
  return true;
}

bool Machine::force_mem_bit(u32 address, unsigned bit, bool value) {
  if (bit > 7 || !bus_.is_ram(address, 1)) return false;
  if (forced_mem_.byte != nullptr && forced_mem_.address != address) {
    return false;
  }
  const u8 mask = static_cast<u8>(1u << bit);
  forced_mem_.byte = ram_data_ + (address - ram_base_);
  forced_mem_.address = address;
  forced_mem_.keep = static_cast<u8>(forced_mem_.keep & ~mask);
  forced_mem_.set = static_cast<u8>(value ? (forced_mem_.set | mask)
                                          : (forced_mem_.set & ~mask));
  const u8 forced = static_cast<u8>((*forced_mem_.byte & forced_mem_.keep) |
                                    forced_mem_.set);
  if (forced != *forced_mem_.byte) {
    // Through the bus, so the page is marked dirty only when the byte
    // actually changes.
    (void)bus_.ram_write(address, &forced, 1);
    if (tb_cache_.overlaps_code(address, 1)) request_tb_invalidate(address, 1);
  }
  return true;
}

void Machine::add_breakpoint(u32 address) {
  if (!breakpoints_.insert(address).second) return;
  // A block translated before this insert may carry the breakpointed
  // instruction mid-block where the dispatch check cannot see it; drop any
  // such block so retranslation splits at the breakpoint.
  tb_cache_.invalidate_range(address, 2);
  scratch_block_.reset();
  update_debug_check();
}

bool Machine::remove_breakpoint(u32 address) {
  if (breakpoints_.erase(address) == 0) return false;
  // Let the splits around the removed breakpoint re-merge into full blocks.
  tb_cache_.invalidate_range(address, 2);
  scratch_block_.reset();
  update_debug_check();
  return true;
}

bool Machine::has_breakpoint(u32 address) const noexcept {
  return breakpoints_.count(address) != 0;
}

void Machine::clear_breakpoints() {
  for (u32 address : breakpoints_) tb_cache_.invalidate_range(address, 2);
  breakpoints_.clear();
  scratch_block_.reset();
  update_debug_check();
}

void Machine::add_watchpoint(u32 address, u32 length, WatchKind kind) {
  const Watchpoint wp{address, length == 0 ? 1 : length, kind};
  for (const Watchpoint& existing : watchpoints_) {
    if (existing == wp) return;
  }
  watchpoints_.push_back(wp);
  update_mem_slow();
}

bool Machine::remove_watchpoint(u32 address, u32 length, WatchKind kind) {
  const Watchpoint wp{address, length == 0 ? 1 : length, kind};
  for (auto it = watchpoints_.begin(); it != watchpoints_.end(); ++it) {
    if (*it == wp) {
      watchpoints_.erase(it);
      update_mem_slow();
      return true;
    }
  }
  return false;
}

void Machine::clear_watchpoints() {
  watchpoints_.clear();
  update_mem_slow();
}

void Machine::check_watchpoints(u32 address, unsigned size, bool is_store) {
  if (pending_stop_) return;
  for (const Watchpoint& wp : watchpoints_) {
    const bool kind_matches =
        wp.kind == WatchKind::kAccess ||
        (is_store ? wp.kind == WatchKind::kWrite
                  : wp.kind == WatchKind::kRead);
    if (!kind_matches) continue;
    if (address < wp.address + wp.length && address + size > wp.address) {
      PendingStop stop{StopReason::kDebugWatch, 0, 0,
                       format("watchpoint at 0x%08x (%s access to 0x%08x)",
                              wp.address,
                              is_store ? "store" : "load", address),
                       address, wp.kind};
      pending_stop_ = std::move(stop);
      return;
    }
  }
}

void Machine::clear_plugins() noexcept {
  const bool hooked = !tb_exec_cbs_.empty() || !insn_exec_cbs_.empty() ||
                      !insn_requests_.empty();
  tb_trans_cbs_.clear();
  tb_exec_cbs_.clear();
  insn_exec_cbs_.clear();
  mem_cbs_.clear();
  trap_cbs_.clear();
  exit_cbs_.clear();
  icount_cbs_.clear();
  icount_cb_at_ = ~u64{0};
  insn_requests_.clear();
  update_mem_slow();
  if (hooked) {
    // Unhook every warm translation in place; then no site is in use.
    rehook_translations(false);
    hook_sites_.resize(1);
    hook_site_index_.clear();
  }
}

Status Machine::load_program(const assembler::Program& program) {
  for (const auto& section : program.sections) {
    if (section.bytes.empty()) continue;
    S4E_TRY_STATUS(bus_.ram_write(section.base, section.bytes.data(),
                                  static_cast<u32>(section.bytes.size())));
  }
  // Every hart starts at the entry point; SMP programs branch on mhartid.
  cpu_.pc = program.entry;
  for (Hart& hart : harts_) hart.cpu.pc = program.entry;
  tb_cache_.flush();
  return Status();
}

TranslationBlock* Machine::translate(u32 pc) {
  auto block = std::make_unique<TranslationBlock>();
  block->start = pc;
  std::vector<Instr> insns;
  u32 address = pc;
  while (insns.size() < TbCache::kMaxBlockInsns) {
    // A debug breakpoint must sit at a block head so the per-block dispatch
    // check can stop before executing it: end the block when the *next*
    // instruction is breakpointed. (A breakpoint at the block's own start is
    // fine — dispatch already stopped there, or we are resuming over it.)
    if (!breakpoints_.empty() && !insns.empty() &&
        breakpoints_.count(address) != 0) {
      break;
    }
    // Fetch the first 16-bit parcel to distinguish RVC from 32-bit forms.
    auto half = bus_.fetch_half(address);
    if (!half.ok()) {
      if (insns.empty()) {
        // Instruction access fault at the block head.
        take_fetch_trap(1 /* instruction access fault */, address);
        return nullptr;
      }
      break;  // fault will be taken when (if) execution reaches it
    }
    const bool compressed = isa::is_compressed(static_cast<u16>(*half));
    u32 bits = *half;
    bool fetched = true;
    if (!compressed) {
      auto word = bus_.fetch_word(address);
      fetched = word.ok();
      if (fetched) bits = *word;
    }
    auto instr = isa::decode_parcel(bits);
    if (!fetched || !instr.ok()) {
      if (insns.empty()) {
        take_fetch_trap(kCauseIllegalInstruction, bits);
        return nullptr;
      }
      block->cut_bytes = compressed ? 2 : 4;
      break;
    }
    insns.push_back(*instr);
    address += instr->length;
    if (block_role(instr->op) != BlockRole::kBody) break;
  }
  block->byte_size = address - pc;
  lower_block(*block, insns);

  std::vector<u64> requests;
  if (!tb_trans_cbs_.empty()) {
    std::vector<s4e_insn_info> infos;
    infos.reserve(block->code.size());
    for (const DecodedInsn& d : block->code) infos.push_back(to_insn_info(d));
    s4e_tb_info tb_info{block->start, static_cast<u32>(infos.size()),
                        infos.data()};
    requests.assign(infos.size(), 0);
    trans_requests_ = &requests;
    for (const auto& reg : tb_trans_cbs_) {
      reg.callback(reg.userdata, vm_handle(), &tb_info);
    }
    trans_requests_ = nullptr;
  }
  if (!requests.empty() || !insn_exec_cbs_.empty() || !tb_exec_cbs_.empty()) {
    for (std::size_t i = 0; i < block->code.size(); ++i) {
      DecodedInsn& d = block->code[i];
      set_hooks(d, d.fn, requests.empty() ? 0 : requests[i]);
    }
  }

  if (config_.enable_tb_cache) {
    return tb_cache_.insert(std::move(block));
  }
  // Uncached (pure-interpreter ablation): hand the block to a scratch slot.
  scratch_block_ = std::move(block);
  return scratch_block_.get();
}

void Machine::take_trap(u32 cause, u32 tval, bool interrupt) {
  if (!trap_cbs_.empty()) {
    s4e_trap_event event{cause | (interrupt ? kCauseInterrupt : 0u),
                         cpu_.pc, tval};
    for (const auto& reg : trap_cbs_) {
      reg.callback(reg.userdata, vm_handle(), &event);
    }
  }
  CsrFile& csr = cpu_.csr;
  if (csr.mtvec == 0) {
    // No handler installed: stop the simulation (fault campaigns classify
    // this as a crash).
    if (!pending_stop_) {
      StopReason reason = StopReason::kTrapUnhandled;
      if (!interrupt && cause == kCauseBreakpoint) reason = StopReason::kEbreak;
      pending_stop_ = PendingStop{
          reason, -1, cause | (interrupt ? kCauseInterrupt : 0u),
          format("unhandled trap cause=%u tval=0x%08x at pc=0x%08x", cause,
                 tval, cpu_.pc)};
    }
    return;
  }
  csr.mcause = cause | (interrupt ? kCauseInterrupt : 0u);
  csr.mepc = cpu_.pc;
  csr.mtval = tval;
  // Push MIE -> MPIE, clear MIE.
  const bool mie = (csr.mstatus & kMstatusMie) != 0;
  csr.mstatus &= ~(kMstatusMie | kMstatusMpie);
  if (mie) csr.mstatus |= kMstatusMpie;
  const u32 base = csr.mtvec & ~u32{3};
  const bool vectored = (csr.mtvec & 3) == 1;
  cpu_.pc = (vectored && interrupt) ? base + 4 * cause : base;
  cycles_ += timing_.params().trap_cycles;
}

void Machine::take_fetch_trap(u32 cause, u32 tval) {
  const u32 pc = cpu_.pc;
  take_trap(cause, tval, false);
  if (!pending_stop_ && cpu_.pc == pc) {
    pending_stop_ = PendingStop{
        StopReason::kTrapUnhandled, -1, cause,
        format("trap handler at pc=0x%08x cannot be fetched (cause=%u "
               "tval=0x%08x)",
               pc, cause, tval)};
  }
}

u32 Machine::mirrored_mip() const noexcept {
  u32 mip = cpu_.csr.mip & ~(kMipMtip | kMipMsip);
  if (clint_->timer_pending(active_hart_)) mip |= kMipMtip;
  if (clint_->software_pending(active_hart_)) mip |= kMipMsip;
  return mip;
}

void Machine::check_interrupts() {
  cpu_.csr.mip = mirrored_mip();
  if ((cpu_.csr.mstatus & kMstatusMie) == 0) return;
  const u32 pending = cpu_.csr.mie & cpu_.csr.mip;
  // Architectural priority: software interrupts before timer.
  if ((pending & kMipMsip) != 0) {
    take_trap(3, 0, true);
  } else if ((pending & kMipMtip) != 0) {
    take_trap(7, 0, true);
  }
}

void Machine::probe_icache(u32 block_pc) {
  if (!icache_.enabled()) return;
  if (icache_.probe(block_pc)) {
    cycles_ += timing_.params().icache_miss_cycles;
  }
}

void Machine::fire_mem_cb(u32 pc, u32 vaddr, u32 value, unsigned size,
                          bool is_store) {
  // The chained loop leaves cpu_.pc stale inside a block; callbacks read
  // the accessing instruction's pc, as in the careful loop. (The handler
  // sets cpu_.pc again after the access.)
  cpu_.pc = pc;
  s4e_mem_event event{pc, vaddr, value, static_cast<u8>(size),
                      static_cast<u8>(is_store ? 1 : 0)};
  for (const auto& reg : mem_cbs_) {
    reg.callback(reg.userdata, vm_handle(), &event);
  }
}

// ---------------------------------------------------------------------------
// Threaded-dispatch execution engine.
//
// Every instruction is lowered at translate time into a DecodedInsn carrying
// a direct handler pointer (see exec_engine.hpp); the per-instruction switch
// the old engine paid on every execution is gone from the hot path. The
// handlers below replicate the old Machine::execute semantics exactly —
// operand order, trap-entry pc, stop-path pc, and the single timing charge
// per instruction (precomputed as c_fall/c_taken/c_mmio) are all preserved,
// which is what keeps chained and unchained execution bit-identical.
//
// Handler contract:
//   kNext          fell through; cpu_.pc was NOT updated (the fast loop
//                  skips the store; the careful loop writes d.link).
//                  Handlers that can also stop (loads/stores) write d.link
//                  themselves before returning kNext — a harmless re-store.
//   kTakenStatic / kTakenIndirect / kStop
//                  the handler set cpu_.pc (for traps: before take_trap, so
//                  mepc and the trap-callback pc are exact).

namespace {

struct CmpEq {
  static bool eval(u32 a, u32 b) noexcept { return a == b; }
};
struct CmpNe {
  static bool eval(u32 a, u32 b) noexcept { return a != b; }
};
struct CmpLt {
  static bool eval(u32 a, u32 b) noexcept {
    return static_cast<i32>(a) < static_cast<i32>(b);
  }
};
struct CmpGe {
  static bool eval(u32 a, u32 b) noexcept {
    return static_cast<i32>(a) >= static_cast<i32>(b);
  }
};
struct CmpLtu {
  static bool eval(u32 a, u32 b) noexcept { return a < b; }
};
struct CmpGeu {
  static bool eval(u32 a, u32 b) noexcept { return a >= b; }
};

// AMO combine functions: eval(old_memory_value, rs2) -> value stored back.
struct AmoSwap {
  static u32 eval(u32, u32 b) noexcept { return b; }
};
struct AmoAdd {
  static u32 eval(u32 a, u32 b) noexcept { return a + b; }
};
struct AmoXor {
  static u32 eval(u32 a, u32 b) noexcept { return a ^ b; }
};
struct AmoOr {
  static u32 eval(u32 a, u32 b) noexcept { return a | b; }
};
struct AmoAnd {
  static u32 eval(u32 a, u32 b) noexcept { return a & b; }
};
struct AmoMin {
  static u32 eval(u32 a, u32 b) noexcept {
    return static_cast<i32>(a) < static_cast<i32>(b) ? a : b;
  }
};
struct AmoMax {
  static u32 eval(u32 a, u32 b) noexcept {
    return static_cast<i32>(a) > static_cast<i32>(b) ? a : b;
  }
};
struct AmoMinu {
  static u32 eval(u32 a, u32 b) noexcept { return a < b ? a : b; }
};
struct AmoMaxu {
  static u32 eval(u32 a, u32 b) noexcept { return a > b ? a : b; }
};

}  // namespace

struct ExecOps {
  using O = ExecOutcome;

#define S4E_DEF_ALU(NAME, EXPR)                               \
  static O NAME(Machine& m, const DecodedInsn& d) {           \
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);                   \
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);                   \
    const i32 srs1 = static_cast<i32>(rs1);                   \
    const i32 srs2 = static_cast<i32>(rs2);                   \
    (void)rs1, (void)rs2, (void)srs1, (void)srs2;             \
    m.cpu_.write_gpr(d.rd, (EXPR));                           \
    m.cycles_ += d.c_fall;                                    \
    return O::kNext;                                          \
  }

  S4E_DEF_ALU(lui, static_cast<u32>(d.imm))
  S4E_DEF_ALU(auipc, d.pc + static_cast<u32>(d.imm))
  S4E_DEF_ALU(addi, rs1 + static_cast<u32>(d.imm))
  S4E_DEF_ALU(slti, srs1 < d.imm ? 1u : 0u)
  S4E_DEF_ALU(sltiu, rs1 < static_cast<u32>(d.imm) ? 1u : 0u)
  S4E_DEF_ALU(xori, rs1 ^ static_cast<u32>(d.imm))
  S4E_DEF_ALU(ori, rs1 | static_cast<u32>(d.imm))
  S4E_DEF_ALU(andi, rs1 & static_cast<u32>(d.imm))
  S4E_DEF_ALU(slli, rs1 << d.rs2)
  S4E_DEF_ALU(srli, rs1 >> d.rs2)
  S4E_DEF_ALU(srai, static_cast<u32>(srs1 >> d.rs2))
  S4E_DEF_ALU(add, rs1 + rs2)
  S4E_DEF_ALU(sub, rs1 - rs2)
  S4E_DEF_ALU(sll, rs1 << (rs2 & 31))
  S4E_DEF_ALU(slt, srs1 < srs2 ? 1u : 0u)
  S4E_DEF_ALU(sltu, rs1 < rs2 ? 1u : 0u)
  S4E_DEF_ALU(xor_, rs1 ^ rs2)
  S4E_DEF_ALU(srl, rs1 >> (rs2 & 31))
  S4E_DEF_ALU(sra, static_cast<u32>(srs1 >> (rs2 & 31)))
  S4E_DEF_ALU(or_, rs1 | rs2)
  S4E_DEF_ALU(and_, rs1 & rs2)
  S4E_DEF_ALU(mul, rs1 * rs2)
  S4E_DEF_ALU(mulh, static_cast<u32>(
                        (static_cast<i64>(srs1) * static_cast<i64>(srs2)) >> 32))
  S4E_DEF_ALU(mulhsu,
              static_cast<u32>((static_cast<i64>(srs1) *
                                static_cast<i64>(static_cast<u64>(rs2))) >> 32))
  S4E_DEF_ALU(mulhu, static_cast<u32>(
                         (static_cast<u64>(rs1) * static_cast<u64>(rs2)) >> 32))
#undef S4E_DEF_ALU

  static O div_(Machine& m, const DecodedInsn& d) {
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);
    u32 out;
    if (rs2 == 0) {
      out = ~u32{0};
    } else if (rs1 == 0x8000'0000u && rs2 == ~u32{0}) {
      out = 0x8000'0000u;  // overflow
    } else {
      out = static_cast<u32>(static_cast<i32>(rs1) / static_cast<i32>(rs2));
    }
    m.cpu_.write_gpr(d.rd, out);
    m.cycles_ += d.c_fall + m.timing_.divide_cycles(rs1);
    return O::kNext;
  }
  static O divu(Machine& m, const DecodedInsn& d) {
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);
    m.cpu_.write_gpr(d.rd, rs2 == 0 ? ~u32{0} : rs1 / rs2);
    m.cycles_ += d.c_fall + m.timing_.divide_cycles(rs1);
    return O::kNext;
  }
  static O rem(Machine& m, const DecodedInsn& d) {
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);
    u32 out;
    if (rs2 == 0) {
      out = rs1;
    } else if (rs1 == 0x8000'0000u && rs2 == ~u32{0}) {
      out = 0;
    } else {
      out = static_cast<u32>(static_cast<i32>(rs1) % static_cast<i32>(rs2));
    }
    m.cpu_.write_gpr(d.rd, out);
    m.cycles_ += d.c_fall + m.timing_.divide_cycles(rs1);
    return O::kNext;
  }
  static O remu(Machine& m, const DecodedInsn& d) {
    const u32 rs1 = m.cpu_.read_gpr(d.rs1);
    const u32 rs2 = m.cpu_.read_gpr(d.rs2);
    m.cpu_.write_gpr(d.rd, rs2 == 0 ? rs1 : rs1 % rs2);
    m.cycles_ += d.c_fall + m.timing_.divide_cycles(rs1);
    return O::kNext;
  }

  static O fence(Machine& m, const DecodedInsn& d) {
    m.cycles_ += d.c_fall;
    return O::kNext;
  }

  static O jal(Machine& m, const DecodedInsn& d) {
    m.cpu_.write_gpr(d.rd, d.link);
    m.cycles_ += d.c_taken;
    m.cpu_.pc = d.target;
    return O::kTakenStatic;
  }
  static O jalr(Machine& m, const DecodedInsn& d) {
    const u32 target =
        (m.cpu_.read_gpr(d.rs1) + static_cast<u32>(d.imm)) & ~u32{1};
    m.cpu_.write_gpr(d.rd, d.link);
    m.cycles_ += d.c_taken;
    m.cpu_.pc = target;
    return O::kTakenIndirect;
  }

  template <typename Cmp, bool kPredictor>
  static O branch(Machine& m, const DecodedInsn& d) {
    const bool taken = Cmp::eval(m.cpu_.read_gpr(d.rs1), m.cpu_.read_gpr(d.rs2));
    bool penalize = taken;
    if constexpr (kPredictor) {
      // Bimodal 2-bit predictor: penalty only on mispredicts (in either
      // direction); the table is indexed by the branch PC.
      penalize = m.bimodal_.mispredict(d.pc, taken);
    }
    m.cycles_ += penalize ? d.c_taken : d.c_fall;
    if (taken) {
      m.cpu_.pc = d.target;
      return O::kTakenStatic;
    }
    return O::kNext;
  }

  template <unsigned kSize, unsigned kSignBits>
  static O load(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1) + static_cast<u32>(d.imm);
    const u32 offset = address - m.ram_base_;
    if (!m.mem_slow_ && offset <= m.ram_size_ - kSize) [[likely]] {
      const u8* p = m.ram_data_ + offset;
      u32 value;
      if constexpr (kSize == 1) {
        value = p[0];
      } else if constexpr (kSize == 2) {
        value = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8);
      } else {
        value = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
                (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
      }
      if constexpr (kSignBits != 0) {
        value = static_cast<u32>(sign_extend(value, kSignBits));
      }
      m.cpu_.write_gpr(d.rd, value);
      m.cycles_ += d.c_fall;
      return O::kNext;
    }
    return slow_load<kSize, kSignBits>(m, d, address);
  }

  template <unsigned kSize, unsigned kSignBits>
  static O slow_load(Machine& m, const DecodedInsn& d, u32 address) {
    // Devices are ticked on demand before an MMIO data access, so a guest
    // mtime read (or any time-derived device state) is exact at the access
    // cycle in every dispatch mode — the chained engine would otherwise
    // observe device time only at chain exits.
    if (!m.bus_.is_ram(address, kSize)) m.bus_.tick(m.cycles_);
    auto result = m.bus_.read(address, kSize);
    if (!result.ok()) {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseLoadFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    u32 value = result->value;
    if constexpr (kSignBits != 0) {
      value = static_cast<u32>(sign_extend(value, kSignBits));
    }
    m.cpu_.write_gpr(d.rd, value);
    if (result->mmio) ++m.unseen_inputs_;
    if (!m.mem_cbs_.empty()) m.fire_mem_cb(d.pc, address, value, kSize, false);
    if (!m.watchpoints_.empty()) m.check_watchpoints(address, kSize, false);
    m.cycles_ += result->mmio ? d.c_mmio : d.c_fall;
    m.cpu_.pc = d.link;
    return (m.pending_stop_ || m.tb_maint_pending_) ? O::kStop : O::kNext;
  }

  template <unsigned kSize>
  static O store(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1) + static_cast<u32>(d.imm);
    const u32 value = m.cpu_.read_gpr(d.rs2) &
                      (kSize == 4 ? ~u32{0} : (u32{1} << (8 * kSize)) - 1);
    const u32 offset = address - m.ram_base_;
    if (!m.mem_slow_ && offset <= m.ram_size_ - kSize) [[likely]] {
      u8* p = m.ram_data_ + offset;
      p[0] = static_cast<u8>(value);
      if constexpr (kSize >= 2) p[1] = static_cast<u8>(value >> 8);
      if constexpr (kSize == 4) {
        p[2] = static_cast<u8>(value >> 16);
        p[3] = static_cast<u8>(value >> 24);
      }
      // Inline dirty marking — must match Bus::RamRegion::mark_dirty
      // exactly or snapshot restores would miss pages.
      const u32 first_page = offset / kRamPageBytes;
      const u32 last_page = (offset + kSize - 1) / kRamPageBytes;
      m.ram_dirty_[first_page >> 6] |= u64{1} << (first_page & 63);
      if (last_page != first_page) {
        m.ram_dirty_[last_page >> 6] |= u64{1} << (last_page & 63);
      }
      if (m.reservations_active_ != 0) [[unlikely]] {
        m.clear_remote_reservations(address, kSize);
      }
      m.note_ram_written(address, kSize);
      m.cycles_ += d.c_fall;
      if (m.tb_cache_.overlaps_code(address, kSize)) [[unlikely]] {
        // Self-modifying code: drop the overlapping translations at the
        // block boundary.
        m.request_tb_invalidate(address, kSize);
        m.cpu_.pc = d.link;
        return O::kStop;
      }
      return O::kNext;
    }
    return slow_store<kSize>(m, d, address, value);
  }

  template <unsigned kSize>
  static O slow_store(Machine& m, const DecodedInsn& d, u32 address,
                      u32 value) {
    if (!m.bus_.is_ram(address, kSize)) m.bus_.tick(m.cycles_);
    auto result = m.bus_.write(address, kSize, value);
    if (!result.ok()) {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const bool mmio = *result;
    if (mmio) ++m.unseen_inputs_;
    if (!mmio && m.reservations_active_ != 0) {
      m.clear_remote_reservations(address, kSize);
    }
    if (!mmio) m.note_ram_written(address, kSize);
    if (!m.mem_cbs_.empty()) m.fire_mem_cb(d.pc, address, value, kSize, true);
    if (!m.watchpoints_.empty()) m.check_watchpoints(address, kSize, true);
    if (!mmio && m.tb_cache_.overlaps_code(address, kSize)) {
      m.request_tb_invalidate(address, kSize);
    }
    m.cycles_ += mmio ? d.c_mmio : d.c_fall;
    m.cpu_.pc = d.link;
    return (m.pending_stop_ || m.tb_maint_pending_) ? O::kStop : O::kNext;
  }

  static O csr_op(Machine& m, const DecodedInsn& d) {
    const CsrFile::CounterView counters = m.counter_view();
    const bool imm_form = d.op == Op::kCsrrwi || d.op == Op::kCsrrsi ||
                          d.op == Op::kCsrrci;
    const u32 operand =
        imm_form ? static_cast<u32>(d.rs2) : m.cpu_.read_gpr(d.rs1);
    const bool is_write_op = d.op == Op::kCsrrw || d.op == Op::kCsrrwi;
    const bool wants_read = !is_write_op || d.rd != 0;
    const bool wants_write =
        is_write_op || (imm_form ? d.rs2 != 0 : d.rs1 != 0);
    if (wants_read && d.csr == isa::kCsrMip) {
      // Keep MTIP and MSIP exact at read time in every dispatch mode: the
      // chained engine ticks devices and polls interrupts only at chain
      // exits, the careful loop only at block dispatch.
      m.clint_->tick(m.cycles_);
      m.cpu_.csr.mip = m.mirrored_mip();
    }
    u32 old_value = 0;
    if (wants_read) {
      if (isa::csr_reads_time(d.csr)) ++m.unseen_inputs_;
      auto value = m.cpu_.csr.read(d.csr, counters);
      if (!value.ok()) {
        m.cpu_.pc = d.pc;
        m.take_trap(kCauseIllegalInstruction, d.raw, false);
        m.cycles_ += d.c_taken;
        return O::kStop;
      }
      old_value = *value;
    }
    if (wants_write) {
      u32 new_value = operand;
      if (d.op == Op::kCsrrs || d.op == Op::kCsrrsi) {
        new_value = old_value | operand;
      } else if (d.op == Op::kCsrrc || d.op == Op::kCsrrci) {
        new_value = old_value & ~operand;
      }
      if (!m.cpu_.csr.write(d.csr, new_value).ok()) {
        m.cpu_.pc = d.pc;
        m.take_trap(kCauseIllegalInstruction, d.raw, false);
        m.cycles_ += d.c_taken;
        return O::kStop;
      }
      // A write that may re-arm the timer interrupt must end the current
      // chain run so the fast-path gate re-evaluates.
      m.note_csr_written(d.csr);
    }
    m.cpu_.write_gpr(d.rd, old_value);
    m.cycles_ += d.c_fall;
    return O::kNext;
  }

  static O ecall(Machine& m, const DecodedInsn& d) {
    m.cpu_.pc = d.pc;
    // Semihosting exit convention: a7 = 93, a0 = exit code.
    if (m.cpu_.read_gpr(17) == 93) {
      m.pending_stop_ = Machine::PendingStop{StopReason::kExitEcall,
                                    static_cast<int>(m.cpu_.read_gpr(10)), 0,
                                    ""};
      // No redirect penalty: the simulation ends here rather than
      // redirecting the front-end (keeps the QTA timeline chain exact).
      m.cycles_ += d.c_fall;
      return O::kStop;
    }
    m.take_trap(kCauseEcallM, 0, false);
    m.cycles_ += d.c_taken;
    return O::kStop;
  }

  static O ebreak(Machine& m, const DecodedInsn& d) {
    m.cpu_.pc = d.pc;
    m.take_trap(kCauseBreakpoint, d.pc, false);
    m.cycles_ += d.c_taken;
    return O::kStop;
  }

  static O mret(Machine& m, const DecodedInsn& d) {
    CsrFile& csr = m.cpu_.csr;
    const u32 target = csr.mepc;
    const bool mpie = (csr.mstatus & kMstatusMpie) != 0;
    csr.mstatus &= ~kMstatusMie;
    if (mpie) csr.mstatus |= kMstatusMie;
    csr.mstatus |= kMstatusMpie;
    m.cycles_ += d.c_taken;
    m.cpu_.pc = target;
    // mret restores MIE, which can arm a pending interrupt: re-evaluate the
    // fast-path gate at the next central dispatch.
    m.chain_epoch_recheck_ = true;
    return O::kTakenIndirect;
  }

  static O wfi(Machine& m, const DecodedInsn& d) {
    ++m.unseen_inputs_;
    if (m.num_harts_ > 1) {
      // SMP: never fast-forward time (other harts are runnable) and never
      // halt the whole machine — yield the rest of the slice and re-check
      // this hart's interrupts when it is scheduled again. A machine where
      // every hart spins in wfi makes icount progress each visit, so the
      // instruction budget still bounds it (the hang detector).
      m.cycles_ += d.c_fall;
      m.slice_end_ = m.icount_;
      m.chain_epoch_recheck_ = true;
      return O::kNext;
    }
    if ((m.cpu_.csr.mie & kMieMtie) != 0 &&
        m.clint_->mtimecmp() != ~u64{0}) {
      // Sleep until the timer fires: fast-forward modelled time.
      if (m.cycles_ < m.clint_->mtimecmp()) m.cycles_ = m.clint_->mtimecmp();
      m.cycles_ += d.c_fall;
      return O::kNext;
    }
    m.cpu_.pc = d.pc;
    m.pending_stop_ = Machine::PendingStop{StopReason::kWfiHalt, 0, 0,
                                  "wfi with timer interrupt disabled"};
    m.cycles_ += d.c_taken;
    return O::kStop;
  }

  // --- RV32A. Atomics operate on the primary RAM window only (reservations
  // and read-modify-write on device registers are not modelled): a non-RAM
  // target raises the load/store access fault the equivalent plain access
  // would, a misaligned one the address-misaligned trap the A extension
  // mandates. The handlers access RAM directly even when mem_slow_ is set,
  // so they fire memory callbacks and watchpoint checks themselves.

  static O lr_w(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1);
    if ((address & 3) != 0) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseLoadMisaligned, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const u32 offset = address - m.ram_base_;
    if (offset > m.ram_size_ - 4) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseLoadFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const u8* p = m.ram_data_ + offset;
    const u32 value = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
                      (static_cast<u32>(p[2]) << 16) |
                      (static_cast<u32>(p[3]) << 24);
    m.cpu_.write_gpr(d.rd, value);
    Hart& hart = m.harts_[m.active_hart_];
    if (!hart.res_valid) ++m.reservations_active_;
    hart.res_valid = true;
    hart.res_addr = address;
    if (m.mem_slow_) [[unlikely]] {
      if (!m.mem_cbs_.empty()) m.fire_mem_cb(d.pc, address, value, 4, false);
      if (!m.watchpoints_.empty()) m.check_watchpoints(address, 4, false);
    }
    m.cycles_ += d.c_fall;
    m.cpu_.pc = d.link;
    return (m.pending_stop_ || m.tb_maint_pending_) ? O::kStop : O::kNext;
  }

  static O sc_w(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1);
    if ((address & 3) != 0) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreMisaligned, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const u32 offset = address - m.ram_base_;
    if (offset > m.ram_size_ - 4) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    // SC consumes this hart's reservation whether or not it succeeds.
    Hart& hart = m.harts_[m.active_hart_];
    const bool success = hart.res_valid && hart.res_addr == address;
    if (hart.res_valid) {
      hart.res_valid = false;
      --m.reservations_active_;
    }
    if (!success) {
      m.cpu_.write_gpr(d.rd, 1);
      m.cycles_ += d.c_fall;
      return O::kNext;
    }
    const u32 value = m.cpu_.read_gpr(d.rs2);
    u8* p = m.ram_data_ + offset;
    p[0] = static_cast<u8>(value);
    p[1] = static_cast<u8>(value >> 8);
    p[2] = static_cast<u8>(value >> 16);
    p[3] = static_cast<u8>(value >> 24);
    const u32 page = offset / kRamPageBytes;
    m.ram_dirty_[page >> 6] |= u64{1} << (page & 63);
    if (m.reservations_active_ != 0) [[unlikely]] {
      m.clear_remote_reservations(address, 4);
    }
    m.note_ram_written(address, 4);
    m.cpu_.write_gpr(d.rd, 0);
    if (m.mem_slow_) [[unlikely]] {
      if (!m.mem_cbs_.empty()) m.fire_mem_cb(d.pc, address, value, 4, true);
      if (!m.watchpoints_.empty()) m.check_watchpoints(address, 4, true);
    }
    m.cycles_ += d.c_fall;
    if (m.tb_cache_.overlaps_code(address, 4)) [[unlikely]] {
      m.request_tb_invalidate(address, 4);
      m.cpu_.pc = d.link;
      return O::kStop;
    }
    m.cpu_.pc = d.link;
    return (m.pending_stop_ || m.tb_maint_pending_) ? O::kStop : O::kNext;
  }

  template <typename OpF>
  static O amo_w(Machine& m, const DecodedInsn& d) {
    const u32 address = m.cpu_.read_gpr(d.rs1);
    if ((address & 3) != 0) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreMisaligned, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    const u32 offset = address - m.ram_base_;
    if (offset > m.ram_size_ - 4) [[unlikely]] {
      m.cpu_.pc = d.pc;
      m.take_trap(kCauseStoreFault, address, false);
      m.cycles_ += d.c_taken;
      return O::kStop;
    }
    u8* p = m.ram_data_ + offset;
    const u32 old = static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
                    (static_cast<u32>(p[2]) << 16) |
                    (static_cast<u32>(p[3]) << 24);
    const u32 next = OpF::eval(old, m.cpu_.read_gpr(d.rs2));
    p[0] = static_cast<u8>(next);
    p[1] = static_cast<u8>(next >> 8);
    p[2] = static_cast<u8>(next >> 16);
    p[3] = static_cast<u8>(next >> 24);
    const u32 page = offset / kRamPageBytes;
    m.ram_dirty_[page >> 6] |= u64{1} << (page & 63);
    if (m.reservations_active_ != 0) [[unlikely]] {
      m.clear_remote_reservations(address, 4);
    }
    m.note_ram_written(address, 4);
    m.cpu_.write_gpr(d.rd, old);
    if (m.mem_slow_) [[unlikely]] {
      if (!m.mem_cbs_.empty()) {
        m.fire_mem_cb(d.pc, address, old, 4, false);   // the read half
        m.fire_mem_cb(d.pc, address, next, 4, true);   // the write half
      }
      if (!m.watchpoints_.empty()) {
        m.check_watchpoints(address, 4, true);
        if (!m.pending_stop_) m.check_watchpoints(address, 4, false);
      }
    }
    m.cycles_ += d.c_fall;
    if (m.tb_cache_.overlaps_code(address, 4)) [[unlikely]] {
      m.request_tb_invalidate(address, 4);
      m.cpu_.pc = d.link;
      return O::kStop;
    }
    m.cpu_.pc = d.link;
    return (m.pending_stop_ || m.tb_maint_pending_) ? O::kStop : O::kNext;
  }

  // An instruction that carries exec callbacks (see Machine::set_hooks).
  // Both dispatch loops bump icount_ before a handler runs; the callbacks
  // see the careful loop's view — the count before this instruction and
  // its own pc. A callback that stops the run or requests TB maintenance
  // ends the block after this instruction, as the careful loop does; one
  // that arms an earlier icount callback ends the chain run at the block's
  // end.
  static O hooked(Machine& m, const DecodedInsn& d) {
    // A copy: a callback may re-lower hooks (subscribe, clear plugins).
    const Machine::HookSite site =
        m.hook_sites_[d.hook & Machine::kHookSiteMask];
    const u64 armed = m.icount_cb_at_;
    --m.icount_;
    m.cpu_.pc = d.pc;
    m.fire_insn_hooks(d, site.requests);
    ++m.icount_;
    if (m.icount_cb_at_ < armed) m.chain_epoch_recheck_ = true;
    const O out = site.fn(m, d);
    if (!m.pending_stop_ && !m.tb_maint_pending_) return out;
    if (out == O::kNext) m.cpu_.pc = d.link;
    return O::kStop;
  }

  template <typename Cmp>
  static ExecHandler pick_branch(bool predictor) {
    return predictor ? &branch<Cmp, true> : &branch<Cmp, false>;
  }

  static ExecHandler select(const Instr& in, bool predictor) {
    switch (in.op) {
      case Op::kLui: return &lui;
      case Op::kAuipc: return &auipc;
      case Op::kJal: return &jal;
      case Op::kJalr: return &jalr;
      case Op::kBeq: return pick_branch<CmpEq>(predictor);
      case Op::kBne: return pick_branch<CmpNe>(predictor);
      case Op::kBlt: return pick_branch<CmpLt>(predictor);
      case Op::kBge: return pick_branch<CmpGe>(predictor);
      case Op::kBltu: return pick_branch<CmpLtu>(predictor);
      case Op::kBgeu: return pick_branch<CmpGeu>(predictor);
      case Op::kLb: return &load<1, 8>;
      case Op::kLh: return &load<2, 16>;
      case Op::kLw: return &load<4, 0>;
      case Op::kLbu: return &load<1, 0>;
      case Op::kLhu: return &load<2, 0>;
      case Op::kSb: return &store<1>;
      case Op::kSh: return &store<2>;
      case Op::kSw: return &store<4>;
      case Op::kAddi: return &addi;
      case Op::kSlti: return &slti;
      case Op::kSltiu: return &sltiu;
      case Op::kXori: return &xori;
      case Op::kOri: return &ori;
      case Op::kAndi: return &andi;
      case Op::kSlli: return &slli;
      case Op::kSrli: return &srli;
      case Op::kSrai: return &srai;
      case Op::kAdd: return &add;
      case Op::kSub: return &sub;
      case Op::kSll: return &sll;
      case Op::kSlt: return &slt;
      case Op::kSltu: return &sltu;
      case Op::kXor: return &xor_;
      case Op::kSrl: return &srl;
      case Op::kSra: return &sra;
      case Op::kOr: return &or_;
      case Op::kAnd: return &and_;
      case Op::kFence: return &fence;
      case Op::kEcall: return &ecall;
      case Op::kEbreak: return &ebreak;
      case Op::kMul: return &mul;
      case Op::kMulh: return &mulh;
      case Op::kMulhsu: return &mulhsu;
      case Op::kMulhu: return &mulhu;
      case Op::kDiv: return &div_;
      case Op::kDivu: return &divu;
      case Op::kRem: return &rem;
      case Op::kRemu: return &remu;
      case Op::kCsrrw:
      case Op::kCsrrs:
      case Op::kCsrrc:
      case Op::kCsrrwi:
      case Op::kCsrrsi:
      case Op::kCsrrci: return &csr_op;
      case Op::kMret: return &mret;
      case Op::kWfi: return &wfi;
      case Op::kLrW: return &lr_w;
      case Op::kScW: return &sc_w;
      case Op::kAmoswapW: return &amo_w<AmoSwap>;
      case Op::kAmoaddW: return &amo_w<AmoAdd>;
      case Op::kAmoxorW: return &amo_w<AmoXor>;
      case Op::kAmoorW: return &amo_w<AmoOr>;
      case Op::kAmoandW: return &amo_w<AmoAnd>;
      case Op::kAmominW: return &amo_w<AmoMin>;
      case Op::kAmomaxW: return &amo_w<AmoMax>;
      case Op::kAmominuW: return &amo_w<AmoMinu>;
      case Op::kAmomaxuW: return &amo_w<AmoMaxu>;
      case Op::kCount: break;
    }
    S4E_CHECK_MSG(false, "invalid Op in translated block");
    return nullptr;
  }
};

s4e_insn_info Machine::to_insn_info(const DecodedInsn& decoded) {
  s4e_insn_info info{};
  info.address = decoded.pc;
  info.encoding = decoded.raw;
  info.op = static_cast<u16>(decoded.op);
  info.op_class = static_cast<u8>(isa::op_info(decoded.op).op_class);
  info.rd = decoded.rd;
  info.rs1 = decoded.rs1;
  info.rs2 = decoded.rs2;
  info.csr = decoded.csr;
  info.imm = decoded.imm;
  return info;
}

DecodedInsn Machine::lower_insn(const Instr& in, u32 pc) const {
  const TimingParams& params = timing_.params();
  DecodedInsn d;
  d.pc = pc;
  d.link = pc + in.length;
  d.imm = in.imm;
  d.target = pc + static_cast<u32>(in.imm);
  d.raw = in.raw;
  d.csr = in.csr;
  d.op = in.op;
  d.rd = in.rd;
  d.rs1 = in.rs1;
  d.rs2 = in.rs2;
  if (in.info().op_class == isa::OpClass::kDiv) {
    // Divides charge base + divide_cycles(rs1) in the handler (the
    // operand-dependent part cannot be precomputed).
    d.c_fall = params.base_cycles;
    d.c_taken = params.base_cycles;
    d.c_mmio = params.base_cycles;
  } else {
    const isa::OpClass op = in.info().op_class;
    d.c_fall = timing_.class_cycles(op, false, false);
    d.c_taken = timing_.class_cycles(op, true, false);
    d.c_mmio = timing_.class_cycles(op, false, true);
  }
  d.fn = ExecOps::select(in, params.branch_predictor);
  return d;
}

void Machine::lower_block(TranslationBlock& block,
                          const std::vector<Instr>& insns) {
  block.code.clear();
  block.code.reserve(insns.size());
  u32 pc = block.start;
  for (const Instr& in : insns) {
    block.code.push_back(lower_insn(in, pc));
    pc = block.code.back().link;
  }
  block.fall_pc = block.start + block.byte_size;
  block.taken_pc = 0;
  if (!block.code.empty()) {
    block.code.front().hook = kHookHead;
    block.taken_pc = taken_pc_of(block.code.back());
  }
}

std::optional<Instr> Machine::decode_at(u32 address) {
  auto half = bus_.fetch_half(address);
  if (!half.ok()) return std::nullopt;
  u32 bits = *half;
  if (!isa::is_compressed(static_cast<u16>(bits))) {
    auto word = bus_.fetch_word(address);
    if (!word.ok()) return std::nullopt;
    bits = *word;
  }
  auto instr = isa::decode_parcel(bits);
  if (!instr.ok()) return std::nullopt;
  return *instr;
}

bool Machine::relower(TranslationBlock& block,
                      std::span<const std::pair<u32, u32>> ranges) {
  // Plugins must see every re-translation, and a breakpoint may have to
  // split the new code differently: drop.
  if (!tb_trans_cbs_.empty() || !breakpoints_.empty()) return false;
  // The cut parcel decided where the block ends.
  if (block.cut_bytes != 0 &&
      overlaps_any(ranges, block.end(), block.source_end())) {
    return false;
  }
  const u64 changed_end = u64{ranges.back().first} + ranges.back().second;
  for (DecodedInsn& d : block.code) {
    if (d.pc >= changed_end) break;
    const u32 length = d.link - d.pc;
    if (!overlaps_any(ranges, d.pc, u64{d.pc} + length)) continue;
    const std::optional<Instr> in = decode_at(d.pc);
    if (!in || in->length != length ||
        block_role(in->op) != block_role(d.op)) {
      return false;  // the block would end elsewhere, or exit differently
    }
    DecodedInsn lowered = lower_insn(*in, d.pc);
    lowered.hook = d.hook & kHookHead;
    set_hooks(lowered, lowered.fn, hook_requests(d));
    d = lowered;
  }
  const u32 taken = taken_pc_of(block.code.back());
  if (taken != block.taken_pc) {
    block.taken_pc = taken;
    block.chain_taken = ChainSlot{};
  }
  return true;
}

TbCache::CodeChange Machine::code_changed(
    std::span<const std::pair<u32, u32>> ranges) {
  return tb_cache_.rewrite(ranges, [this, ranges](TranslationBlock& block) {
    return relower(block, ranges);
  });
}

Machine::BlockExit Machine::exec_block_fast(TranslationBlock* tb) {
  const DecodedInsn* d = tb->code.data();
  const DecodedInsn* const end = d + tb->code.size();
  for (;;) {
    ++icount_;
    const ExecOutcome out = d->fn(*this, *d);
    if (out == ExecOutcome::kNext) [[likely]] {
      if (++d != end) continue;
      cpu_.pc = tb->fall_pc;
      return BlockExit::kFall;
    }
    switch (out) {
      case ExecOutcome::kTakenStatic: return BlockExit::kTaken;
      case ExecOutcome::kTakenIndirect: return BlockExit::kIndirect;
      default: return BlockExit::kStopped;
    }
  }
}

void Machine::exec_insns_careful(TranslationBlock* tb, u64 limit) {
  for (const DecodedInsn& d : tb->code) {
    if (icount_ >= limit) break;
    // A hooked instruction fires a due icount callback itself, after a
    // block head's tb_exec callbacks.
    if (icount_ >= icount_cb_at_ && !is_hooked(d)) fire_icount_cbs();
    ++icount_;
    const ExecOutcome out = d.fn(*this, d);
    if (out != ExecOutcome::kNext) break;  // redirect or stop: block ends
    cpu_.pc = d.link;
    if (pending_stop_ || tb_maint_pending_) break;
  }
}

TranslationBlock* Machine::lookup_or_translate(u32 pc) {
  TranslationBlock* tb = tb_cache_.lookup(pc);
  if (tb == nullptr) tb = translate(pc);
  return tb;
}

void Machine::run_block_careful(u64 limit) {
  const u32 block_pc = cpu_.pc;
  TranslationBlock* tb =
      config_.enable_tb_cache ? tb_cache_.lookup(block_pc) : nullptr;
  if (tb == nullptr) tb = translate(block_pc);
  if (tb == nullptr) return;  // trap was taken (or a stop is pending)

  ++tb->exec_count;
  count_careful(careful_reason());
  probe_icache(block_pc);
  exec_insns_careful(tb, limit);
}

bool Machine::fast_path_ok() const noexcept {
  // The chained fast path is taken unless per-block dispatch checks are
  // needed: debug state (breakpoints are checked at block dispatch), an
  // armed timer/software interrupt (delivery is checked per block in
  // careful mode; chaining would defer it by up to a quantum), or the
  // uncached ablation. Plugin callbacks do not matter: exec callbacks are
  // lowered into the translated code and memory callbacks fire from the
  // slow load/store handlers, identically in both modes.
  return config_.enable_tb_cache && !debug_check_ &&
         (cpu_.csr.mie & (kMieMtie | kMieMsie)) == 0;
}

u64 EngineStats::*Machine::careful_reason() const noexcept {
  if (!config_.enable_tb_cache) return &EngineStats::careful_uncached;
  if (debug_check_) return &EngineStats::careful_debug;
  return &EngineStats::careful_timer;
}

void Machine::run_tb_careful(TranslationBlock* tb, u64 limit) {
  ++tb->exec_count;
  count_careful(&EngineStats::careful_boundary);
  probe_icache(tb->start);
  exec_insns_careful(tb, limit);
}

void Machine::run_chain(u64 limit) {
  const u64 epoch = tb_cache_.chain_epoch();
  TranslationBlock* tb = lookup_or_translate(cpu_.pc);
  if (tb == nullptr) return;  // fetch trap taken (or a stop is pending)
  // From `careful_from` on, instructions run one at a time: the budget ends
  // there, or an armed icount callback must fire between two instructions.
  u64 careful_from = std::min(limit, icount_cb_at_);
  const bool fired = icount_ >= careful_from;
  if (fired && is_hooked(tb->code.front())) {
    // The block's first instruction fires callbacks: the careful block
    // fires the due count between its tb_exec and insn_exec callbacks.
    run_tb_careful(tb, limit);
    return;
  }
  if (fired) {
    // The armed icount is already reached (run_loop guarantees the budget
    // is not): it fires here, where the careful block would fire it — after
    // the block's icache probe, before its first instruction.
    ++tb->exec_count;
    probe_icache(tb->start);
    fire_icount_cbs();
    careful_from = std::min(limit, icount_cb_at_);
    // A callback that only writes guest state (a fault flip, a forced bit)
    // lets the chain run on. One that stopped the run, requested TB
    // maintenance or changed the dispatch gate, or a block holding the
    // next armed count or the budget end, gets the careful block's exact
    // semantics: its first instruction still runs, on its old translation.
    if (pending_stop_ || tb_maint_pending_ || chain_epoch_recheck_ ||
        !fast_path_ok() || careful_from <= icount_ ||
        tb->code.size() > careful_from - icount_) {
      count_careful(fast_path_ok() ? &EngineStats::careful_boundary
                                   : careful_reason());
      exec_insns_careful(tb, limit);
      return;
    }
  }
  const u64 quantum_end =
      std::min(careful_from, saturating_add(icount_, kChainQuantum));
  // The chain also ends at the first block head at or after
  // run_to_block_head's target.
  const u64 stop_end = std::min(quantum_end, head_stop_at_);
  // While arm_cycle_stop() compares heads, the first head at or after
  // `check_at` is compared in place; the chain runs on unless it repeats.
  u64 check_at = ~u64{0};
  if (cycle_.armed && icount_cb_at_ == ~u64{0}) {
    check_at = icount_ < cycle_.from ? cycle_.from
                                     : icount_ + cycle_check_quantum();
  }
  u64 chain_end = std::min(stop_end, check_at);
  // Admit `block` to chained execution (charging its exec count and icache
  // probe), or end the chain run: at the quantum boundary (epoch work, then
  // resume), or after running the block that holds the budget end or the
  // armed icount with exact per-instruction semantics (at least one
  // instruction runs, so exec_count stays truthful).
  const auto admit = [&](TranslationBlock* block) {
    if (icount_ >= chain_end) [[unlikely]] {
      if (icount_ >= stop_end) return false;  // epoch due (or head stop)
      if (state_repeats()) {
        cycle_.repeated = true;  // run_loop reports the stop
        return false;
      }
      check_at = icount_ + cycle_check_quantum();
      chain_end = std::min(stop_end, check_at);
    }
    if (block->code.size() > quantum_end - icount_) {
      if (quantum_end == careful_from) run_tb_careful(block, limit);
      return false;
    }
    ++block->exec_count;
    if (icache_.enabled()) probe_icache(block->start);
    return true;
  };
  if (!fired && !admit(tb)) return;

  for (;;) {
    ++estats_.blocks_fast;
    const BlockExit ex = exec_block_fast(tb);
    if (ex == BlockExit::kStopped) return;
    if (tb_maint_pending_ || chain_epoch_recheck_) return;
    if (!config_.enable_chaining) return;  // ablation: per-block dispatch

    TranslationBlock* next = nullptr;
    if (ex == BlockExit::kIndirect) {
      const u32 next_pc = cpu_.pc;
      auto& jc = tb->jc;
      if (jc[0].target != nullptr && jc[0].pc == next_pc &&
          jc[0].epoch == epoch) {
        next = jc[0].target;
        ++estats_.jump_cache_hits;
      } else if (jc[1].target != nullptr && jc[1].pc == next_pc &&
                 jc[1].epoch == epoch) {
        std::swap(jc[0], jc[1]);  // MRU first
        next = jc[0].target;
        ++estats_.jump_cache_hits;
      } else {
        ++estats_.jump_cache_misses;
        next = lookup_or_translate(next_pc);
        if (next == nullptr || tb_maint_pending_) return;
        jc[1] = jc[0];
        jc[0] = {next_pc, next, epoch};
      }
    } else {
      ChainSlot& slot =
          ex == BlockExit::kFall ? tb->chain_fall : tb->chain_taken;
      if (slot.target != nullptr && slot.epoch == epoch) {
        next = slot.target;
        ++estats_.chain_follows;
      } else {
        next = lookup_or_translate(cpu_.pc);
        if (next == nullptr || tb_maint_pending_) return;
        slot = ChainSlot{next, epoch};
        ++estats_.chain_patches;
      }
    }
    tb = next;
    if (!admit(tb)) return;
  }
}

RunResult Machine::run() {
  const u64 remaining = config_.max_instructions > icount_
                            ? config_.max_instructions - icount_
                            : 0;
  return run(remaining);
}

RunResult Machine::run(u64 max_insns) {
  return run_loop(max_insns, StopReason::kMaxInstructions);
}

RunResult Machine::step() { return run_loop(1, StopReason::kDebugStep); }

bool Machine::run_to_block_head(u64 icount) {
  head_stop_at_ = icount;
  const RunResult result = run();
  head_stop_at_ = ~u64{0};
  return result.reason == StopReason::kDebugSlice && quiet_head();
}

bool Machine::quiet_head() const noexcept {
  const u32 mip = mirrored_mip();
  if (mip != cpu_.csr.mip) return false;
  return (cpu_.csr.mstatus & kMstatusMie) == 0 ||
         (cpu_.csr.mie & mip & (kMipMsip | kMipMtip)) == 0;
}

void Machine::take_cycle_reference() {
  CycleWatch& w = cycle_;
  w.has_ref = true;
  w.distance = 0;
  w.checked_at = icount_;
  w.unseen_inputs = unseen_inputs_;
  w.gpr = cpu_.gpr;
  w.pc = cpu_.pc;
  w.csr = cpu_.csr;
  w.res_valid = harts_[active_hart_].res_valid;
  w.res_addr = harts_[active_hart_].res_addr;
  bus_.ram_capture(w.ram, false);
}

bool Machine::state_repeats() {
  if ((cpu_.csr.mie & (kMieMtie | kMieMsie)) != 0) {
    ++unseen_inputs_;  // an armed interrupt arrives with time
  }
  CycleWatch& w = cycle_;
  if (!w.has_ref) {
    take_cycle_reference();
    return false;
  }
  // A head compared twice (a chain that ends where it compared one) is
  // one head: no instruction ran between.
  if (icount_ == w.checked_at) return false;
  w.checked_at = icount_;
  ++w.distance;
  // Registers first; memory only when they all match.
  if (w.pc == cpu_.pc && w.unseen_inputs == unseen_inputs_ &&
      w.gpr == cpu_.gpr && w.csr == cpu_.csr &&
      w.res_valid == harts_[active_hart_].res_valid &&
      w.res_addr == harts_[active_hart_].res_addr && bus_.ram_matches(w.ram)) {
    return true;
  }
  if (w.distance == w.period) {
    take_cycle_reference();
    w.period *= 2;
  }
  return false;
}

RunResult Machine::run_slice(u64 max_insns) {
  return run_loop(max_insns, StopReason::kDebugSlice);
}

RunResult Machine::run_loop(u64 max_insns, StopReason budget_reason) {
  const bool stepping = budget_reason == StopReason::kDebugStep;
  // The repeated-state stop reports a budget stop of run() only.
  if (budget_reason != StopReason::kMaxInstructions) cycle_.disarm();
  // Saturate: run(UINT64_MAX) on a warm machine means "no further bound",
  // not a wrapped limit below icount_ that stops the VM instantly.
  const u64 limit = saturating_add(icount_, max_insns);
  while (!pending_stop_) {
    if (icount_ >= limit) {
      if (budget_reason == StopReason::kMaxInstructions) {
        pending_stop_ = PendingStop{StopReason::kMaxInstructions, -1, 0,
                                    "instruction budget exhausted"};
      } else {
        pending_stop_ = PendingStop{budget_reason, 0, 0, ""};
      }
      break;
    }
    // SMP slice rotation: a fixed instruction quantum on the single global
    // icount timeline makes the interleaving deterministic. The dispatch
    // below is capped at slice_end_, so the active hart lands here exactly
    // when its slice expires (run_chain/exec_insns_careful honour an exact
    // per-instruction limit and always make >= 1 instruction of progress).
    if (smp_ && icount_ >= slice_end_) rotate_hart();
    if (debug_check_) {
      if (debug_stop_request_) {
        debug_stop_request_ = false;
        update_debug_check();
        pending_stop_ = PendingStop{StopReason::kDebugInterrupt, 0, 0, "",
                                    cpu_.pc};
        break;
      }
      // Stop *before* executing a breakpointed instruction — except while
      // stepping, which is how the stub resumes off a breakpoint.
      if (!stepping && breakpoints_.count(cpu_.pc) != 0) {
        pending_stop_ = PendingStop{StopReason::kDebugBreak, 0, 0, "",
                                    cpu_.pc};
        break;
      }
    }
    bus_.tick(cycles_);
    if (icount_ >= head_stop_at_) [[unlikely]] {
      pending_stop_ = PendingStop{StopReason::kDebugSlice, 0, 0, ""};
      break;
    }
    check_interrupts();
    if (pending_stop_) break;
    // Requested from a plugin callback (or a self-modifying store) while
    // the previous block was executing, or between runs; apply at the
    // block boundary.
    if (tb_maint_pending_) apply_tb_maintenance();
    if (cycle_.armed && icount_ >= cycle_.from && icount_cbs_.empty())
        [[unlikely]] {
      if (cycle_.repeated || state_repeats()) {
        // The run can only end at its budget: report that stop.
        ++snap_stats_.hangs_stopped;
        snap_stats_.hang_insns += limit - icount_;
        icount_ = limit;
        continue;
      }
    }

    const u64 dispatch_limit = smp_ ? std::min(limit, slice_end_) : limit;
    if (fast_path_ok()) {
      chain_epoch_recheck_ = false;
      run_chain(dispatch_limit);
    } else {
      run_block_careful(dispatch_limit);
    }
    if (tb_maint_pending_) apply_tb_maintenance();
  }

  RunResult result;
  result.reason = pending_stop_->reason;
  result.exit_code = pending_stop_->exit_code;
  result.trap_cause = pending_stop_->trap_cause;
  result.detail = pending_stop_->detail;
  result.debug_addr = pending_stop_->debug_addr;
  result.watch_kind = pending_stop_->watch_kind;
  result.instructions = icount_;
  result.cycles = cycles_;
  result.final_pc = cpu_.pc;
  result.hart = active_hart_;
  if (!result.debug_stop()) {
    // Debugger stops are pauses, not ends: exit plugins (trace exit line,
    // flight-recorder dump) fire once, when the program actually stops.
    for (const auto& reg : exit_cbs_) {
      reg.callback(reg.userdata, vm_handle(), result.exit_code);
    }
  }
  pending_stop_.reset();
  return result;
}

u64 Machine::add_tb_trans_cb(s4e_tb_trans_cb cb, void* userdata) {
  tb_trans_cbs_.push_back({cb, userdata});
  return tb_trans_cbs_.size();
}
u64 Machine::add_tb_exec_cb(s4e_tb_exec_cb cb, void* userdata) {
  tb_exec_cbs_.push_back({cb, userdata});
  if (tb_exec_cbs_.size() == 1) rehook_translations(true);
  return tb_exec_cbs_.size();
}
u64 Machine::add_insn_exec_cb(s4e_insn_exec_cb cb, void* userdata) {
  insn_exec_cbs_.push_back({cb, userdata});
  if (insn_exec_cbs_.size() == 1) rehook_translations(true);
  return insn_exec_cbs_.size();
}

bool Machine::request_insn_exec_cb(u32 index, s4e_insn_exec_cb cb,
                                   void* userdata) {
  if (trans_requests_ == nullptr || index >= trans_requests_->size()) {
    return false;
  }
  std::size_t slot = 0;
  while (slot < insn_requests_.size() &&
         (insn_requests_[slot].callback != cb ||
          insn_requests_[slot].userdata != userdata)) {
    ++slot;
  }
  if (slot == insn_requests_.size()) {
    if (slot == 64) return false;  // one bit per pair in HookSite::requests
    insn_requests_.push_back({cb, userdata});
  }
  (*trans_requests_)[index] |= u64{1} << slot;
  return true;
}

void Machine::set_hooks(DecodedInsn& d, ExecHandler fn, u64 requests) {
  const u16 head = d.hook & kHookHead;
  if (requests != 0 || !insn_exec_cbs_.empty() ||
      (head != 0 && !tb_exec_cbs_.empty())) {
    d.hook = static_cast<u16>(head | hook_site(fn, requests));
    d.fn = &ExecOps::hooked;
  } else {
    d.hook = head;
    d.fn = fn;
  }
}

u16 Machine::hook_site(ExecHandler fn, u64 requests) {
  const auto [it, inserted] = hook_site_index_.try_emplace(
      {reinterpret_cast<std::uintptr_t>(fn), requests},
      static_cast<u16>(hook_sites_.size()));
  if (inserted) {
    S4E_CHECK_MSG(hook_sites_.size() <= kHookSiteMask,
                  "too many distinct exec-callback hook sites");
    hook_sites_.push_back({fn, requests});
  }
  return it->second;
}

void Machine::rehook_translations(bool keep_requests) {
  const auto rehook = [this, keep_requests](TranslationBlock& block) {
    for (DecodedInsn& d : block.code) {
      set_hooks(d, own_handler(d), keep_requests ? hook_requests(d) : 0);
    }
  };
  tb_cache_.for_each_block(rehook);
  if (scratch_block_ != nullptr) rehook(*scratch_block_);
}

void Machine::fire_insn_hooks(const DecodedInsn& d, u64 requests) {
  s4e_vm* vm = vm_handle_.get();
  if ((d.hook & kHookHead) != 0) {
    for (const auto& reg : tb_exec_cbs_) reg.callback(reg.userdata, vm, d.pc);
  }
  if (icount_ >= icount_cb_at_) fire_icount_cbs();
  if (insn_exec_cbs_.empty() && requests == 0) return;
  const s4e_insn_info info = to_insn_info(d);
  for (const auto& reg : insn_exec_cbs_) reg.callback(reg.userdata, vm, &info);
  for (; requests != 0; requests &= requests - 1) {
    const auto& reg = insn_requests_[std::countr_zero(requests)];
    reg.callback(reg.userdata, vm, &info);
  }
}

u64 Machine::add_mem_cb(s4e_mem_cb cb, void* userdata) {
  mem_cbs_.push_back({cb, userdata});
  update_mem_slow();
  return mem_cbs_.size();
}
u64 Machine::add_trap_cb(s4e_trap_cb cb, void* userdata) {
  trap_cbs_.push_back({cb, userdata});
  return trap_cbs_.size();
}
u64 Machine::add_exit_cb(s4e_exit_cb cb, void* userdata) {
  exit_cbs_.push_back({cb, userdata});
  return exit_cbs_.size();
}

u64 Machine::add_icount_cb(u64 icount, s4e_icount_cb cb, void* userdata) {
  icount_cbs_.push_back({icount, cb, userdata});
  icount_cb_at_ = std::min(icount_cb_at_, icount);
  return icount_cbs_.size();
}

void Machine::fire_icount_cbs() {
  // Detach the due registrations before calling them: a callback may arm a
  // new one.
  const auto due = std::stable_partition(
      icount_cbs_.begin(), icount_cbs_.end(),
      [this](const IcountRegistration& reg) { return reg.icount > icount_; });
  const std::vector<IcountRegistration> fired(due, icount_cbs_.end());
  icount_cbs_.erase(due, icount_cbs_.end());
  icount_cb_at_ = ~u64{0};
  for (const IcountRegistration& reg : icount_cbs_) {
    icount_cb_at_ = std::min(icount_cb_at_, reg.icount);
  }
  for (const IcountRegistration& reg : fired) {
    reg.callback(reg.userdata, vm_handle(), icount_);
  }
}

void Machine::apply_tb_maintenance() {
  if (tb_flush_all_) {
    tb_cache_.flush();
  } else if (!tb_invalidations_.empty()) {
    // Sorted and merged into disjoint runs, as code_changed takes them.
    std::sort(tb_invalidations_.begin(), tb_invalidations_.end());
    std::size_t runs = 0;
    u64 run_end = 0;
    for (const auto& [address, size] : tb_invalidations_) {
      const u64 end = u64{address} + size;
      if (runs != 0 && address <= run_end) {
        run_end = std::max(run_end, end);
        tb_invalidations_[runs - 1].second = static_cast<u32>(
            run_end - tb_invalidations_[runs - 1].first);
      } else {
        tb_invalidations_[runs++] = {address, size};
        run_end = end;
      }
    }
    tb_invalidations_.resize(runs);
    code_changed(tb_invalidations_);
  }
  tb_invalidations_.clear();
  tb_flush_all_ = false;
  tb_maint_pending_ = false;
}

void Machine::request_exit(int exit_code) noexcept {
  if (!pending_stop_) {
    pending_stop_ =
        PendingStop{StopReason::kExitRequested, exit_code, 0, ""};
  }
}

}  // namespace s4e::vp
