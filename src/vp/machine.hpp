// The virtual prototype: RV32IM_Zicsr hart + bus + devices + TB cache +
// plugin dispatch. This is the ecosystem's QEMU stand-in.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "isa/instr.hpp"
#include "vp/bus.hpp"
#include "vp/cpu.hpp"
#include "vp/devices/clint.hpp"
#include "vp/devices/gpio.hpp"
#include "vp/devices/testdev.hpp"
#include "vp/devices/uart.hpp"
#include "vp/s4e_plugin.h"
#include "vp/snapshot.hpp"
#include "vp/tb_cache.hpp"
#include "vp/timing.hpp"

namespace s4e::vp {

struct MachineConfig {
  u32 ram_base = 0x8000'0000;
  u32 ram_size = 4u << 20;  // 4 MiB
  TimingParams timing;
  bool enable_tb_cache = true;  // E1 ablation switch
  // Engine ablation switch (BENCH_emulation.json records the chained vs
  // unchained split): chaining links blocks directly so hot code never
  // returns to central dispatch.
  bool enable_chaining = true;
  u64 max_instructions = 200'000'000;
  // SMP: number of harts (clamped to [1, Clint::kMaxHarts]). Harts execute
  // deterministic round-robin slices of `smp_slice_quantum` instructions on
  // the single global icount/cycle timeline — a fixed quantum makes the
  // cross-hart interleaving a pure function of the program, so SMP runs are
  // bit-reproducible. `force_slice_scheduler` engages the slice machinery
  // even with one hart (the N=1 determinism property test rides on this).
  unsigned num_harts = 1;
  u64 smp_slice_quantum = kChainQuantum;
  bool force_slice_scheduler = false;
};

// Why the run loop stopped.
enum class StopReason : u8 {
  kExitEcall,        // ecall exit convention (a7 = 93)
  kExitTestDevice,   // write to the test finisher
  kExitRequested,    // s4e_request_exit() from a plugin
  kEbreak,           // hit ebreak with no trap handler
  kTrapUnhandled,    // synchronous trap with mtvec == 0
  kMaxInstructions,  // instruction budget exhausted (hang detector)
  kWfiHalt,          // wfi with timer interrupts disabled
  kDebugBreak,       // stopped on a debug breakpoint (before executing it)
  kDebugWatch,       // stopped on a data watchpoint (after the access)
  kDebugStep,        // single step completed
  kDebugInterrupt,   // request_debug_stop() (debugger Ctrl-C)
  kDebugSlice,       // run_slice() budget exhausted; execution continues
};

std::string_view to_string(StopReason reason) noexcept;

// Data-watchpoint trigger condition (GDB Z2/Z3/Z4).
enum class WatchKind : u8 { kWrite, kRead, kAccess };

struct RunResult {
  StopReason reason = StopReason::kMaxInstructions;
  int exit_code = 0;
  u64 instructions = 0;
  u64 cycles = 0;
  u32 final_pc = 0;
  u32 trap_cause = 0;  // for kTrapUnhandled
  // For kDebugBreak: the breakpoint PC. For kDebugWatch: the accessed data
  // address, with `watch_kind` naming the matched watchpoint's condition.
  u32 debug_addr = 0;
  WatchKind watch_kind = WatchKind::kWrite;
  // Hart that was active when the run stopped (breakpoint/trap attribution).
  unsigned hart = 0;
  std::string detail;

  bool normal_exit() const noexcept {
    return reason == StopReason::kExitEcall ||
           reason == StopReason::kExitTestDevice ||
           reason == StopReason::kExitRequested;
  }

  // True for the four debugger-initiated stops: execution can continue and
  // exit callbacks have not fired.
  bool debug_stop() const noexcept {
    return reason == StopReason::kDebugBreak ||
           reason == StopReason::kDebugWatch ||
           reason == StopReason::kDebugStep ||
           reason == StopReason::kDebugInterrupt ||
           reason == StopReason::kDebugSlice;
  }
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = {});
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Copy a program's sections into RAM, set the entry PC and the stack
  // pointer (top of RAM). Does not reset counters — call reset() to rerun.
  Status load_program(const assembler::Program& program);

  // Run until a stop condition; repeated calls continue execution.
  RunResult run();
  // Run at most `max_insns` further instructions.
  RunResult run(u64 max_insns);

  // --- Debug run control (the GDB stub's machine interface; see src/debug).

  // Execute exactly one instruction and stop. Returns kDebugStep when the
  // instruction completed uneventfully, otherwise the same taxonomy as
  // run() (exits, traps, watchpoint hits). A breakpoint at the *current* PC
  // is deliberately not re-checked, so step() is also the "step over the
  // breakpoint we are stopped on" resume primitive.
  RunResult step();

  // Run at most `max_insns` instructions as one bounded debug slice: budget
  // exhaustion returns kDebugSlice (a pause — exit plugins do not fire)
  // instead of kMaxInstructions. The debug server's continue loop runs
  // bounded slices and polls the transport for Ctrl-C between them.
  RunResult run_slice(u64 max_insns);

  // Software breakpoints: run() stops with kDebugBreak when the PC reaches
  // a breakpointed address, *before* executing it. Insertion and removal
  // invalidate overlapping translation blocks and newly translated blocks
  // are split at breakpoints, so a breakpoint is always a block head and the
  // per-block dispatch check suffices — execution without breakpoints pays
  // nothing per instruction.
  void add_breakpoint(u32 address);
  bool remove_breakpoint(u32 address);
  bool has_breakpoint(u32 address) const noexcept;
  void clear_breakpoints();

  // Data watchpoints over [address, address+length): run()/step() stop with
  // kDebugWatch after an overlapping data access of the matching kind
  // completes (GDB semantics: the write has landed when the stop reports).
  void add_watchpoint(u32 address, u32 length, WatchKind kind);
  bool remove_watchpoint(u32 address, u32 length, WatchKind kind);
  void clear_watchpoints();

  // Ask a running machine to stop with kDebugInterrupt at the next block
  // boundary (the stub's Ctrl-C path; single-threaded — the request is
  // posted between bounded run slices, not from another thread).
  void request_debug_stop() noexcept {
    debug_stop_request_ = true;
    debug_check_ = true;
  }

  // Code bytes in `ranges` ([address, size) pairs, sorted by address and
  // disjoint) changed under the translations: every path that changes
  // translated code reports it here (a mutant patch, a restore, a
  // self-modifying store, a plugin's s4e_invalidate_tb_range, a debugger
  // `M` write). Each block overlapping a range re-decodes the instructions
  // in it from RAM. It is re-lowered in place when each keeps its length
  // and block-ending role and the ranges miss the parcel the block was cut
  // before; chain links into it stay, and its taken edge is cleared if its
  // static target moved. It is dropped otherwise, and always while a
  // breakpoint is set or a tb_trans subscriber must see re-translations;
  // a drop severs every chain.
  TbCache::CodeChange code_changed(
      std::span<const std::pair<u32, u32>> ranges);
  TbCache::CodeChange code_changed(u32 address, u32 size) {
    const std::pair<u32, u32> range{address, size};
    return code_changed({&range, 1});
  }

  // Reset architectural state, counters and every mapped device (keeps
  // loaded RAM contents).
  void reset();

  // --- Snapshot/restore (see vp/snapshot.hpp).

  // Capture complete machine state into `snap` (RAM pages written since
  // construction are copied; the rest are zero) and reset the dirty-page
  // baseline: the next restore_state() copies back only pages written after
  // this call.
  void save_state(Snapshot& snap);

  // Restore the state captured by save_state() on *this* machine. RAM
  // restore is proportional to the pages dirtied since the snapshot. Pending
  // TB maintenance is applied, then the byte runs the restore changes in
  // translated code go through code_changed — the rest of the TB cache
  // stays warm. Plugin callbacks are untouched; campaign drivers
  // that re-attach per-run plugins call clear_plugins() first.
  //
  // `snap` may also be a rung (save_rung) whose base is the full snapshot
  // last saved or restored here; a restore switching between the base and
  // its rungs copies the pages either one, or the run since, has dirtied.
  void restore_state(const Snapshot& snap);

  // Capture a rung into `snap`: complete machine state like save_state(),
  // but RAM as only the pages written since `base` — the full snapshot this
  // machine last saved or restored — which must outlive the rung. Nothing
  // is reset: the next restore still copies back everything since `base`.
  void save_rung(Snapshot& snap, const Snapshot& base);

  // Run to the first block head at or after instruction `icount` and stop
  // there. True when the head is quiet — a dispatch boundary whose
  // interrupt check changes nothing — so a rung captured there resumes
  // exactly as a run passing through it continues. False when the program
  // ended first, or the head is not quiet: continuing from there would
  // run an interrupt check a full run may not, so no later rung matches a
  // full run either.
  bool run_to_block_head(u64 icount);

  // Stop this run() as soon as its state provably cycles: from the first
  // block head at or after instruction `from` with no icount callback
  // armed, compare the state at block heads (pc, GPRs, CSRs other than the
  // counters, LR/SC reservation, RAM pages written since the restore). Two
  // equal heads with no input between them that the compare cannot see —
  // a time-dependent read (a counter CSR or mip, a wfi, MTIE/MSIE armed at
  // a head) or any device access (device state is not compared, so it
  // must not have changed) — repeat forever, so the run is reported
  // exactly like an exhausted budget of run(): kMaxInstructions, exit code
  // -1, instructions = the budget. Single-hart machines only (ignored on
  // SMP); per-run state like plugins, cleared by reset() and
  // restore_state(). The caller guarantees that no attached plugin acts on
  // anything but icount callbacks.
  void arm_cycle_stop(u64 from = 0) noexcept {
    cycle_.armed = !smp_;
    cycle_.from = from;
  }

  // Cumulative save/restore cost counters for this machine.
  const SnapshotStats& snapshot_stats() const noexcept { return snap_stats_; }

  // Drop every registered plugin callback, including armed one-shot icount
  // callbacks that have not fired yet and the insn_exec requests warm
  // translations carry (per-run plugin attachment on a long-lived machine).
  // Warm translation blocks survive; their tb_trans events have already
  // fired and are not replayed.
  void clear_plugins() noexcept;

  CpuState& cpu() noexcept { return cpu_; }
  const CpuState& cpu() const noexcept { return cpu_; }

  // --- SMP view. The *active* hart's architectural state is staged in the
  // hot `cpu_` member while it runs (the single-hart fast path is untouched);
  // parked harts live in harts_. cpu(h) resolves to whichever copy is live.
  unsigned num_harts() const noexcept { return num_harts_; }
  unsigned active_hart() const noexcept { return active_hart_; }
  CpuState& cpu(unsigned hart) noexcept {
    return hart == active_hart_ ? cpu_ : harts_[hart].cpu;
  }
  const CpuState& cpu(unsigned hart) const noexcept {
    return hart == active_hart_ ? cpu_ : harts_[hart].cpu;
  }
  // Instructions retired by one hart (the global icount() is the sum).
  u64 hart_icount(unsigned hart) const noexcept {
    u64 count = hart_icount_[hart];
    if (hart == active_hart_) count += icount_ - slice_start_icount_;
    return count;
  }

  Bus& bus() noexcept { return bus_; }
  const MachineConfig& config() const noexcept { return config_; }
  const TimingModel& timing() const noexcept { return timing_; }

  u64 icount() const noexcept { return icount_; }
  u64 cycles() const noexcept { return cycles_; }

  // Counter-CSR view (cycle/instret/time) at the current execution point.
  // icount_ is incremented *before* an instruction executes, so a mid-block
  // CSR read observes the instruction count *including* the current
  // instruction — the single definition used by both the direct CSR-op path
  // and the plugin C API, in the cached and uncached (enable_tb_cache =
  // false) execution modes alike.
  CsrFile::CounterView counter_view() const noexcept {
    return CsrFile::CounterView{cycles_, icount_, cycles_, active_hart_};
  }
  u64 icache_misses() const noexcept { return icache_.misses(); }
  TbCache& tb_cache() noexcept { return tb_cache_; }
  const TbCache& tb_cache() const noexcept { return tb_cache_; }

  // Execution-engine counters (chain links, jump cache, dispatch mix);
  // cleared by reset() with the other performance counters. The no-arg form
  // is the active hart's counters (== machine-wide for one hart); the
  // per-hart form resolves staged vs parked copies like cpu(h).
  const EngineStats& engine_stats() const noexcept { return estats_; }
  const EngineStats& engine_stats(unsigned hart) const noexcept {
    return hart == active_hart_ ? estats_ : hart_stats_[hart];
  }

  // Called by the plugin C API after an out-of-band CSR write: a changed
  // interrupt-enable state must end the current chain run so the fast-path
  // gate re-evaluates at the next dispatch.
  void note_csr_written(u16 address) noexcept {
    if (address == isa::kCsrMie || address == isa::kCsrMstatus) {
      chain_epoch_recheck_ = true;
    }
  }

  // --- Stuck-at forcing (permanent faults that stay on the fast path). A
  // forced bit holds its value across every later write of its state:
  // register bits through the register file's write masks (CpuState), one
  // RAM byte through every RAM write path — inline and slow stores, sc.w,
  // AMOs and out-of-band writes reported by note_ram_written(). Loads need
  // nothing: the byte in RAM always holds the forced value. Forcing is
  // per-run state, like plugins: reset() and restore_state() clear it.

  // Force bit `bit` of x`reg` on `hart` to `value`, now and on every later
  // write. False (nothing forced) for x0 or an out-of-range index.
  bool force_gpr_bit(unsigned hart, unsigned reg, unsigned bit,
                     bool value) noexcept;
  // Force bit `bit` of the RAM byte at `address`, now and after every later
  // write covering it. One byte can be forced per run (several bits of it
  // may be); false for a non-RAM address, bit > 7 or a second byte.
  bool force_mem_bit(u32 address, unsigned bit, bool value);
  // Every RAM write path calls this after writing [address, address+size)
  // (the plugin C API for out-of-band writes): a covered stuck byte is
  // re-forced. The write itself already marked the page dirty.
  void note_ram_written(u32 address, u32 size) noexcept {
    if (forced_mem_.byte != nullptr && forced_mem_.address - address < size)
        [[unlikely]] {
      *forced_mem_.byte = static_cast<u8>(
          (*forced_mem_.byte & forced_mem_.keep) | forced_mem_.set);
    }
  }

  // The SoC's devices (always mapped; see vp/bus.hpp for the map).
  Uart* uart() noexcept { return uart_; }
  Clint* clint() noexcept { return clint_; }
  Gpio* gpio() noexcept { return gpio_; }

  // Plugin C-API handle for this machine (stable for its lifetime).
  s4e_vm* vm_handle() noexcept;

  // --- Plugin host (called from the C API shims; see plugin_api.cpp).
  template <typename Cb>
  struct Registration {
    Cb callback;
    void* userdata;
  };
  u64 add_tb_trans_cb(s4e_tb_trans_cb cb, void* userdata);
  // Whole-run tb_exec and insn_exec subscriptions hook every block head /
  // every instruction of the translated code, warm blocks included (in
  // place: nothing is flushed or invalidated). Neither forces the careful
  // loop.
  u64 add_tb_exec_cb(s4e_tb_exec_cb cb, void* userdata);
  u64 add_insn_exec_cb(s4e_insn_exec_cb cb, void* userdata);
  // Inside a tb_trans callback only: fire `cb` before instruction `index`
  // of the block being translated, whenever that translation executes it.
  // False outside tb_trans, for an index past the block, or when 64
  // distinct (cb, userdata) pairs already hold requests.
  bool request_insn_exec_cb(u32 index, s4e_insn_exec_cb cb, void* userdata);
  u64 add_mem_cb(s4e_mem_cb cb, void* userdata);
  u64 add_trap_cb(s4e_trap_cb cb, void* userdata);
  u64 add_exit_cb(s4e_exit_cb cb, void* userdata);
  // One-shot: fires once, before the first instruction that starts at
  // icount() >= `icount` (an icount already reached fires before the next
  // instruction). Does not force the careful loop: the fast path clamps its
  // chain runs to the armed icount, fires a count reached at a block head
  // at the chain boundary, and executes a block holding it past its first
  // instruction one instruction at a time.
  u64 add_icount_cb(u64 icount, s4e_icount_cb cb, void* userdata);
  void request_exit(int exit_code) noexcept;

  // Deferred TB maintenance: safe to call from plugin callbacks while a
  // block is executing. The executing block ends after its current
  // instruction and the flush (or code_changed over [address,
  // address+size)) happens at that block boundary.
  void request_tb_flush() noexcept {
    tb_flush_all_ = true;
    tb_maint_pending_ = true;
  }
  void request_tb_invalidate(u32 address, u32 size) {
    tb_invalidations_.emplace_back(address, size);
    tb_maint_pending_ = true;
  }

 private:
  struct PendingStop {
    StopReason reason;
    int exit_code;
    u32 trap_cause = 0;
    std::string detail;
    u32 debug_addr = 0;
    WatchKind watch_kind = WatchKind::kWrite;
  };

  struct Watchpoint {
    u32 address = 0;
    u32 length = 0;
    WatchKind kind = WatchKind::kWrite;

    bool operator==(const Watchpoint&) const noexcept = default;
  };

  // Shared run loop; `budget_reason` is the stop reason reported when
  // `max_insns` is exhausted (kMaxInstructions for run, kDebugStep for
  // step, kDebugSlice for run_slice). Stepping skips the breakpoint check
  // at the entry PC (resume-over-breakpoint semantics).
  RunResult run_loop(u64 max_insns, StopReason budget_reason);
  TranslationBlock* translate(u32 pc);

  // --- Execution engine (see exec_engine.hpp and the handler table in
  // machine.cpp). Two dispatch modes share the same lowered handlers:
  //   fast:    run_chain() — chained threaded dispatch, epoch work hoisted
  //            to chain exits, bounded by kChainQuantum;
  //   careful: run_block_careful() — exact per-instruction loop, used when
  //            debug state, an armed timer, or the uncached ablation demand
  //            per-block dispatch checks, and for the one block holding an
  //            icount-callback or budget boundary.
  // Plugin exec callbacks are lowered into the translated code (hooked
  // instructions, see set_hooks) and fire identically in both modes.
  enum class BlockExit : u8 { kFall, kTaken, kIndirect, kStopped };
  bool fast_path_ok() const noexcept;
  // Count one careful block under `reason` (an EngineStats careful_* field).
  void count_careful(u64 EngineStats::*reason) noexcept {
    ++estats_.blocks_careful;
    ++(estats_.*reason);
  }
  // The careful_* reason that makes fast_path_ok() false.
  u64 EngineStats::*careful_reason() const noexcept;
  void run_chain(u64 limit);
  void run_block_careful(u64 limit);
  BlockExit exec_block_fast(TranslationBlock* tb);
  // Per-insn execution with exact limit/stop/flush boundaries and icount
  // callback firing (the careful inner loop; also the fast path's
  // partial-block fallback when the budget or an armed icount callback
  // falls inside a block).
  void exec_insns_careful(TranslationBlock* tb, u64 limit);
  // Lower the decoded `insns` of `block` into its threaded `code`.
  void lower_block(TranslationBlock& block,
                   const std::vector<isa::Instr>& insns);
  // The threaded form of `in` at `pc`, unhooked (lower_block and
  // code_changed's re-lowering share it).
  DecodedInsn lower_insn(const isa::Instr& in, u32 pc) const;
  // The instruction at `address` as translate() fetches and decodes it;
  // nullopt when it cannot be fetched or does not decode.
  std::optional<isa::Instr> decode_at(u32 address);
  // code_changed's per-block step: re-lower `block` in place over the
  // changed `ranges`, or return false when it must be dropped.
  bool relower(TranslationBlock& block,
               std::span<const std::pair<u32, u32>> ranges);
  TranslationBlock* lookup_or_translate(u32 pc);
  // The careful run of one block from the fast path (budget end or armed
  // icount callback inside it).
  void run_tb_careful(TranslationBlock* tb, u64 limit);
  void apply_tb_maintenance();
  void fire_icount_cbs();
  // --- Exec-callback hooks lowered into translated code. An instruction
  // with callbacks to fire runs ExecOps::hooked, and its `hook` names a
  // site: its own handler plus the tb_trans-time requests it carries.
  // Sites are interned, so their number stays small.
  struct HookSite {
    ExecHandler fn = nullptr;  // the instruction's own handler
    u64 requests = 0;          // bit i: insn_requests_[i] fires here
  };
  static constexpr u16 kHookHead = 0x8000;
  static constexpr u16 kHookSiteMask = 0x7fff;
  static bool is_hooked(const DecodedInsn& d) noexcept {
    return (d.hook & kHookSiteMask) != 0;
  }
  ExecHandler own_handler(const DecodedInsn& d) const noexcept {
    return is_hooked(d) ? hook_sites_[d.hook & kHookSiteMask].fn : d.fn;
  }
  u64 hook_requests(const DecodedInsn& d) const noexcept {
    return hook_sites_[d.hook & kHookSiteMask].requests;
  }
  // Give `d` the handler `fn` and the requests `requests`, hooked when a
  // request, a whole-run insn_exec subscriber or (at a block head) a
  // whole-run tb_exec subscriber needs a callback before it.
  void set_hooks(DecodedInsn& d, ExecHandler fn, u64 requests);
  u16 hook_site(ExecHandler fn, u64 requests);
  // Re-apply set_hooks to every warm translation after a subscription
  // change; `keep_requests` false drops the tb_trans-time requests too.
  void rehook_translations(bool keep_requests);
  // The one routine that fires exec callbacks before instruction `d` runs,
  // in the careful order: tb_exec at a block head, a due icount callback,
  // then insn_exec (whole-run subscribers, then requests).
  void fire_insn_hooks(const DecodedInsn& d, u64 requests);
  void update_mem_slow() noexcept {
    mem_slow_ = !mem_cbs_.empty() || !watchpoints_.empty();
  }
  void clear_forced() noexcept;

  // --- SMP slice scheduler (run_loop). sync_active_hart() parks the staged
  // cpu_/estats_ copies back into harts_ / hart_stats_; rotate_hart() parks
  // the current hart and stages the next one for a fresh slice.
  void sync_active_hart();
  void rotate_hart();
  // Invalidate other harts' LR reservations overlapping a store to
  // [address, address+size) — the cross-hart half of SC's success rule.
  void clear_remote_reservations(u32 address, unsigned size) noexcept;

  void check_watchpoints(u32 address, unsigned size, bool is_store);
  void update_debug_check() noexcept {
    debug_check_ = debug_stop_request_ || !breakpoints_.empty();
  }
  void take_trap(u32 cause, u32 tval, bool interrupt);
  // A fetch/decode trap at the head of the block translate() was asked
  // for. One that vectors back to its own PC (the handler itself cannot be
  // fetched) stops the run: every further dispatch would trap again without
  // retiring an instruction, so no budget would ever end it.
  void take_fetch_trap(u32 cause, u32 tval);
  void check_interrupts();
  // mip with its level-triggered MTIP/MSIP bits mirroring the active hart's
  // CLINT banks (the CLINT must be mapped).
  u32 mirrored_mip() const noexcept;
  // True when check_interrupts() would change nothing.
  bool quiet_head() const noexcept;
  // The repeated-state check of arm_cycle_stop() at one block head.
  bool state_repeats();
  void take_cycle_reference();
  // Instructions to the next compared head of arm_cycle_stop(): short at
  // first, then growing with the reference distance, so a run that never
  // repeats pays for few compares.
  u64 cycle_check_quantum() const noexcept {
    return std::min(kCycleCheckQuantum * cycle_.period, kChainQuantum);
  }
  void save_core(Snapshot& snap);
  void probe_icache(u32 block_pc);
  void fire_mem_cb(u32 pc, u32 vaddr, u32 value, unsigned size,
                   bool is_store);
  static s4e_insn_info to_insn_info(const DecodedInsn& decoded);

  // The lowered instruction handlers live in this friend (machine.cpp) so
  // the per-op functions can touch machine state without 60 method
  // declarations here.
  friend struct ExecOps;

  MachineConfig config_;
  TimingModel timing_;
  CpuState cpu_;
  Bus bus_;
  TbCache tb_cache_;
  Uart* uart_ = nullptr;
  Clint* clint_ = nullptr;
  Gpio* gpio_ = nullptr;

  u64 icount_ = 0;
  u64 cycles_ = 0;
  // --- SMP state. One global instruction/cycle timeline; harts take
  // deterministic round-robin slices of it. icache/bimodal state stays
  // machine-global (a shared front-end model), CPU state and engine stats
  // are per hart.
  unsigned num_harts_ = 1;
  bool smp_ = false;  // slice scheduler engaged (num_harts_ > 1 or forced)
  unsigned active_hart_ = 0;
  u64 slice_end_ = 0;           // icount_ at which the active hart yields
  u64 slice_start_icount_ = 0;  // icount_ when its current slice began
  unsigned reservations_active_ = 0;  // harts holding an LR reservation
  std::vector<Hart> harts_;
  std::vector<EngineStats> hart_stats_;
  std::vector<u64> hart_icount_;
  std::optional<PendingStop> pending_stop_;
  // Deferred TB maintenance (request_tb_flush/request_tb_invalidate, also
  // raised by self-modifying guest stores). `tb_maint_pending_` is the one
  // flag the dispatch loops test; apply_tb_maintenance() clears all three.
  bool tb_maint_pending_ = false;
  bool tb_flush_all_ = false;
  std::vector<std::pair<u32, u32>> tb_invalidations_;
  // Earliest armed one-shot icount callback (~0 when none is armed): the
  // fast path's chain runs end here, the careful loop fires at it.
  u64 icount_cb_at_ = ~u64{0};
  // Set by a CSR write that may change the fast-path gate (mie/mstatus):
  // ends the current chain run so interrupt arming re-evaluates centrally.
  bool chain_epoch_recheck_ = false;
  // True while loads/stores must take the slow path even for RAM (memory
  // callbacks or watchpoints registered); kept in sync by update_mem_slow().
  bool mem_slow_ = false;
  // Cached view of RAM for the inline load/store fast path (stable for the
  // machine's lifetime; see Bus::ram_window).
  u8* ram_data_ = nullptr;
  u64* ram_dirty_ = nullptr;
  u32 ram_base_ = 0;
  u32 ram_size_ = 0;
  // The stuck RAM byte (force_mem_bit): its host address (nullptr when no
  // byte is forced, the one flag the store paths test), its guest address
  // and its write masks.
  struct ForcedByte {
    u8* byte = nullptr;
    u32 address = 0;
    u8 keep = 0xff;
    u8 set = 0;
  };
  ForcedByte forced_mem_;
  EngineStats estats_;
  // Debug run-control state. `debug_check_` is the single block-dispatch
  // gate (true iff breakpoints exist or a stop was requested); the
  // watchpoint vector is checked on data accesses only while non-empty.
  bool debug_check_ = false;
  bool debug_stop_request_ = false;
  std::unordered_set<u32> breakpoints_;
  std::vector<Watchpoint> watchpoints_;
  // Microarchitectural model state machines (shared with trace replay —
  // see vp/timing.hpp): direct-mapped icache tags and the bimodal branch
  // predictor table.
  IcacheSim icache_;
  BimodalPredictor bimodal_;
  SnapshotStats snap_stats_;
  // run_to_block_head's target (~0 when not running to one).
  u64 head_stop_at_ = ~u64{0};
  // Inputs a block-head compare cannot see, so far: time-dependent reads
  // and device accesses (see arm_cycle_stop).
  u64 unseen_inputs_ = 0;
  // arm_cycle_stop() state: Brent's cycle finding over block-head states.
  // The reference state is compared with every later head and moves on
  // when `distance` reaches `period`, which then doubles.
  struct CycleWatch {
    bool armed = false;
    bool has_ref = false;
    u64 from = 0;  // first instruction at which heads are compared
    u64 checked_at = 0;  // icount of the last head compared
    u64 distance = 0;
    u64 period = 1;
    bool repeated = false;  // a head compared inside a chain repeated
    u64 unseen_inputs = 0;  // unseen_inputs_ at the reference
    std::array<u32, isa::kGprCount> gpr{};
    u32 pc = 0;
    CsrFile csr;
    bool res_valid = false;
    u32 res_addr = 0;
    RamDelta ram;  // pages written since the restore
    void disarm() noexcept {
      armed = false;
      has_ref = false;
      repeated = false;
      period = 1;
    }
  };
  CycleWatch cycle_;
  // Translated-code byte runs changed by the last restore_state() (reused,
  // not reallocated, across per-mutant restores).
  std::vector<std::pair<u32, u32>> restore_changes_;
  // Holds the current block when the TB cache is disabled (E1 ablation).
  std::unique_ptr<TranslationBlock> scratch_block_;

  std::vector<Registration<s4e_tb_trans_cb>> tb_trans_cbs_;
  std::vector<Registration<s4e_tb_exec_cb>> tb_exec_cbs_;
  std::vector<Registration<s4e_insn_exec_cb>> insn_exec_cbs_;
  std::vector<Registration<s4e_mem_cb>> mem_cbs_;
  std::vector<Registration<s4e_trap_cb>> trap_cbs_;
  std::vector<Registration<s4e_exit_cb>> exit_cbs_;
  struct IcountRegistration {
    u64 icount;
    s4e_icount_cb callback;
    void* userdata;
  };
  std::vector<IcountRegistration> icount_cbs_;
  // Exec-callback hook state (see set_hooks). Site 0 means "not hooked".
  std::vector<HookSite> hook_sites_{HookSite{}};
  std::map<std::pair<std::uintptr_t, u64>, u16> hook_site_index_;
  std::vector<Registration<s4e_insn_exec_cb>> insn_requests_;
  // The per-instruction request masks of the block being translated; set
  // only while its tb_trans callbacks run.
  std::vector<u64>* trans_requests_ = nullptr;

  std::unique_ptr<s4e_vm> vm_handle_;
};

}  // namespace s4e::vp
