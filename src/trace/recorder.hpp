// Trace recorder — the capture half of capture-once / replay-many.
//
// A TraceRecorder is a VP plugin (tb_exec + mem + trap subscriptions plus
// insn_exec callbacks requested at translation time; callbacks do not
// change modelled cycles, so recording does not perturb the timing it
// captures, and the recorded run keeps the exec engine's chained fast
// path). It reconstructs, from the callback stream and the translated
// blocks' instruction lists, exactly the information every TimingParams
// configuration charges for:
//
//   - the block-dispatch sequence (icache probes),
//   - each conditional branch's PC and taken direction (predictor state),
//   - each instruction's latency class and byte length,
//   - RAM vs MMIO classification of every data access,
//   - each divide's dividend (iterative-divider early-out),
//   - synchronous traps with cause and handler entry.
//
// Each block is compiled once, at tb_trans, into a plan. Its static
// instructions — straight-line arithmetic (run-length encoded), multiplies,
// jal — are pre-encoded into a template, split into stretches at the
// dynamic ones: a load or store (its access gives the address delta and
// RAM vs MMIO), a divide (its dividend, read at issue, before execution
// can overwrite it), a branch to its own fall-through (its operands, read
// at issue), and the CSR, system and atomic instructions that stay pending
// until their outcome (memory event, trap, run end) arrives. Only the
// divides, those branches and the pending kinds get a callback. At each
// callback the icount delta says how many instructions ran unobserved
// since the last one: they are the stretch up to it, appended as one slice
// of the template. A block's exit — a branch, jalr or mret, which always
// ends it — is resolved from the PC the next event reports (the next block
// head, a fetch trap or interrupt, or the run's final PC). A stretch cut
// short (a budget stop, a trap, a careful-mode boundary) re-encodes only
// the part of the plain run it cut, and a run that ends a stretch before a
// pending instruction stays open until the next event, so the bytes after
// finish() are those a per-instruction walk of the same callbacks writes.
// stream_size() before finish() may differ from that walk's: a load or
// store is written when its access arrives, so a run stopped right after
// one already counts its event.
//
// Timing-path-sensitive sites (cycle/time CSR reads, CLINT/GPIO loads,
// CLINT stores, interrupts, non-final wfi) are recorded as taint events:
// the captured path is only valid for the recording configuration, and
// replay refuses such traces per-site instead of producing fiction.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "trace/format.hpp"
#include "vp/machine.hpp"
#include "vp/plugin.hpp"

namespace s4e::trace {

class TraceRecorder final : public vp::PluginBase {
 public:
  struct Config {
    u64 fingerprint = 0;            // program_fingerprint() of the workload
    u32 entry_pc = 0;
    vp::TimingParams recorded;      // the recording machine's timing config
    u32 ram_base = 0x8000'0000;     // RAM window for MMIO classification
    u32 ram_size = 4u << 20;
  };

  // The usual wiring: fingerprint + entry from the program, timing + RAM
  // window from the machine configuration.
  static Config config_for(const vp::MachineConfig& machine,
                           const assembler::Program& program);

  explicit TraceRecorder(const Config& config);

  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.tb_exec = true;
    subs.insn_requests = true;
    subs.mem = true;
    subs.trap = true;
    return subs;
  }

  // attach() with the recorder's preconditions checked: single-hart only
  // (an SMP interleaving is not a single PC stream).
  Status attach_checked(s4e_vm* vm);

  void on_tb_trans(const s4e_tb_info& tb) override;
  void on_tb_exec(u32 tb_start) override;
  void on_insn_exec(const s4e_insn_info& insn) override;
  void on_mem(const s4e_mem_event& event) override;
  void on_trap(const s4e_trap_event& event) override;

  // Flush pending state and write the trace (temp + fsync + rename). The
  // RunResult disambiguates the final instruction (wfi halt vs sleep) and
  // supplies the footer facts (stop reason, cycles for the self check).
  Status finish(const vp::RunResult& result, const std::string& path);

  // finish() without the file: serialized trace bytes (tests, benches).
  std::vector<u8> finish_bytes(const vp::RunResult& result);

  u64 instructions() const noexcept { return instructions_; }
  u64 blocks() const noexcept { return blocks_; }
  u64 mem_accesses() const noexcept { return mem_accesses_; }
  u64 taints() const noexcept { return taints_; }
  std::size_t stream_size() const noexcept { return writer_.stream_size(); }

 private:
  struct MemAccess {
    u32 addr = 0;
    u8 size = 0;
    bool store = false;
    bool mmio = false;
  };
  // What a translated block's instruction list says about one instruction:
  // its event is fixed at translation (the static kinds), written when its
  // memory access arrives, read at issue by a callback, or, for control
  // flow that ends the block, resolved from the next PC.
  enum class Kind : u8 {
    kPlain,
    kMul,
    kJal,  // ends its block
    kLoad,
    kStore,
    // Need an insn_exec callback: an instruction whose event is written at
    // issue (a divide, a branch to its own fall-through), or one pending
    // until its outcome arrives (CSR, system and atomic instructions).
    kIssue,
    kPending,
    kBranch,
    kJalr,
    kMret,
    kEnd,  // the plan's sentinel, after its last instruction
  };
  static bool is_static(Kind kind) noexcept { return kind <= Kind::kJal; }
  // Control flow that ends its block, resolved from the next PC.
  static bool is_exit(Kind kind) noexcept {
    return kind == Kind::kBranch || kind == Kind::kJalr ||
           kind == Kind::kMret;
  }
  // Every field is set when the plan is compiled.
  struct PlanInsn {
    u32 pc;     // the sentinel: where the block continues (a jal's target)
    i32 imm;    // kBranch: target offset
    u16 bytes;  // where this instruction's event starts in the template (a
                // dynamic one: where the events after it start)
    u8 length;
    Kind kind;
    u8 event;  // first instruction of this one's event (a run's head)
    u8 stop;   // first non-static instruction at or after this one
  };
  // A translated block compiled at tb_trans into one allocation: this
  // header, its instructions plus a sentinel, and its template, the
  // pre-encoded events of its static instructions in order. The static
  // instructions between two dynamic ones form a stretch, whose events are
  // one slice of the template.
  struct Plan {
    u16 insns_at = 0;
    u16 template_at = 0;

    const u8* at(u16 offset) const noexcept {
      return reinterpret_cast<const u8*>(this) + offset;
    }
    const PlanInsn* insns() const noexcept {
      return reinterpret_cast<const PlanInsn*>(at(insns_at));
    }
  };
  struct Pending {
    u32 pc = 0;
    u32 length = 0;
    u16 op = 0;
    u8 op_class = 0;
    MemAccess mem[2];
    unsigned mem_count = 0;
  };

  // Makes the plan in `slot` the one dispatched at `start`.
  void install(u32 start, std::unique_ptr<u8[]> slot);
  // Emit the events of the unobserved instructions retired up to `icount`;
  // `next_pc` is where execution continues after them.
  void catch_up(u64 icount, u32 next_pc);
  // Emit the static instructions [from, to) of the current block.
  void emit_static(u32 from, u32 to);
  // Add `count` plain instructions of `length` bytes to the open run.
  void add_run(u32 length, u32 count) {
    if (run_count_ != 0 && run_length_ != length) flush_run();
    run_length_ = length;
    run_count_ += count;
  }
  // The instructions ran where no block describes them: a contract
  // violation the trace must not hide.
  void lose_track() {
    taint_at(TaintKind::kCursorResync);
    plan_ = nullptr;
  }
  const Plan* plan_at(u32 pc) const noexcept {
    const u32 slot = (pc - plan_base_) / 2;
    return pc >= plan_base_ && slot < plan_at_.size()
               ? reinterpret_cast<const Plan*>(plan_at_[slot].get())
               : nullptr;
  }
  // Account the instruction at `pc` (retiring after `icount` others):
  // catch up to it, flush the pending one and check the cursor. Returns
  // the block's entry for it (nullptr when no block describes it).
  const PlanInsn* begin_insn(u64 icount, u32 pc);
  void flush_run() {
    if (run_count_ == 0) return;
    writer_.run(run_length_, run_count_);
    run_count_ = 0;
  }
  void taint_at(TaintKind kind);
  void flush_pending(const vp::RunResult* result);
  void advance(u32 length) { cursor_ += length; }

  Config config_;
  Writer writer_;
  // The latest plan per 2-byte block-start slot from plan_base_ on.
  std::vector<std::unique_ptr<u8[]>> plan_at_;
  // A block re-translated at the same PC (self-modifying code) may be the
  // one executing: the plan it replaced lives here until the next
  // replacement.
  std::unique_ptr<u8[]> replaced_;
  u32 plan_base_ = 0;
  const Plan* plan_ = nullptr;  // the block executing
  u32 pos_ = 0;                 // its instructions the stream covers
  u64 accounted_ = 0;  // icount of the instructions the stream covers
  std::optional<Pending> pending_;
  u32 run_length_ = 0;   // RLE state: instruction byte length of the run
  u32 run_count_ = 0;
  u32 cursor_ = 0;       // PC of the next expected instruction
  bool cursor_valid_ = true;
  u64 instructions_ = 0;
  u64 blocks_ = 0;
  u64 mem_accesses_ = 0;
  u64 taints_ = 0;
  Footer make_footer(const vp::RunResult& result) const;
};

}  // namespace s4e::trace
