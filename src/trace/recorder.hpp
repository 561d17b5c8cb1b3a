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
// Only the instructions whose event needs run-time state get a callback:
// divides read their dividend at issue, before execution can overwrite
// it; atomics, CSR ops and ecall/ebreak/wfi stay pending until their
// outcome (memory event, trap, run end) arrives. Loads and stores are
// opened by their memory event (or their access-fault trap), which names
// their PC. Everything else is derived from the block lists tb_trans
// hands over: at each
// callback the icount delta says how many instructions ran unobserved
// since the last one, and they are replayed from the cursor — straight-
// line arithmetic runs, multiplies and jal statically; branches, jalr and
// mret, which always end a block, from the PC the next event reports (the
// next block head, a fetch trap or interrupt, or the run's final PC). A
// branch to its own fall-through is the exception and reads its operands
// at issue.
//
// Timing-path-sensitive sites (cycle/time CSR reads, CLINT/GPIO loads,
// CLINT stores, interrupts, non-final wfi) are recorded as taint events:
// the captured path is only valid for the recording configuration, and
// replay refuses such traces per-site instead of producing fiction.
#pragma once

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
  // What a translated block's instruction list says about the instruction
  // at one PC: whether it needs a callback (kObserved) or which event it
  // emits without one.
  struct StaticInsn {
    enum Kind : u8 {
      kUnknown,
      kPlain,
      kMul,
      kJal,
      // Control flow that ends its block: resolved from the next PC.
      kBranch,
      kJalr,
      kMret,
      // Opened by their memory event (or access-fault trap).
      kLoad,
      kStore,
      kObserved,  // needs an insn_exec callback
    };
    Kind kind = kUnknown;
    u8 length = 0;
    // kPlain: this and the next plain_run - 1 instructions of its block
    // are plain and of this length.
    u16 plain_run = 0;
    i32 imm = 0;  // kJal, kBranch: target offset
  };
  struct Pending {
    u32 pc = 0;
    u32 length = 0;
    u16 op = 0;
    u8 op_class = 0;
    MemAccess mem[2];
    unsigned mem_count = 0;
  };

  // Emit the events of the unobserved instructions retired up to `icount`;
  // `next_pc` is where execution continues after them.
  void catch_up(u64 icount, u32 next_pc);
  StaticInsn& static_slot(u32 pc);
  StaticInsn static_at(u32 pc) const noexcept {
    const u32 slot = (pc - static_base_) / 2;
    return pc >= static_base_ && slot < static_.size() ? static_[slot]
                                                       : StaticInsn{};
  }
  // Account the instruction at `pc` (retiring after `icount` others):
  // catch up to it, flush the pending one and check the cursor.
  void begin_insn(u64 icount, u32 pc);
  // begin_insn() for a load or store, which becomes the pending one.
  void begin_mem_insn(u64 icount, u32 pc);
  void flush_run();
  void taint_at(TaintKind kind);
  void flush_pending(const vp::RunResult* result);
  void advance(u32 length) { cursor_ += length; }

  Config config_;
  Writer writer_;
  // StaticInsn per 2-byte PC slot from static_base_ on.
  std::vector<StaticInsn> static_;
  u32 static_base_ = 0;
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
