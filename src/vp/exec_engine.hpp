// Threaded-dispatch execution engine: the pre-resolved per-instruction form
// blocks are lowered into at translate time, plus the counters the engine
// exposes.
//
// The old engine re-dispatched every instruction through a big switch on
// isa::Op. The lowered DecodedInsn instead carries a direct handler pointer
// (function-pointer threading — the portable sibling of computed-goto) with
// every translate-time-constant already resolved: the fall-through pc, the
// static branch/jal target, and the three possible timing charges
// (fall-through, redirected, MMIO) precomputed from the TimingParams. The
// hot loop is then `d->fn(machine, *d)` and nothing else.
#pragma once

#include "isa/opcode.hpp"

namespace s4e::vp {

class Machine;
struct DecodedInsn;

// What one handler call did to control flow. The block executors use this to
// decide whether to keep running the block, follow a chain edge, or return
// to central dispatch.
enum class ExecOutcome : u8 {
  kNext,           // fell through; execution continues at d.link
  kTakenStatic,    // redirected to the precomputed d.target (branch/jal)
  kTakenIndirect,  // redirected through a register (jalr/mret): jump-cache
  kStop,           // block must end now: trap taken, stop pending, or flush
};

using ExecHandler = ExecOutcome (*)(Machine&, const DecodedInsn&);

// One lowered instruction. 48 bytes; a 64-insn block's code[] spans 48
// cache lines of pure sequential reads.
struct DecodedInsn {
  ExecHandler fn = nullptr;
  u32 pc = 0;      // instruction address
  u32 link = 0;    // pc + length: fall-through pc and jal/jalr link value
  i32 imm = 0;     // sign-extended immediate (U-type pre-shifted)
  u32 target = 0;  // branch/jal static destination (pc + imm)
  // Timing charges, precomputed from TimingParams at lowering time:
  u32 c_fall = 0;   // not-redirected cost (loads/stores: the RAM path)
  u32 c_taken = 0;  // redirected cost (and the load/store fault path)
  u32 c_mmio = 0;   // load/store device-access path
  u32 raw = 0;      // original encoding (plugin insn info)
  u16 csr = 0;
  isa::Op op{};
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;  // also shamt / CSR zimm
  // Exec-callback hook (see Machine::set_hooks): bit 15 marks a basic-block
  // head; the low bits name the hook site whose callbacks fire before this
  // instruction (0 = none, `fn` is the instruction's own handler).
  u16 hook = 0;
};
static_assert(sizeof(DecodedInsn) == 48);

// Engine-level counters (chaining, jump cache, dispatch mix).
// Cumulative per machine; reset() clears them with the rest of the
// performance counters. The TB-cache-level counters (front-cache hit rate,
// chain severs) live on TbCache.
struct EngineStats {
  u64 chain_patches = 0;     // block->block links written
  u64 chain_follows = 0;     // dispatches that rode an existing link
  u64 jump_cache_hits = 0;   // indirect targets resolved from the 2-entry jc
  u64 jump_cache_misses = 0;
  u64 blocks_fast = 0;     // blocks run by the chained threaded engine
  u64 blocks_careful = 0;  // blocks run by the exact per-insn loop
  // Why blocks ran carefully; the four sum to blocks_careful.
  u64 careful_debug = 0;     // breakpoints or a pending debug stop
  u64 careful_timer = 0;     // armed MTIE/MSIE (per-block interrupt polls)
  u64 careful_uncached = 0;  // the TB-cache-off ablation
  u64 careful_boundary = 0;  // the block holds an icount-callback or budget end
};

// A chain run returns to central dispatch (one "epoch": bus tick, interrupt
// poll, debug/budget checks) at least every kChainQuantum instructions, so
// run_slice pauses and debug-stop requests keep a bounded latency even in
// fully chained code.
inline constexpr u64 kChainQuantum = 4096;
// While Machine::arm_cycle_stop() compares block-head states, the compared
// heads start this many instructions apart (the gap then grows with the
// compare's reference distance): short, so a small cycle shows early.
inline constexpr u64 kCycleCheckQuantum = 16;

}  // namespace s4e::vp
