#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "vp/machine.hpp"
#include "vp/plugin.hpp"

namespace s4e::vp {
namespace {

using assembler::assemble;

// Assemble, load and run `source`; returns the result.
RunResult run_source(Machine& machine, std::string_view source) {
  auto program = assemble(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  EXPECT_TRUE(machine.load_program(*program).ok());
  return machine.run();
}

RunResult run_source(std::string_view source) {
  Machine machine;
  return run_source(machine, source);
}

// Exit idiom that leaves a0..a6 untouched (tests inspect registers after
// the run; the exit code is then whatever a0 happens to hold).
constexpr const char* kExit0 = R"(
    li a7, 93
    ecall
)";

TEST(Machine, EcallExit) {
  auto result = run_source(R"(
    li a7, 93
    li a0, 17
    ecall
  )");
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 17);
  EXPECT_EQ(result.instructions, 3u);
}

TEST(Machine, TestDeviceExit) {
  auto result = run_source(R"(
    li t0, 0x100000
    li t1, 0x5555
    sw t1, 0(t0)
  )");
  EXPECT_EQ(result.reason, StopReason::kExitTestDevice);
  EXPECT_EQ(result.exit_code, 0);
}

TEST(Machine, TestDeviceFailCode) {
  auto result = run_source(R"(
    li t0, 0x100000
    li t1, (7 << 16) + 0x3333
    sw t1, 0(t0)
  )");
  EXPECT_EQ(result.reason, StopReason::kExitTestDevice);
  EXPECT_EQ(result.exit_code, 7);
}

TEST(Machine, ArithmeticLoop) {
  Machine machine;
  auto result = run_source(machine, R"(
    li a0, 0
    li t0, 10
loop:
    add a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
  )");
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 55);  // 10+9+...+1
}

TEST(Machine, MemoryReadWrite) {
  Machine machine;
  auto result = run_source(machine, R"(
    la t0, buffer
    li t1, 0xabcd
    sw t1, 0(t0)
    lw a0, 0(t0)
    li a7, 93
    ecall
.data
buffer:
    .space 16
  )");
  EXPECT_EQ(result.exit_code, 0xabcd);
}

TEST(Machine, SignExtendingLoads) {
  Machine machine;
  auto result = run_source(machine, R"(
    la t0, bytes
    lb a0, 0(t0)     # 0xff -> -1
    lbu a1, 0(t0)    # 0xff -> 255
    lh a2, 0(t0)     # 0x80ff -> sign-extended
    lhu a3, 0(t0)
    add a0, a0, a1   # -1 + 255 = 254
    li a7, 93
    mv a0, a0
    ecall
.data
bytes:
    .half 0x80ff
  )");
  EXPECT_EQ(result.exit_code, 254);
  EXPECT_EQ(machine.cpu().read_gpr(12), 0xffff80ffu);  // a2 sign-extended
  EXPECT_EQ(machine.cpu().read_gpr(13), 0x80ffu);      // a3 zero-extended
}

TEST(Machine, MulDivSemantics) {
  Machine machine;
  run_source(machine, std::string(R"(
    li t0, -7
    li t1, 2
    mul a0, t0, t1     # -14
    div a1, t0, t1     # -3 (trunc toward zero)
    rem a2, t0, t1     # -1
    li t2, 0
    div a3, t0, t2     # div by zero -> -1
    rem a4, t0, t2     # rem by zero -> rs1
    divu a5, t0, t1
)") + kExit0);
  EXPECT_EQ(static_cast<i32>(machine.cpu().read_gpr(10)), -14);
  EXPECT_EQ(static_cast<i32>(machine.cpu().read_gpr(11)), -3);
  EXPECT_EQ(static_cast<i32>(machine.cpu().read_gpr(12)), -1);
  EXPECT_EQ(machine.cpu().read_gpr(13), 0xffffffffu);
  EXPECT_EQ(static_cast<i32>(machine.cpu().read_gpr(14)), -7);
}

TEST(Machine, DivOverflowCase) {
  Machine machine;
  run_source(machine, std::string(R"(
    li t0, 0x80000000
    li t1, -1
    div a0, t0, t1
    rem a1, t0, t1
)") + kExit0);
  EXPECT_EQ(machine.cpu().read_gpr(10), 0x80000000u);
  EXPECT_EQ(machine.cpu().read_gpr(11), 0u);
}

TEST(Machine, X0StaysZero) {
  Machine machine;
  run_source(machine, std::string(R"(
    li t0, 5
    add zero, t0, t0
    addi x0, x0, 100
)") + kExit0);
  EXPECT_EQ(machine.cpu().read_gpr(0), 0u);
}

TEST(Machine, UnhandledTrapStops) {
  auto result = run_source("lw a0, 0(zero)\n");  // load from unmapped 0x0
  EXPECT_EQ(result.reason, StopReason::kTrapUnhandled);
  EXPECT_EQ(result.trap_cause, kCauseLoadFault);
}

TEST(Machine, EbreakStops) {
  auto result = run_source("ebreak\n");
  EXPECT_EQ(result.reason, StopReason::kEbreak);
}

TEST(Machine, IllegalInstructionStops) {
  Machine machine;
  auto program = assemble(".word 0xffffffff\n");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(machine.load_program(*program).ok());
  auto result = machine.run();
  EXPECT_EQ(result.reason, StopReason::kTrapUnhandled);
  EXPECT_EQ(result.trap_cause, kCauseIllegalInstruction);
}

TEST(Machine, MaxInstructionsHangDetector) {
  MachineConfig config;
  config.max_instructions = 1000;
  Machine machine(config);
  auto result = run_source(machine, "spin: j spin\n");
  EXPECT_EQ(result.reason, StopReason::kMaxInstructions);
  EXPECT_GE(result.instructions, 1000u);
}

// A trap handler whose own first instruction cannot be fetched: every
// dispatch takes another fetch trap without retiring an instruction, so the
// instruction budget alone never ends the run. The machine must stop it.
RunResult run_unfetchable_handler(bool careful) {
  MachineConfig config;
  config.max_instructions = 1000;
  Machine machine(config);
  auto program = assemble(R"(
    la t0, bad
    csrw mtvec, t0
    .word 0
  bad:
    .word 0
  )");
  EXPECT_TRUE(program.ok());
  EXPECT_TRUE(machine.load_program(*program).ok());
  // A breakpoint at an address never executed forces the careful loop.
  if (careful) machine.add_breakpoint(config.ram_base + config.ram_size - 2);
  const RunResult result = machine.run();
  const EngineStats& stats = machine.engine_stats();
  EXPECT_EQ(careful ? stats.blocks_fast : stats.blocks_careful, 0u);
  return result;
}

TEST(Machine, UnfetchableTrapHandlerStopsChained) {
  const RunResult result = run_unfetchable_handler(false);
  EXPECT_EQ(result.reason, StopReason::kTrapUnhandled);
  EXPECT_EQ(result.trap_cause, kCauseIllegalInstruction);
  EXPECT_LT(result.instructions, 1000u);
  EXPECT_NE(result.detail.find("cannot be fetched"), std::string::npos)
      << result.detail;
  EXPECT_NE(result.detail.find(format("pc=0x%08x", result.final_pc)),
            std::string::npos)
      << result.detail;
}

TEST(Machine, UnfetchableTrapHandlerStopsCareful) {
  const RunResult result = run_unfetchable_handler(true);
  EXPECT_EQ(result.reason, StopReason::kTrapUnhandled);
  EXPECT_EQ(result.trap_cause, kCauseIllegalInstruction);
  EXPECT_LT(result.instructions, 1000u);
  EXPECT_NE(result.detail.find(format("pc=0x%08x", result.final_pc)),
            std::string::npos)
      << result.detail;
}

TEST(Machine, RunBudgetSaturates) {
  // run(max_insns) computes `icount + max_insns`; on a warm machine with a
  // huge budget the sum used to wrap to a tiny limit and stop the run after
  // a single step. The limit must saturate instead.
  Machine machine;
  auto program = assemble(R"(
    li t0, 100
  loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 7
    ecall
  )");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(machine.load_program(*program).ok());
  // Warm the instruction counter, then ask for an effectively unlimited
  // continuation: the run must complete normally, not stop immediately.
  auto first = machine.run(5);
  EXPECT_EQ(first.reason, StopReason::kMaxInstructions);
  auto rest = machine.run(~u64{0});
  EXPECT_EQ(rest.reason, StopReason::kExitEcall);
  EXPECT_EQ(rest.exit_code, 7);
}

TEST(Machine, TrapHandlerCatchesEcall) {
  Machine machine;
  auto result = run_source(machine, R"(
    la t0, handler
    csrw mtvec, t0
    ecall              # traps to handler (a7 != 93)
    j fail
handler:
    csrr a0, mcause    # 11 = ecall from M
    li a7, 93
    ecall              # a7 == 93 now? no — a7 set; but mcause in a0
fail:
    ebreak
  )");
  // The second ecall has a7 == 93, so it exits with code = mcause = 11.
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 11);
}

TEST(Machine, MretReturnsFromTrap) {
  Machine machine;
  auto result = run_source(machine, R"(
    la t0, handler
    csrw mtvec, t0
    li a1, 0
    ecall            # trap, handler advances mepc and returns
    li a1, 42        # executed after mret
    li a7, 93
    mv a0, a1
    ecall
    j end
handler:
    csrr t1, mepc
    addi t1, t1, 4
    csrw mepc, t1
    mret
end:
    ebreak
  )");
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 42);
}

TEST(Machine, TimerInterruptFires) {
  Machine machine;
  auto result = run_source(machine, R"(
.equ CLINT, 0x2000000
    la t0, handler
    csrw mtvec, t0
    li t0, CLINT + 0x4000
    li t1, 500           # mtimecmp = 500 cycles
    sw t1, 0(t0)
    sw zero, 4(t0)
    li t2, 128           # mie.MTIE
    csrw mie, t2
    csrsi mstatus, 8     # mstatus.MIE
spin:
    j spin
handler:
    csrr a0, mcause
    li a7, 93
    li a0, 1
    ecall
  )");
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_GE(result.cycles, 500u);
}

TEST(Machine, WfiWaitsForTimer) {
  Machine machine;
  auto result = run_source(machine, R"(
.equ CLINT, 0x2000000
    la t0, handler
    csrw mtvec, t0
    li t0, CLINT + 0x4000
    li t1, 10000
    sw t1, 0(t0)
    sw zero, 4(t0)
    li t2, 128
    csrw mie, t2
    csrsi mstatus, 8
    wfi                  # sleep until mtime >= mtimecmp
    j fail
handler:
    li a7, 93
    li a0, 5
    ecall
fail:
    ebreak
  )");
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 5);
  EXPECT_GE(result.cycles, 10000u);
}

TEST(Machine, VectoredInterruptDispatch) {
  // mtvec mode 1: interrupts vector to base + 4 * cause. The machine timer
  // (cause 7) must land on the 7th vector slot, not on the base.
  Machine machine;
  auto result = run_source(machine, R"(
.equ CLINT_CMP, 0x2004000
    la t0, vectors
    ori t0, t0, 1        # vectored mode
    csrw mtvec, t0
    li t0, CLINT_CMP
    li t1, 300
    sw t1, 0(t0)
    sw zero, 4(t0)
    li t2, 128
    csrw mie, t2
    csrsi mstatus, 8
spin:
    j spin
.align 4
vectors:
    j bad_vector         # cause 0
    j bad_vector         # 1
    j bad_vector         # 2
    j bad_vector         # 3
    j bad_vector         # 4
    j bad_vector         # 5
    j bad_vector         # 6
    j timer_vector       # 7 = machine timer
bad_vector:
    li a0, 1
    li a7, 93
    ecall
timer_vector:
    li a0, 42
    li a7, 93
    ecall
  )");
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 42);
}

TEST(Machine, GuestDrivesGpio) {
  Machine machine;
  machine.gpio()->set_in(0x0f);
  auto result = run_source(machine, R"(
.equ GPIO, 0x10010000
    li t0, GPIO
    lw a0, 16(t0)     # read inputs
    sw a0, 0(t0)      # mirror to outputs
    li t1, 0xf0
    sw t1, 4(t0)      # SET high nibble
    li a7, 93
    ecall
  )");
  EXPECT_EQ(result.exit_code, 0x0f);
  EXPECT_EQ(machine.gpio()->out(), 0xffu);
  EXPECT_EQ(machine.gpio()->changes().size(), 2u);
}

TEST(Machine, WfiWithoutTimerHalts) {
  auto result = run_source("wfi\n");
  EXPECT_EQ(result.reason, StopReason::kWfiHalt);
}

TEST(Machine, UartTransmit) {
  Machine machine;
  auto result = run_source(machine, R"(
.equ UART, 0x10000000
    li t0, UART
    la t1, msg
next:
    lbu t2, 0(t1)
    beqz t2, done
    sw t2, 0(t0)
    addi t1, t1, 1
    j next
done:
    li a7, 93
    li a0, 0
    ecall
.data
msg:
    .asciz "hello"
  )");
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(machine.uart()->tx_log(), "hello");
  EXPECT_EQ(machine.uart()->tx_count(), 5u);
}

TEST(Machine, UartReceive) {
  Machine machine;
  machine.uart()->push_rx("AB");
  auto result = run_source(machine, R"(
.equ UART, 0x10000000
    li t0, UART
    lw a0, 4(t0)       # 'A'
    lw a1, 4(t0)       # 'B'
    lw a2, 4(t0)       # empty -> 0xffffffff
    li a7, 93
    ecall
  )");
  EXPECT_EQ(result.exit_code, 'A');
  EXPECT_EQ(machine.cpu().read_gpr(11), u32{'B'});
  EXPECT_EQ(machine.cpu().read_gpr(12), 0xffffffffu);
}

TEST(Machine, CyclesExceedInstructions) {
  Machine machine;
  auto result = run_source(machine, R"(
    li t0, 100
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )");
  EXPECT_GT(result.cycles, result.instructions);
}

TEST(Machine, CsrCountersReadable) {
  Machine machine;
  run_source(machine, std::string(R"(
    nop
    nop
    csrr a0, minstret
    csrr a1, mcycle
)") + kExit0);
  // After two nops, minstret read (3rd insn) sees icount >= 2.
  EXPECT_GE(machine.cpu().read_gpr(10), 2u);
  EXPECT_GE(machine.cpu().read_gpr(11), machine.cpu().read_gpr(10));
}

TEST(Machine, CsrCounterReadIncludesCurrentInstruction) {
  // instret is defined to include the reading instruction itself: a csrr
  // as the very first instruction observes exactly 1 (see
  // Machine::counter_view()).
  Machine machine;
  run_source(machine, std::string(R"(
    csrr a0, instret
    csrr a1, instret
)") + kExit0);
  EXPECT_EQ(machine.cpu().read_gpr(10), 1u);
  EXPECT_EQ(machine.cpu().read_gpr(11), 2u);
}

TEST(Machine, CsrCounterMidBlockReadsMatchUncachedMode) {
  // cycle/instret reads in the middle of a hot block must observe the same
  // values whether the block comes from the TB cache or is re-decoded every
  // time (enable_tb_cache=false): both paths share Machine::counter_view().
  const char* source = R"(
    li t0, 30
    li a2, 0
loop:
    csrr a0, instret      # mid-block counter reads, re-executed 30 times
    csrr a1, cycle
    add a2, a2, a0
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
  )";
  Machine cached;
  auto r1 = run_source(cached, source);
  MachineConfig config;
  config.enable_tb_cache = false;
  Machine uncached(config);
  auto r2 = run_source(uncached, source);
  EXPECT_EQ(r1.instructions, r2.instructions);
  EXPECT_EQ(r1.cycles, r2.cycles);
  // Final architectural state of every counter-derived register agrees.
  EXPECT_EQ(cached.cpu().read_gpr(10), uncached.cpu().read_gpr(10));
  EXPECT_EQ(cached.cpu().read_gpr(11), uncached.cpu().read_gpr(11));
  EXPECT_EQ(cached.cpu().read_gpr(12), uncached.cpu().read_gpr(12));
  // And the last in-loop instret read includes the reading instruction:
  // the csrr is instruction 3 of the 5-instruction loop body, first
  // executed as icount 3 (after the two li), then every 5 instructions.
  EXPECT_EQ(cached.cpu().read_gpr(10), 3u + 29u * 5u);
}

TEST(Machine, SelfModifyingCodeFlushesTbCache) {
  Machine machine;
  auto result = run_source(machine, R"(
    la t0, patch_site
    # Patch 'li a0, 1' (0x00100513) over 'li a0, 9' at patch_site.
    li t1, 0x00100513
    sw t1, 0(t0)
patch_site:
    li a0, 9
    li a7, 93
    ecall
  )");
  EXPECT_EQ(result.exit_code, 1);
  // The store re-lowered the patched block in place (li stays an addi, so
  // the block keeps its shape): nothing was dropped, and nothing flushed
  // (construction and load_program flushed an empty cache, which counts
  // nothing).
  EXPECT_EQ(machine.tb_cache().relowered_blocks(), 1u);
  EXPECT_EQ(machine.tb_cache().invalidated_blocks(), 0u);
  EXPECT_EQ(machine.tb_cache().flush_count(), 0u);
}

// Code whose last byte is the last byte of the address space: RAM ends at
// 2^32, and a block ending there is still seen by the self-modification
// check. `bump` (three `addi a0, a0, 1` and a `ret`) is written to the top
// 16 bytes; `_start` calls it, patches its first word to
// `addi a0, a0, 100`, calls it again and exits with a0: 3 + 102 = 105.
const char* kTopOfAddressSpaceSource = R"(
    li a0, 0
    li s0, 0xfffffff0
    jalr ra, 0(s0)
    li t1, 0x06450513
    sw t1, 0(s0)
    jalr ra, 0(s0)
    li a7, 93
    ecall
)";

void write_top_of_address_space_code(Machine& machine) {
  const u32 bump[4] = {0x00150513u, 0x00150513u, 0x00150513u, 0x00008067u};
  ASSERT_TRUE(machine.bus().ram_write(0xffff'fff0u, bump, sizeof bump).ok());
}

TEST(Machine, SelfModifyingCodeAtTopOfAddressSpace) {
  auto program = assembler::assemble(kTopOfAddressSpaceSource);
  ASSERT_TRUE(program.ok());
  for (const bool cached : {true, false}) {
    MachineConfig config;
    config.ram_size = 0x8000'0000;
    config.enable_tb_cache = cached;
    Machine machine(config);
    ASSERT_TRUE(machine.load_program(*program).ok());
    write_top_of_address_space_code(machine);
    const RunResult result = machine.run();
    EXPECT_EQ(result.reason, StopReason::kExitEcall) << cached;
    EXPECT_EQ(result.exit_code, 105) << cached;
  }
}

// A restore that changes that code reaches its translation too: the run
// after it starts from the original `bump` again.
TEST(Machine, RestoreChangesCodeAtTopOfAddressSpace) {
  auto program = assembler::assemble(kTopOfAddressSpaceSource);
  ASSERT_TRUE(program.ok());
  MachineConfig config;
  config.ram_size = 0x8000'0000;
  Machine machine(config);
  ASSERT_TRUE(machine.load_program(*program).ok());
  write_top_of_address_space_code(machine);
  Snapshot snap;
  machine.save_state(snap);
  for (int round = 0; round < 3; ++round) {
    if (round != 0) machine.restore_state(snap);
    const RunResult result = machine.run();
    EXPECT_EQ(result.exit_code, 105) << round;
  }
  EXPECT_EQ(machine.snapshot_stats().tb_blocks_relowered, 2u);
}

// RAM may end exactly at 2^32: the bus and the engine check ranges by
// offset, so base + size wrapping to 0 refuses nothing.
TEST(Machine, RamEndingAtTopOfAddressSpaceRuns) {
  MachineConfig config;
  config.ram_size = 0x8000'0000;
  Machine machine(config);
  const RunResult result = run_source(machine, R"(
    li a0, 7
    li a7, 93
    ecall
  )");
  EXPECT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 7);
  EXPECT_EQ(machine.cpu().read_gpr(2), 0xffff'fff0u);  // sp: top of RAM - 16
}

TEST(Machine, TbCacheReusesBlocks) {
  Machine machine;
  run_source(machine, R"(
    li t0, 50
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )");
  // The loop body must be translated once and reused.
  EXPECT_LE(machine.tb_cache().size(), 8u);
}

TEST(Machine, UncachedModeMatchesCached) {
  const char* source = R"(
    li a0, 0
    li t0, 20
loop:
    add a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
  )";
  Machine cached;
  auto r1 = run_source(cached, source);
  MachineConfig config;
  config.enable_tb_cache = false;
  Machine uncached(config);
  auto r2 = run_source(uncached, source);
  EXPECT_EQ(r1.exit_code, r2.exit_code);
  EXPECT_EQ(r1.instructions, r2.instructions);
  EXPECT_EQ(r1.cycles, r2.cycles);
}

TEST(Machine, ResetClearsState) {
  Machine machine;
  run_source(machine, std::string("li t3, 99\n") + kExit0);
  EXPECT_NE(machine.cpu().read_gpr(28), 0u);
  machine.reset();
  EXPECT_EQ(machine.cpu().read_gpr(28), 0u);
  EXPECT_EQ(machine.icount(), 0u);
  EXPECT_EQ(machine.cycles(), 0u);
}

// ---------------------------------------------------------------------------
// Plugin API.

struct CountingPlugin : PluginBase {
  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.tb_trans = subs.tb_exec = subs.insn_exec = subs.mem = subs.trap =
        subs.exit = true;
    return subs;
  }
  void on_tb_trans(const s4e_tb_info& tb) override {
    ++tb_trans;
    insns_seen += tb.n_insns;
  }
  void on_tb_exec(u32) override { ++tb_exec; }
  void on_insn_exec(const s4e_insn_info&) override { ++insn_exec; }
  void on_mem(const s4e_mem_event& event) override {
    if (event.is_store) ++stores; else ++loads;
  }
  void on_trap(const s4e_trap_event&) override { ++traps; }
  void on_exit(int code) override { exit_code = code; ++exits; }

  u64 tb_trans = 0, tb_exec = 0, insn_exec = 0;
  u64 loads = 0, stores = 0, traps = 0, exits = 0;
  u64 insns_seen = 0;
  int exit_code = -100;
};

TEST(PluginApi, CallbackCountsMatchExecution) {
  Machine machine;
  CountingPlugin plugin;
  plugin.attach(machine.vm_handle());
  auto result = run_source(machine, R"(
    la t0, buf
    li t1, 3
loop:
    sw t1, 0(t0)
    lw t2, 0(t0)
    addi t1, t1, -1
    bnez t1, loop
    li a7, 93
    li a0, 4
    ecall
.data
buf:
    .space 4
  )");
  EXPECT_EQ(result.exit_code, 4);
  EXPECT_EQ(plugin.insn_exec, result.instructions);
  EXPECT_EQ(plugin.stores, 3u);
  EXPECT_EQ(plugin.loads, 3u);
  EXPECT_EQ(plugin.exits, 1u);
  EXPECT_EQ(plugin.exit_code, 4);
  EXPECT_GT(plugin.tb_exec, plugin.tb_trans);  // loop blocks reused
}

TEST(PluginApi, TrapCallbackFires) {
  Machine machine;
  CountingPlugin plugin;
  plugin.attach(machine.vm_handle());
  run_source(machine, "ebreak\n");
  EXPECT_EQ(plugin.traps, 1u);
}

TEST(PluginApi, StateAccessors) {
  Machine machine;
  auto program = assemble(std::string("li t0, 7\n") + R"(
    li a7, 93
    li a0, 0
    ecall
  )");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(machine.load_program(*program).ok());
  machine.run();
  s4e_vm* vm = machine.vm_handle();
  EXPECT_EQ(s4e_read_gpr(vm, 5), 7u);
  s4e_write_gpr(vm, 5, 123u);
  EXPECT_EQ(machine.cpu().read_gpr(5), 123u);
  s4e_write_gpr(vm, 0, 55u);  // x0 writes ignored
  EXPECT_EQ(s4e_read_gpr(vm, 0), 0u);
  EXPECT_GT(s4e_icount(vm), 0u);
  EXPECT_GE(s4e_cycles(vm), s4e_icount(vm));
}

TEST(PluginApi, MemAccessors) {
  Machine machine;
  s4e_vm* vm = machine.vm_handle();
  const u32 address = machine.config().ram_base + 0x100;
  const u32 value = 0xcafebabe;
  EXPECT_EQ(s4e_write_mem(vm, address, &value, 4), 0);
  u32 readback = 0;
  EXPECT_EQ(s4e_read_mem(vm, address, &readback, 4), 0);
  EXPECT_EQ(readback, value);
  // Outside RAM fails cleanly.
  EXPECT_EQ(s4e_read_mem(vm, 0x1000, &readback, 4), -1);
}

// A forced bit holds across guest and out-of-band writes and is dropped by
// reset(); bad targets are refused without forcing anything.
TEST(PluginApi, ForcedBitsHoldAcrossWrites) {
  Machine machine;
  s4e_vm* vm = machine.vm_handle();
  const u32 address = machine.config().ram_base + 0x100;
  EXPECT_EQ(s4e_force_gpr_bit(vm, 0, 0, 3, 1), -1);   // x0
  EXPECT_EQ(s4e_force_gpr_bit(vm, 1, 5, 3, 1), -1);   // no hart 1
  EXPECT_EQ(s4e_force_gpr_bit(vm, 0, 5, 32, 1), -1);  // no bit 32
  EXPECT_EQ(s4e_force_mem_bit(vm, 0x1000, 0, 1), -1);  // not RAM
  EXPECT_EQ(s4e_force_mem_bit(vm, address, 8, 1), -1);

  EXPECT_EQ(s4e_force_gpr_bit(vm, 0, 5, 3, 1), 0);
  EXPECT_EQ(s4e_force_gpr_bit(vm, 0, 5, 0, 0), 0);
  EXPECT_EQ(s4e_read_gpr(vm, 5), 0x8u);
  s4e_write_gpr(vm, 5, 0x11u);
  EXPECT_EQ(s4e_read_gpr(vm, 5), 0x18u);

  EXPECT_EQ(s4e_force_mem_bit(vm, address + 1, 7, 1), 0);
  EXPECT_EQ(s4e_force_mem_bit(vm, address + 2, 0, 1), -1);  // a second byte
  const u32 zero = 0;
  EXPECT_EQ(s4e_write_mem(vm, address, &zero, 4), 0);
  u32 readback = 0;
  EXPECT_EQ(s4e_read_mem(vm, address, &readback, 4), 0);
  EXPECT_EQ(readback, 0x8000u);

  // The guest's own writes: t0 (x5) and the word at `address`.
  auto program = assemble(R"(
    li t1, 0x80000100
    sw zero, 0(t1)
    lw a0, 0(t1)
    li t0, 0x11
    add a0, a0, t0
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(machine.load_program(*program).ok());
  EXPECT_EQ(machine.run().exit_code, 0x8018);

  machine.reset();
  ASSERT_TRUE(machine.load_program(*program).ok());
  EXPECT_EQ(machine.run().exit_code, 0x11);
}

TEST(PluginApi, RequestExitStopsRun) {
  Machine machine;
  struct ExitPlugin : PluginBase {
    Subscriptions subscriptions() const override {
      Subscriptions subs;
      subs.insn_exec = true;
      return subs;
    }
    void on_insn_exec(const s4e_insn_info&) override {
      if (++count == 10) s4e_request_exit(vm(), 77);
    }
    int count = 0;
  } plugin;
  plugin.attach(machine.vm_handle());
  auto result = run_source(machine, "spin: j spin\n");
  EXPECT_EQ(result.reason, StopReason::kExitRequested);
  EXPECT_EQ(result.exit_code, 77);
}

TEST(Timing, WorstCaseDominatesDynamic) {
  TimingModel model;
  Rng rng(42);
  for (unsigned i = 0; i < isa::kOpCount; ++i) {
    isa::Instr instr;
    instr.op = static_cast<isa::Op>(i);
    const isa::OpClass op = instr.info().op_class;
    for (int trial = 0; trial < 100; ++trial) {
      // The dynamic cost: the class cost the engine lowers, plus the
      // operand-dependent divide latency the divide handlers add.
      const u32 divide =
          op == isa::OpClass::kDiv ? model.divide_cycles(rng.next_u32()) : 0;
      // Worst case excludes the redirect penalty (modelled on edges) and
      // must dominate the non-redirect dynamic cost in all contexts.
      EXPECT_GE(model.worst_case_cycles(instr),
                model.class_cycles(op, false, true) + divide)
          << isa::mnemonic(instr.op);
      EXPECT_GE(model.worst_case_cycles(instr) + model.edge_cycles(),
                model.class_cycles(op, true, true) + divide)
          << isa::mnemonic(instr.op);
    }
  }
}

TEST(Timing, DivideEarlyOut) {
  TimingModel model;
  EXPECT_LT(model.divide_cycles(1), model.divide_cycles(0xffffffffu));
  EXPECT_LE(model.divide_cycles(0xffffffffu),
            model.params().div_max_cycles);
  EXPECT_GE(model.divide_cycles(0), model.params().div_min_cycles);
}

}  // namespace
}  // namespace s4e::vp
