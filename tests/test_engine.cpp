// Execution-engine suite (`ctest -L engine`): the chained threaded-dispatch
// core must be observationally identical to plain per-block dispatch, and
// every event that invalidates code must sever live chain links.
//
//   E-P1  chained and unchained execution are bit-identical (registers,
//         data-memory hash, icount, cycles) over torture seeds
//   E-R1  a breakpoint inserted mid-run severs chains and still stops
//         exactly at the breakpointed pc
//   E-R2  a code change on a chained successor replaces the stale code —
//         a host-side patch takes effect in both engines
//   E-R3  snapshot-restore with live chains replays to the same final state
//   E-C1  the engine counters move the way the design says they must
//   E-I1  the one-shot icount callback fires exactly once, at the exact
//         instruction, in fast and careful modes and inside a warm block
//   E-I2  it never fires when the budget ends first, does not outlive
//         WorkerVm::prepare, and never stalls a run
//   E-I3  a range invalidation from the callback keeps unrelated blocks warm
//   E-F1  exactness oracle: the fast-path fault injector reproduces the
//         insn_exec-triggered reference injector bit for bit, GPR and
//         memory stuck-at faults add no careful block, and the next
//         prepare() hands back an unforced machine
//   E-O1  callback-stream oracle: with exec callbacks lowered into the
//         translated code, the chained engine delivers exactly the
//         careful loop's callback stream — and the trace recorder's bytes
//         and the QTA report — over every single-hart workload and torture
//         programs; whole-run subscriptions leave warm translations alone
//   TbRewrite  a code change re-lowers a warm block in place exactly when a
//         fresh translation of the new bytes has its shape, and the
//         re-lowered block equals that translation field for field
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "asm/assembler.hpp"
#include "common/strings.hpp"
#include "core/workloads.hpp"
#include "fault/fault.hpp"
#include "isa/encoder.hpp"
#include "mutation/mutation.hpp"
#include "obs/flight_recorder.hpp"
#include "qta/qta.hpp"
#include "testgen/testgen.hpp"
#include "trace/recorder.hpp"
#include "vp/machine.hpp"
#include "wcet/analyzer.hpp"
#include "vp/runner.hpp"
#include "vp/snapshot.hpp"

namespace s4e {
namespace {

std::vector<testgen::GeneratedProgram> programs_for_seed(u64 seed,
                                                         unsigned count) {
  testgen::TortureConfig config;
  config.seed = seed;
  config.programs = count;
  return testgen::torture_suite(config);
}

// A call-heavy hot loop: exercises fall-through chains, the taken-edge
// chain (bnez) and the indirect jump cache (ret), 2000 times over.
const char* kCallLoop = R"(
_start:
    li s0, 0
    li s1, 2000
loop:
    call bump
    addi s1, s1, -1
    bnez s1, loop
    mv a0, s0
    li a7, 93
    ecall
bump:
    addi s0, s0, 1
    addi s0, s0, 1
    ret
)";

// A periodic timer interrupt (MTIE armed: the whole run is careful) driving
// a work loop; the handler re-arms mtimecmp five times.
const char* kTimerLoop = R"(
.equ CLINT, 0x2000000
_start:
    la t0, handler
    csrw mtvec, t0
    li s2, 0
    li s3, 0
    li t0, CLINT + 0x4000
    li t1, 300
    sw t1, 0(t0)
    sw zero, 4(t0)
    li t2, 128
    csrw mie, t2
    csrsi mstatus, 8
work:
    addi s3, s3, 3
    xor s3, s3, s2
    li t3, 5
    blt s2, t3, work
    la t4, result
    sw s3, 0(t4)
    andi a0, s3, 255
    li a7, 93
    ecall
handler:
    addi s2, s2, 1
    li t5, CLINT + 0x4000
    lw t6, 0(t5)
    addi t6, t6, 300
    sw t6, 0(t5)
    mret
.data
result:
    .word 0
)";

assembler::Program assemble_or_die(const char* source) {
  auto program = assembler::assemble(source);
  S4E_CHECK(program.ok());
  return *program;
}

// Address of the first occurrence of `word` at or after `from`.
u32 find_word(vp::Machine& machine, u32 from, u32 word) {
  for (u32 address = from;; address += 4) {
    u32 value = 0;
    S4E_CHECK(machine.bus().ram_read(address, &value, 4).ok());
    if (value == word) return address;
  }
}

// Force the careful loop without adding callbacks: a breakpoint at an
// address no test program executes (the top of RAM is stack) turns on the
// per-block debug check.
void force_careful(vp::Machine& machine) {
  machine.add_breakpoint(machine.config().ram_base +
                         machine.config().ram_size - 2);
}

vp::MachineConfig unchained_config() {
  vp::MachineConfig config;
  config.enable_chaining = false;
  return config;
}

void expect_same_state(vp::Machine& a, vp::Machine& b,
                       const vp::RunResult& ra, const vp::RunResult& rb,
                       const assembler::Program& program,
                       const std::string& name) {
  EXPECT_EQ(ra.reason, rb.reason) << name;
  EXPECT_EQ(ra.exit_code, rb.exit_code) << name;
  EXPECT_EQ(ra.instructions, rb.instructions) << name;
  EXPECT_EQ(ra.cycles, rb.cycles) << name;
  EXPECT_EQ(ra.final_pc, rb.final_pc) << name;
  for (unsigned reg = 0; reg < isa::kGprCount; ++reg) {
    EXPECT_EQ(a.cpu().read_gpr(reg), b.cpu().read_gpr(reg))
        << name << " x" << reg;
  }
  EXPECT_EQ(vp::data_memory_hash(a, program), vp::data_memory_hash(b, program))
      << name;
}

class EngineTortureSeed : public ::testing::TestWithParam<u64> {};

// E-P1 — the strongest engine property: over generated torture programs,
// chained dispatch produces *exactly* what per-block dispatch produces,
// down to the cycle count and the final data-memory hash.
TEST_P(EngineTortureSeed, ChainedAndUnchainedBitIdentical) {
  for (const auto& test : programs_for_seed(GetParam(), 3)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;

    vp::Machine chained;  // default config: chaining on
    ASSERT_TRUE(chained.load_program(*program).ok());
    const auto chained_result = chained.run();

    vp::Machine unchained(unchained_config());
    ASSERT_TRUE(unchained.load_program(*program).ok());
    const auto unchained_result = unchained.run();

    expect_same_state(chained, unchained, chained_result, unchained_result,
                      *program, test.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineTortureSeed,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// E-R1 — insert a breakpoint while chains are live mid-run: the insertion
// must sever the links (a stale block->block edge would fly straight past
// the per-dispatch breakpoint check) and the run must stop exactly there.
TEST(EngineChaining, BreakpointSeversChainsMidRun) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());

  const auto paused = machine.run_slice(3000);
  ASSERT_EQ(paused.reason, vp::StopReason::kDebugSlice);
  ASSERT_GT(machine.engine_stats().chain_patches, 0u)
      << "slice too short to patch any chain edges";
  const u64 severs_before = machine.tb_cache().chain_severs();

  // The `bump` callee body starts with `addi s0, s0, 1` (0x00140413); its
  // block is a chained/jump-cached successor of the loop body.
  const u32 target = find_word(machine, program.entry, 0x00140413u);
  machine.add_breakpoint(target);
  EXPECT_GT(machine.tb_cache().chain_severs(), severs_before);

  const auto stopped = machine.run(1u << 20);
  EXPECT_EQ(stopped.reason, vp::StopReason::kDebugBreak);
  EXPECT_EQ(machine.cpu().pc, target);

  // Resume over the breakpoint and finish: the run must still compute the
  // exact unchained result.
  ASSERT_TRUE(machine.remove_breakpoint(target));
  const auto done = machine.run();
  ASSERT_EQ(done.reason, vp::StopReason::kExitEcall);

  vp::Machine reference(unchained_config());
  ASSERT_TRUE(reference.load_program(program).ok());
  const auto ref = reference.run();
  EXPECT_EQ(done.exit_code, ref.exit_code);
  EXPECT_EQ(done.instructions, ref.instructions);
  EXPECT_EQ(done.cycles, ref.cycles);
}

// E-R2 — a code change on a chained successor: patch the callee body
// from the host mid-run, report it (code_changed re-lowers the warm block
// in place), and resume. A stale chain or jump cache entry would keep
// executing the old translation; both engines must instead pick up the
// patched code and agree exactly.
TEST(EngineChaining, InvalidateRangeOnChainedSuccessor) {
  const assembler::Program program = assemble_or_die(kCallLoop);

  auto run_with_patch = [&](const vp::MachineConfig& config) {
    vp::Machine machine(config);
    S4E_CHECK(machine.load_program(program).ok());
    const auto paused = machine.run_slice(3000);
    S4E_CHECK(paused.reason == vp::StopReason::kDebugSlice);

    // The first `addi s0, s0, 1` of `bump`.
    const u32 target = find_word(machine, program.entry, 0x00140413u);
    // Patch the immediate from 1 to 5 and report the change.
    const u32 patched = 0x00540413u;  // addi s0, s0, 5
    S4E_CHECK(machine.bus().ram_write(target, &patched, 4).ok());
    machine.code_changed(target, 4);

    const auto done = machine.run();
    S4E_CHECK(done.reason == vp::StopReason::kExitEcall);
    return std::pair<u64, int>{done.instructions, done.exit_code};
  };

  const auto chained = run_with_patch(vp::MachineConfig{});
  const auto unchained = run_with_patch(unchained_config());
  EXPECT_EQ(chained.first, unchained.first);
  EXPECT_EQ(chained.second, unchained.second);
  // The patch changes one of the two +1s to +5: the final count must show
  // the new immediate (i.e. exceed the unpatched 2 * 2000 = 4000 total).
  EXPECT_GT(chained.second, 4000);
}

// E-R3 — snapshot while chains are live, run to the end, restore, run
// again: the replay must land on the identical final state even though the
// restore dropped translations on dirty pages out from under live links.
TEST(EngineChaining, SnapshotRestoreWithLiveChains) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());

  const auto paused = machine.run_slice(5000);
  ASSERT_EQ(paused.reason, vp::StopReason::kDebugSlice);
  ASSERT_GT(machine.engine_stats().chain_patches, 0u);

  vp::Snapshot snap;
  machine.save_state(snap);

  const auto first = machine.run();
  ASSERT_EQ(first.reason, vp::StopReason::kExitEcall);
  const u64 first_hash = vp::data_memory_hash(machine, program);
  std::array<u32, isa::kGprCount> first_gprs{};
  for (unsigned reg = 0; reg < isa::kGprCount; ++reg) {
    first_gprs[reg] = machine.cpu().read_gpr(reg);
  }

  machine.restore_state(snap);
  const auto replay = machine.run();
  EXPECT_EQ(replay.reason, first.reason);
  EXPECT_EQ(replay.exit_code, first.exit_code);
  EXPECT_EQ(replay.instructions, first.instructions);
  EXPECT_EQ(replay.cycles, first.cycles);
  for (unsigned reg = 0; reg < isa::kGprCount; ++reg) {
    EXPECT_EQ(machine.cpu().read_gpr(reg), first_gprs[reg]) << "x" << reg;
  }
  EXPECT_EQ(vp::data_memory_hash(machine, program), first_hash);
}

// E-C1 — the counters must reflect the mechanisms: a hot call loop patches
// chains, rides them and hits the jump cache on `ret`, and, changing no
// code, severs no chain; the unchained ablation does none of that.
TEST(EngineCounters, HotLoopExercisesEveryMechanism) {
  const assembler::Program program = assemble_or_die(kCallLoop);

  vp::Machine chained;
  ASSERT_TRUE(chained.load_program(program).ok());
  ASSERT_EQ(chained.run().reason, vp::StopReason::kExitEcall);
  const vp::EngineStats& stats = chained.engine_stats();
  EXPECT_GT(stats.blocks_fast, 0u);
  EXPECT_GT(stats.chain_patches, 0u);
  EXPECT_GT(stats.chain_follows, stats.chain_patches);
  EXPECT_GT(stats.jump_cache_hits, 0u);
  // Construction and load_program flush an empty cache: nothing dropped,
  // so neither counts a flush or severs a chain.
  EXPECT_EQ(chained.tb_cache().flush_count(), 0u);
  EXPECT_EQ(chained.tb_cache().chain_severs(), 0u);
  // One block head is one dispatch: the blocks' execution counts sum to
  // the blocks the engine ran.
  u64 executions = 0;
  chained.tb_cache().for_each_block([&](const vp::TranslationBlock& block) {
    executions += block.exec_count;
  });
  EXPECT_EQ(executions, stats.blocks_fast + stats.blocks_careful);

  vp::Machine unchained(unchained_config());
  ASSERT_TRUE(unchained.load_program(program).ok());
  ASSERT_EQ(unchained.run().reason, vp::StopReason::kExitEcall);
  EXPECT_EQ(unchained.engine_stats().chain_patches, 0u);
  EXPECT_EQ(unchained.engine_stats().jump_cache_hits, 0u);
  EXPECT_GT(unchained.engine_stats().blocks_fast, 0u);

  // A per-instruction plugin keeps the chained path: its callbacks are
  // lowered into the translated code.
  vp::Machine instrumented;
  ASSERT_TRUE(instrumented.load_program(program).ok());
  u64 calls = 0;
  instrumented.add_insn_exec_cb(
      [](void* userdata, s4e_vm*, const s4e_insn_info*) {
        ++*static_cast<u64*>(userdata);
      },
      &calls);
  const vp::RunResult run = instrumented.run();
  ASSERT_EQ(run.reason, vp::StopReason::kExitEcall);
  EXPECT_EQ(calls, run.instructions);
  EXPECT_GT(instrumented.engine_stats().blocks_fast, 0u);
  EXPECT_EQ(instrumented.engine_stats().blocks_careful, 0u);
  EXPECT_GT(instrumented.engine_stats().chain_follows, 0u);

  // Debug state forces the careful loop — the fast-block counter must stay
  // frozen while careful dispatch takes over.
  vp::Machine careful;
  ASSERT_TRUE(careful.load_program(program).ok());
  force_careful(careful);
  ASSERT_EQ(careful.run().reason, vp::StopReason::kExitEcall);
  EXPECT_EQ(careful.engine_stats().blocks_fast, 0u);
  EXPECT_GT(careful.engine_stats().blocks_careful, 0u);
}

u64 careful_reason_sum(const vp::EngineStats& stats) {
  return stats.careful_debug + stats.careful_timer + stats.careful_uncached +
         stats.careful_boundary;
}

// E-C2 — every careful block is counted under one reason: debug state, an
// armed timer, the uncached ablation, or an icount/budget boundary.
TEST(EngineCounters, CarefulBlocksCountedPerReason) {
  const assembler::Program loop = assemble_or_die(kCallLoop);
  const auto check = [](const vp::Machine& machine, u64 vp::EngineStats::*reason,
                        const char* label) {
    const vp::EngineStats& stats = machine.engine_stats();
    EXPECT_GT(stats.*reason, 0u) << label;
    EXPECT_EQ(stats.*reason, stats.blocks_careful) << label;
    EXPECT_EQ(careful_reason_sum(stats), stats.blocks_careful) << label;
  };

  vp::Machine debug;
  ASSERT_TRUE(debug.load_program(loop).ok());
  force_careful(debug);
  ASSERT_EQ(debug.run().reason, vp::StopReason::kExitEcall);
  check(debug, &vp::EngineStats::careful_debug, "debug");

  vp::Machine timer;
  ASSERT_TRUE(timer.load_program(assemble_or_die(kTimerLoop)).ok());
  ASSERT_EQ(timer.run().reason, vp::StopReason::kExitEcall);
  check(timer, &vp::EngineStats::careful_timer, "timer");

  vp::MachineConfig uncached_config;
  uncached_config.enable_tb_cache = false;
  vp::Machine uncached(uncached_config);
  ASSERT_TRUE(uncached.load_program(loop).ok());
  ASSERT_EQ(uncached.run().reason, vp::StopReason::kExitEcall);
  check(uncached, &vp::EngineStats::careful_uncached, "uncached");

  // A budget that ends inside a block, then icount callbacks at three
  // consecutive counts (blocks of this loop are at most three long, so at
  // least one falls inside a block).
  vp::Machine boundary;
  ASSERT_TRUE(boundary.load_program(loop).ok());
  ASSERT_EQ(boundary.run(1003).reason, vp::StopReason::kMaxInstructions);
  EXPECT_EQ(boundary.engine_stats().careful_boundary, 1u);
  for (const u64 at : {2001, 2002, 2003}) {
    s4e_register_icount_cb(
        boundary.vm_handle(), at, [](void*, s4e_vm*, uint64_t) {}, nullptr);
  }
  ASSERT_EQ(boundary.run().reason, vp::StopReason::kExitEcall);
  check(boundary, &vp::EngineStats::careful_boundary, "boundary");
  EXPECT_GE(boundary.engine_stats().careful_boundary, 2u);
}

// --- Careful-mode profile of a fault-free run: the reference trace the
// icount tests and the fault oracle index by instruction count.

struct Observed {
  vp::RunResult run;
  std::string uart;
  u64 data_hash = 0;
};

Observed observe(vp::Machine& machine, const assembler::Program& program) {
  Observed observed;
  observed.run = machine.run();
  observed.uart = machine.uart()->tx_log();
  observed.data_hash = vp::data_memory_hash(machine, program);
  return observed;
}

struct GoldenProfile {
  Observed observed;
  std::vector<u32> pcs;           // pc of every executed instruction
  std::vector<u64> block_starts;  // icount at every careful block dispatch
  std::vector<u32> touched;       // data addresses accessed
};

GoldenProfile profile_golden(const vp::MachineConfig& config,
                             const assembler::Program& program) {
  vp::Machine machine(config);
  S4E_CHECK(machine.load_program(program).ok());
  GoldenProfile profile;
  std::set<u32> touched;
  s4e_vm* vm = machine.vm_handle();
  s4e_register_insn_exec_cb(
      vm,
      [](void* userdata, s4e_vm*, const s4e_insn_info* insn) {
        static_cast<GoldenProfile*>(userdata)->pcs.push_back(insn->address);
      },
      &profile);
  s4e_register_tb_exec_cb(
      vm,
      [](void* userdata, s4e_vm* vm, uint32_t) {
        static_cast<GoldenProfile*>(userdata)->block_starts.push_back(
            s4e_icount(vm));
      },
      &profile);
  s4e_register_mem_cb(
      vm,
      [](void* userdata, s4e_vm*, const s4e_mem_event* event) {
        static_cast<std::set<u32>*>(userdata)->insert(event->vaddr);
      },
      &touched);
  profile.observed = observe(machine, program);
  profile.touched.assign(touched.begin(), touched.end());
  return profile;
}

// --- One-shot icount callback.

struct IcountProbe {
  unsigned fires = 0;
  u64 icount = 0;  // as passed to the callback
  u32 pc = 0;      // pc of the instruction about to execute
};

void record_icount(void* userdata, s4e_vm* vm, uint64_t icount) {
  auto* probe = static_cast<IcountProbe*>(userdata);
  ++probe->fires;
  probe->icount = icount;
  probe->pc = s4e_read_pc(vm);
}

// E-I1 — the callback fires once, before the armed instruction, with the
// same architectural view in the chained and the careful loop; the chained
// run executes only the block holding the armed count carefully, and none
// when the count falls on a block head.
TEST(IcountCallback, FiresOnceAtExactInstructionFastAndCareful) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  const std::vector<u32> pcs = profile_golden({}, program).pcs;
  vp::Machine plain;
  ASSERT_TRUE(plain.load_program(program).ok());
  const auto reference = plain.run();

  for (const u64 at : {u64{0}, u64{1}, u64{57}, vp::kChainQuantum,
                       u64{9001}, u64{pcs.size() - 1}}) {
    for (const bool careful : {false, true}) {
      vp::Machine machine;
      ASSERT_TRUE(machine.load_program(program).ok());
      if (careful) force_careful(machine);
      IcountProbe probe;
      ASSERT_NE(s4e_register_icount_cb(machine.vm_handle(), at,
                                       record_icount, &probe),
                0u);
      const auto run = machine.run();
      const std::string label =
          "at=" + std::to_string(at) + (careful ? " careful" : " fast");
      EXPECT_EQ(probe.fires, 1u) << label;
      EXPECT_EQ(probe.icount, at) << label;
      EXPECT_EQ(probe.pc, pcs[at]) << label;
      EXPECT_EQ(run.instructions, reference.instructions) << label;
      EXPECT_EQ(run.cycles, reference.cycles) << label;
      if (careful) {
        EXPECT_EQ(machine.engine_stats().blocks_fast, 0u) << label;
      } else {
        EXPECT_GT(machine.engine_stats().blocks_fast, 0u) << label;
        if (at == 0 || at == 57) {
          // A block head of this program's chained run: the count fires at
          // the chain boundary and the run stays chained.
          EXPECT_EQ(machine.engine_stats().blocks_careful, 0u) << label;
        } else {
          // The block holding the armed count runs carefully.
          EXPECT_EQ(machine.engine_stats().blocks_careful, 1u) << label;
        }
      }
    }
  }
}

// E-I1 — armed in the middle of a warm chained block: that one block is
// executed one instruction at a time up to the exact instruction.
TEST(IcountCallback, FiresMidWarmChainedBlock) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  const std::vector<u32> pcs = profile_golden({}, program).pcs;
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  ASSERT_EQ(machine.run_slice(3000).reason, vp::StopReason::kDebugSlice);
  ASSERT_GT(machine.engine_stats().chain_follows, 0u);

  // The second `addi s0, s0, 1` of `bump`, mid-way through its block.
  const u32 interior = find_word(machine, program.entry, 0x00140413u) + 4;
  ASSERT_NE(machine.tb_cache().lookup(interior - 4), nullptr);
  u64 at = machine.icount() + 100;
  while (pcs[at] != interior) ++at;

  IcountProbe probe;
  s4e_register_icount_cb(machine.vm_handle(), at, record_icount, &probe);
  const u64 careful_before = machine.engine_stats().blocks_careful;
  const auto done = machine.run();
  ASSERT_EQ(done.reason, vp::StopReason::kExitEcall);
  EXPECT_EQ(probe.fires, 1u);
  EXPECT_EQ(probe.icount, at);
  EXPECT_EQ(probe.pc, interior);
  EXPECT_EQ(machine.engine_stats().blocks_careful - careful_before, 1u);
  EXPECT_EQ(done.instructions, pcs.size());
}

// A count at the head of a warm block: the chain runs up to it, the count
// fires at a chain boundary, and no block runs carefully.
TEST(IcountCallback, FiresAtWarmBlockHeadWithoutCarefulBlock) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  const std::vector<u32> pcs = profile_golden({}, program).pcs;
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  ASSERT_EQ(machine.run_slice(3000).reason, vp::StopReason::kDebugSlice);
  ASSERT_GT(machine.engine_stats().chain_follows, 0u);

  // `bump`, the callee, heads its own warm block.
  const auto bump = program.symbol("bump");
  ASSERT_TRUE(bump.ok());
  ASSERT_NE(machine.tb_cache().lookup(*bump), nullptr);
  u64 at = machine.icount() + 100;
  while (pcs[at] != *bump) ++at;

  IcountProbe probe;
  s4e_register_icount_cb(machine.vm_handle(), at, record_icount, &probe);
  const u64 careful_before = machine.engine_stats().blocks_careful;
  const auto done = machine.run();
  ASSERT_EQ(done.reason, vp::StopReason::kExitEcall);
  EXPECT_EQ(probe.fires, 1u);
  EXPECT_EQ(probe.icount, at);
  EXPECT_EQ(probe.pc, *bump);
  EXPECT_EQ(machine.engine_stats().blocks_careful, careful_before);
  EXPECT_EQ(done.instructions, pcs.size());
}

// E-I2 — the budget wins ties: an instruction budget that ends at (or
// before) the armed count stops without firing. Resuming fires it before
// the next instruction, and a count already passed does the same — neither
// may stall the run.
TEST(IcountCallback, NeverFiresWhenBudgetEndsFirst) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  IcountProbe probe;
  s4e_register_icount_cb(machine.vm_handle(), 1000, record_icount, &probe);

  auto paused = machine.run(700);
  EXPECT_EQ(paused.reason, vp::StopReason::kMaxInstructions);
  paused = machine.run(300);
  EXPECT_EQ(paused.instructions, 1000u);
  EXPECT_EQ(probe.fires, 0u);

  const auto one = machine.run(1);
  EXPECT_EQ(one.instructions, 1001u);
  EXPECT_EQ(probe.fires, 1u);
  EXPECT_EQ(probe.icount, 1000u);

  IcountProbe late;
  s4e_register_icount_cb(machine.vm_handle(), 5, record_icount, &late);
  EXPECT_EQ(machine.run(1).instructions, 1002u);
  EXPECT_EQ(late.fires, 1u);
  EXPECT_EQ(late.icount, 1001u);
  EXPECT_EQ(probe.fires, 1u);  // one-shot
}

// E-I2 — an armed callback that did not fire belongs to the run that armed
// it: the next prepare() on a reused worker VM drops it.
TEST(IcountCallback, UnfiredCallbackDoesNotSurvivePrepare) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  auto worker = vp::WorkerVm::create(vp::MachineConfig{}, program);
  ASSERT_TRUE(worker.ok());
  vp::Machine& first = (*worker)->prepare();
  IcountProbe probe;
  s4e_register_icount_cb(first.vm_handle(), 100, record_icount, &probe);
  first.run(50);
  EXPECT_EQ(probe.fires, 0u);

  vp::Machine& second = (*worker)->prepare();
  EXPECT_EQ(second.run().reason, vp::StopReason::kExitEcall);
  EXPECT_EQ(probe.fires, 0u);
  EXPECT_GT(second.engine_stats().blocks_fast, 0u);
}

// E-I3 — a code patch from inside the callback, made visible with a range
// invalidation: only the overlapping translations are touched — re-lowered
// in place, as the patch keeps their shape, so nothing is dropped or
// flushed and no chain is severed — unrelated warm blocks keep their
// translation, and the result matches the careful loop's.
TEST(IcountCallback, RangeInvalidationKeepsUnrelatedBlocksWarm) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  struct Patch {
    u32 address = 0;
  };
  const auto patch_cb = [](void* userdata, s4e_vm* vm, uint64_t) {
    const u32 address = static_cast<Patch*>(userdata)->address;
    const u32 patched = 0x00540413u;  // addi s0, s0, 5
    S4E_CHECK(s4e_write_mem(vm, address, &patched, 4) == 0);
    s4e_invalidate_tb_range(vm, address, 4);
  };
  constexpr u64 kAt = 3010;

  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  ASSERT_EQ(machine.run_slice(3000).reason, vp::StopReason::kDebugSlice);
  Patch patch{find_word(machine, program.entry, 0x00140413u)};
  const vp::TranslationBlock* entry_block =
      machine.tb_cache().lookup(program.entry);
  ASSERT_NE(entry_block, nullptr);
  const std::size_t warm = machine.tb_cache().size();
  const u64 flushes = machine.tb_cache().flush_count();
  const u64 invalidated = machine.tb_cache().invalidated_blocks();
  const u64 severs = machine.tb_cache().chain_severs();

  s4e_register_icount_cb(machine.vm_handle(), kAt, patch_cb, &patch);
  const auto done = machine.run();
  ASSERT_EQ(done.reason, vp::StopReason::kExitEcall);
  const u64 relowered = machine.tb_cache().relowered_blocks();
  EXPECT_EQ(machine.tb_cache().flush_count(), flushes);
  EXPECT_EQ(machine.tb_cache().invalidated_blocks(), invalidated);
  EXPECT_EQ(machine.tb_cache().chain_severs(), severs);
  EXPECT_GT(relowered, 0u);
  EXPECT_LT(relowered, warm);
  EXPECT_EQ(machine.tb_cache().lookup(program.entry), entry_block);
  EXPECT_GT(done.exit_code, 4000);  // the patched +5 took effect

  vp::Machine careful;
  ASSERT_TRUE(careful.load_program(program).ok());
  force_careful(careful);
  Patch careful_patch{patch.address};
  s4e_register_icount_cb(careful.vm_handle(), kAt, patch_cb, &careful_patch);
  const auto ref = careful.run();
  EXPECT_EQ(done.exit_code, ref.exit_code);
  EXPECT_EQ(done.instructions, ref.instructions);
  EXPECT_EQ(done.cycles, ref.cycles);
}

// --- E-F1: exactness oracle for the fast-path fault injector.

// The insn_exec-triggered injector the fast path replaced, kept verbatim in
// behaviour as the reference: it looks for its trigger before every
// instruction (so the whole run is careful) and flushes the whole TB cache
// after patching code.
class ReferenceInjector final : public vp::PluginBase {
 public:
  explicit ReferenceInjector(const fault::FaultSpec& spec) : spec_(spec) {}

  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.insn_exec = true;
    subs.mem = spec_.target == fault::FaultTarget::kMemory &&
               spec_.kind == fault::FaultKind::kStuckAt;
    return subs;
  }

  void on_insn_exec(const s4e_insn_info&) override {
    if (spec_.kind == fault::FaultKind::kStuckAt) {
      if (spec_.target != fault::FaultTarget::kCode) {
        force_stuck();
      } else if (!fired_) {
        fired_ = true;
        u32 word = 0;
        if (s4e_read_mem(vm(), spec_.address, &word, 4) == 0) {
          const u32 mask = u32{1} << spec_.bit;
          const u32 forced = spec_.stuck_value ? (word | mask) : (word & ~mask);
          if (forced != word) {
            s4e_write_mem(vm(), spec_.address, &forced, 4);
            s4e_flush_tb_cache(vm());
          }
        }
      }
      return;
    }
    if (!fired_ && s4e_icount(vm()) >= spec_.trigger) {
      fired_ = true;
      flip();
    }
  }

  void on_mem(const s4e_mem_event& event) override {
    if (event.is_store && event.vaddr <= spec_.address &&
        spec_.address < event.vaddr + event.size) {
      force_stuck();
    }
  }

 private:
  void force_stuck() {
    if (spec_.target == fault::FaultTarget::kGpr) {
      const u32 value = s4e_read_gpr_hart(vm(), spec_.hart, spec_.reg);
      const u32 mask = u32{1} << spec_.bit;
      const u32 forced = spec_.stuck_value ? (value | mask) : (value & ~mask);
      if (forced != value) {
        s4e_write_gpr_hart(vm(), spec_.hart, spec_.reg, forced);
      }
      return;
    }
    u8 byte = 0;
    if (s4e_read_mem(vm(), spec_.address, &byte, 1) != 0) return;
    const u8 mask = static_cast<u8>(1u << (spec_.bit & 7));
    const u8 forced =
        spec_.stuck_value ? static_cast<u8>(byte | mask)
                          : static_cast<u8>(byte & ~mask);
    if (forced != byte) s4e_write_mem(vm(), spec_.address, &forced, 1);
  }

  void flip() {
    switch (spec_.target) {
      case fault::FaultTarget::kGpr: {
        const u32 value = s4e_read_gpr_hart(vm(), spec_.hart, spec_.reg);
        s4e_write_gpr_hart(vm(), spec_.hart, spec_.reg,
                           flip_bit(value, spec_.bit));
        break;
      }
      case fault::FaultTarget::kMemory: {
        u8 byte = 0;
        if (s4e_read_mem(vm(), spec_.address, &byte, 1) == 0) {
          byte = static_cast<u8>(byte ^ (1u << (spec_.bit & 7)));
          s4e_write_mem(vm(), spec_.address, &byte, 1);
        }
        break;
      }
      case fault::FaultTarget::kCode: {
        u32 word = 0;
        if (s4e_read_mem(vm(), spec_.address, &word, 4) == 0) {
          word = flip_bit(word, spec_.bit);
          s4e_write_mem(vm(), spec_.address, &word, 4);
          s4e_flush_tb_cache(vm());
        }
        break;
      }
    }
  }

  fault::FaultSpec spec_;
  bool fired_ = false;
};

// fault::Campaign's outcome rule.
fault::Outcome outcome_of(const Observed& run, const Observed& golden) {
  if (run.run.reason == vp::StopReason::kMaxInstructions) {
    return fault::Outcome::kHang;
  }
  if (!run.run.normal_exit()) return fault::Outcome::kCrash;
  if (run.run.exit_code != golden.run.exit_code || run.uart != golden.uart ||
      run.data_hash != golden.data_hash) {
    return fault::Outcome::kSdc;
  }
  return fault::Outcome::kMasked;
}

// Blocks dispatched so far, over every hart: {fast, careful}.
std::pair<u64, u64> dispatched_blocks(const vp::Machine& machine) {
  std::pair<u64, u64> total{0, 0};
  for (unsigned hart = 0; hart < machine.num_harts(); ++hart) {
    total.first += machine.engine_stats(hart).blocks_fast;
    total.second += machine.engine_stats(hart).blocks_careful;
  }
  return total;
}

struct InjectedRun {
  Observed observed;
  u64 fast_blocks = 0;
  u64 careful_blocks = 0;
};

// One injected run on a reused worker VM; `with_recorder` attaches a flight
// recorder, whose memory callbacks send every load and store down the slow
// path.
template <typename Injector>
InjectedRun run_injected(vp::WorkerVm& worker, const fault::FaultSpec& spec,
                         const assembler::Program& program,
                         bool with_recorder) {
  vp::Machine& machine = worker.prepare();
  Injector injector(spec);
  injector.attach(machine.vm_handle());
  std::optional<obs::FlightRecorderPlugin> recorder;
  if (with_recorder) {
    recorder.emplace();
    recorder->attach(machine.vm_handle());
  }
  InjectedRun injected;
  const auto [fast_before, careful_before] = dispatched_blocks(machine);
  injected.observed = observe(machine, program);
  const auto [fast_after, careful_after] = dispatched_blocks(machine);
  injected.fast_blocks = fast_after - fast_before;
  injected.careful_blocks = careful_after - careful_before;
  return injected;
}

// Triggers at 0 and 1, at block starts and at the last instruction of the
// block before them, around the chain quantum edge, and at the last golden
// instruction.
std::vector<u64> oracle_triggers(const GoldenProfile& golden) {
  const u64 n = golden.pcs.size();
  std::set<u64> triggers = {0, 1, vp::kChainQuantum - 1, vp::kChainQuantum,
                            vp::kChainQuantum + 1, n - 1};
  const std::vector<u64>& starts = golden.block_starts;
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}, starts.size() / 3,
                              starts.size() / 2, starts.size() - 1}) {
    if (i >= starts.size()) continue;
    triggers.insert(starts[i]);
    if (starts[i] > 0) triggers.insert(starts[i] - 1);
  }
  std::vector<u64> in_run;
  for (const u64 trigger : triggers) {
    if (trigger < n) in_run.push_back(trigger);
  }
  return in_run;
}

// All six target x kind combinations: transient faults at every oracle
// trigger (code faults on the instruction about to execute — whose stale
// translation still runs once — and on one a few instructions ahead),
// stuck-at faults at a spread of registers, bytes and code words.
std::vector<fault::FaultSpec> oracle_faults(const GoldenProfile& golden,
                                            unsigned harts) {
  using fault::FaultKind;
  using fault::FaultTarget;
  const std::vector<u32>& pcs = golden.pcs;
  const std::vector<u32>& touched = golden.touched;
  const u64 n = pcs.size();
  std::vector<fault::FaultSpec> faults;
  const auto add = [&faults](FaultTarget target, FaultKind kind, u64 trigger,
                             unsigned reg, u32 address, unsigned bit,
                             bool stuck_value, unsigned hart) {
    fault::FaultSpec spec;
    spec.target = target;
    spec.kind = kind;
    spec.trigger = trigger;
    spec.reg = reg;
    spec.address = address;
    spec.bit = static_cast<u8>(bit);
    spec.stuck_value = stuck_value;
    spec.hart = hart;
    faults.push_back(spec);
  };
  for (const u64 t : oracle_triggers(golden)) {
    add(FaultTarget::kGpr, FaultKind::kTransient, t,
        1 + static_cast<unsigned>((t * 7 + 3) % 31),
        0, static_cast<unsigned>(t * 13 % 32), false,
        static_cast<unsigned>(t % harts));
    if (!touched.empty()) {
      add(FaultTarget::kMemory, FaultKind::kTransient, t, 0,
          touched[t % touched.size()], static_cast<unsigned>(t % 8), false, 0);
    }
    for (const u64 ahead : {u64{0}, u64{3}}) {
      add(FaultTarget::kCode, FaultKind::kTransient, t, 0,
          pcs[std::min(t + ahead, n - 1)],
          static_cast<unsigned>((t * 5 + 20) % 32), false, 0);
    }
  }
  for (unsigned k = 0; k < 4; ++k) {
    const bool value = (k & 1) != 0;
    add(FaultTarget::kGpr, FaultKind::kStuckAt, 0, 1 + (k * 11 + 5) % 31, 0,
        k * 9 % 32, value, k % harts);
    if (!touched.empty()) {
      add(FaultTarget::kMemory, FaultKind::kStuckAt, 0, 0,
          touched[k * touched.size() / 4], k * 3 % 8, value, 0);
    }
    add(FaultTarget::kCode, FaultKind::kStuckAt, 0, 0, pcs[k * n / 4],
        (k * 7 + 2) % 32, !value, 0);
  }
  return faults;
}

// Write-path programs for the stuck-at oracle. kStoreLanes hits every byte
// lane of `buf` with sb, sh and sw, folding the word into a0 after each.
const char* kStoreLanes = R"(
_start:
    la s0, buf
    li a0, 0
    li t1, 0x11223344
    sw t1, 0(s0)
    call fold
    li t1, 0xa5
    sb t1, 0(s0)
    call fold
    sb t1, 1(s0)
    call fold
    sb t1, 2(s0)
    call fold
    sb t1, 3(s0)
    call fold
    li t1, 0x5a5a
    sh t1, 0(s0)
    call fold
    sh t1, 2(s0)
    call fold
    li t1, 0x0ff0
    sh t1, 1(s0)
    call fold
    li t1, 0x33cc33cc
    sw t1, 0(s0)
    call fold
    la t0, result
    sw a0, 0(t0)
    li a7, 93
    ecall
fold:
    lw t2, 0(s0)
    slli t3, a0, 5
    sub a0, t3, a0
    add a0, a0, t2
    ret
.data
buf:
    .word 0
result:
    .word 0
)";

// kRdPaths writes the registers the oracle sticks from a load (t1), jal
// (ra), jalr (t3), lr.w (t4), sc.w (t5) and an AMO (s1), and hits `cell`
// with sc.w and amoadd.w.
const char* kRdPaths = R"(
_start:
    la s0, cell
    li a0, 3
    lw t1, 0(s0)
    add a0, a0, t1
    jal ra, twice
    la t2, thrice
    jalr t3, 0(t2)
    lr.w t4, (s0)
    addi t4, t4, 5
    sc.w t5, t4, (s0)
    add a0, a0, t5
    li t6, 9
    amoadd.w s1, t6, (s0)
    add a0, a0, s1
    lw t1, 0(s0)
    add a0, a0, t1
    la t0, result
    sw a0, 0(t0)
    li a7, 93
    ecall
twice:
    add a0, a0, a0
    ret
thrice:
    slli t0, a0, 1
    add a0, a0, t0
    jr t3
.data
cell:
    .word 0x1234
result:
    .word 0
)";

// kSmpAtomics (TwoHarts only): both harts update three shared words with
// lr.w/sc.w and every AMO; hart 0 waits for hart 1's done flag, then folds
// the words into a0.
const char* kSmpAtomics = R"(
_start:
    csrr s5, mhartid
    la s0, words
    addi s2, s0, 4
    addi s3, s0, 8
    addi s4, s0, 12
    li s1, 24
loop:
    lr.w t1, (s0)
    addi t1, t1, 3
    sc.w t2, t1, (s0)
    bnez t2, loop
    li t3, 0x41
    amoadd.w t4, t3, (s2)
    amoxor.w t4, t1, (s3)
    amoor.w t4, t3, (s3)
    amoand.w t4, t1, (s2)
    amomin.w t4, t1, (s3)
    amomax.w t4, t3, (s2)
    amominu.w t4, t3, (s3)
    amomaxu.w t4, t1, (s2)
    amoswap.w t4, t4, (s3)
    addi s1, s1, -1
    bnez s1, loop
    bnez s5, done
wait:
    lw t5, 0(s4)
    beqz t5, wait
    lw a0, 0(s0)
    lw t1, 0(s2)
    xor a0, a0, t1
    lw t1, 0(s3)
    add a0, a0, t1
    li a7, 93
    ecall
done:
    li t5, 1
    amoswap.w zero, t5, (s4)
park:
    wfi
    j park
.data
words:
    .word 0, 0x100, 0x5555, 0
)";

// Stuck-at faults aimed at the write paths: four (bit, value) pairs on
// each of the first `bytes` bytes of .data, and three on each of `regs`
// (on every hart).
std::vector<fault::FaultSpec> write_path_faults(
    const assembler::Program& program, u32 bytes,
    std::initializer_list<unsigned> regs, unsigned harts) {
  std::vector<fault::FaultSpec> faults;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kStuckAt;
  spec.target = fault::FaultTarget::kMemory;
  const u32 data = program.find_section(".data")->base;
  for (u32 offset = 0; offset < bytes; ++offset) {
    spec.address = data + offset;
    for (const auto& [bit, value] : {std::pair{0, false}, std::pair{1, true},
                                     std::pair{6, false}, std::pair{7, true}}) {
      spec.bit = static_cast<u8>(bit);
      spec.stuck_value = value;
      faults.push_back(spec);
    }
  }
  spec.target = fault::FaultTarget::kGpr;
  spec.address = 0;
  for (const unsigned reg : regs) {
    spec.reg = reg;
    for (unsigned hart = 0; hart < harts; ++hart) {
      spec.hart = hart;
      for (const auto& [bit, value] : {std::pair{0, true}, std::pair{1, false},
                                       std::pair{4, true}}) {
        spec.bit = static_cast<u8>(bit);
        spec.stuck_value = value;
        faults.push_back(spec);
      }
    }
  }
  return faults;
}

struct OracleConfig {
  const char* name;
  vp::MachineConfig config;
};

std::vector<OracleConfig> oracle_configs() {
  std::vector<OracleConfig> configs(5);
  configs[0].name = "Default";
  configs[1].name = "Icache";
  configs[1].config.timing.icache_miss_cycles = 10;
  configs[2].name = "BranchPredictor";
  configs[2].config.timing.branch_predictor = true;
  configs[3].name = "Unchained";
  configs[3].config = unchained_config();
  configs[4].name = "TwoHarts";
  configs[4].config.num_harts = 2;
  return configs;
}

class FaultOracle : public ::testing::TestWithParam<std::size_t> {};

struct OracleProgram {
  std::string name;
  assembler::Program program;
  std::vector<fault::FaultSpec> extra;  // aimed faults beyond oracle_faults
  bool with_recorder = false;           // every load and store slow
};

// E-F1 — every fault kind, over torture programs, a long chained loop, a
// timer-interrupt program and the write-path programs: the fast-path
// injector on a reused worker VM must reproduce the reference injector's
// run exactly. GPR and memory stuck-at runs dispatch no careful block
// (outside the timer program, whose armed MTIE keeps every run careful,
// and SMP slice ends), and a plain run right after one reproduces the
// golden run.
TEST_P(FaultOracle, FastPathInjectorMatchesInsnExecReference) {
  const vp::MachineConfig base = oracle_configs()[GetParam()].config;
  std::vector<OracleProgram> programs;
  for (const u64 seed : {u64{11}, u64{22}}) {
    for (const auto& test : programs_for_seed(seed, 2)) {
      auto program = assembler::assemble(test.source);
      ASSERT_TRUE(program.ok()) << test.name;
      programs.push_back({test.name, std::move(*program), {}, false});
    }
  }
  programs.push_back({"call_loop", assemble_or_die(kCallLoop), {}, false});
  programs.push_back({"timer_loop", assemble_or_die(kTimerLoop), {}, false});
  const unsigned harts = base.num_harts;
  for (const bool recorder : {false, true}) {
    assembler::Program lanes = assemble_or_die(kStoreLanes);
    auto faults = write_path_faults(lanes, 4, {}, harts);
    programs.push_back({recorder ? "store_lanes+recorder" : "store_lanes",
                        std::move(lanes), std::move(faults), recorder});
  }
  {
    assembler::Program rd = assemble_or_die(kRdPaths);
    auto faults = write_path_faults(rd, 4, {1, 6, 9, 28, 29, 30}, harts);
    programs.push_back({"rd_paths", std::move(rd), std::move(faults), false});
  }
  if (harts == 2) {
    assembler::Program smp = assemble_or_die(kSmpAtomics);
    auto faults = write_path_faults(smp, 16, {6, 7, 29}, harts);
    programs.push_back(
        {"smp_atomics", std::move(smp), std::move(faults), false});
  }

  for (const OracleProgram& entry : programs) {
    const std::string& name = entry.name;
    const assembler::Program& program = entry.program;
    const GoldenProfile golden = profile_golden(base, program);
    vp::MachineConfig config = base;
    config.max_instructions = vp::hang_budget(golden.pcs.size(), 8,
                                              base.max_instructions);
    auto reference_vm = vp::WorkerVm::create(config, program);
    auto fast_vm = vp::WorkerVm::create(config, program);
    ASSERT_TRUE(reference_vm.ok() && fast_vm.ok()) << name;
    u64 careful_blocks = 0;
    u64 fast_blocks = 0;
    std::vector<fault::FaultSpec> faults =
        oracle_faults(golden, config.num_harts);
    faults.insert(faults.end(), entry.extra.begin(), entry.extra.end());
    for (const fault::FaultSpec& spec : faults) {
      const Observed want = run_injected<ReferenceInjector>(
                                **reference_vm, spec, program,
                                entry.with_recorder)
                                .observed;
      const InjectedRun got_run = run_injected<fault::FaultInjectorPlugin>(
          **fast_vm, spec, program, entry.with_recorder);
      careful_blocks += got_run.careful_blocks;
      fast_blocks += got_run.fast_blocks;
      const Observed& got = got_run.observed;
      const std::string label = name + ": " + spec.to_string();
      EXPECT_EQ(got.run.reason, want.run.reason) << label;
      EXPECT_EQ(got.run.exit_code, want.run.exit_code) << label;
      EXPECT_EQ(got.run.instructions, want.run.instructions) << label;
      EXPECT_EQ(got.run.cycles, want.run.cycles) << label;
      EXPECT_EQ(got.run.final_pc, want.run.final_pc) << label;
      EXPECT_EQ(got.uart, want.uart) << label;
      EXPECT_EQ(got.data_hash, want.data_hash) << label;
      EXPECT_EQ(outcome_of(got, golden.observed),
                outcome_of(want, golden.observed))
          << label;
      if (spec.kind != fault::FaultKind::kStuckAt ||
          spec.target == fault::FaultTarget::kCode) {
        continue;
      }
      if (name != "timer_loop" && !entry.with_recorder) {
        // The budget end or an SMP slice end inside a block runs that
        // block carefully; the fault itself adds none.
        const u64 budget_end =
            got.run.reason == vp::StopReason::kMaxInstructions ? 1 : 0;
        const u64 slice_ends =
            config.num_harts > 1
                ? got.run.instructions / config.smp_slice_quantum
                : 0;
        EXPECT_LE(got_run.careful_blocks, budget_end + slice_ends) << label;
      }
      // prepare() restores and unforces: the next plain run is golden.
      vp::Machine& machine = (*fast_vm)->prepare();
      const Observed plain = observe(machine, program);
      EXPECT_EQ(plain.run.reason, golden.observed.run.reason) << label;
      EXPECT_EQ(plain.run.exit_code, golden.observed.run.exit_code) << label;
      EXPECT_EQ(plain.run.instructions, golden.observed.run.instructions)
          << label;
      EXPECT_EQ(plain.run.cycles, golden.observed.run.cycles) << label;
      EXPECT_EQ(plain.uart, golden.observed.uart) << label;
      EXPECT_EQ(plain.data_hash, golden.observed.data_hash) << label;
    }
    // Outside the timer program the injected runs ride the fast path.
    if (name != "timer_loop" && !entry.with_recorder) {
      EXPECT_GT(fast_blocks, careful_blocks) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FaultOracle, ::testing::Range(std::size_t{0}, std::size_t{5}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(oracle_configs()[info.param].name);
    });

// --- E-O1: callback-stream oracle.

// Every callback the plugins below see, with the VM's view at that moment
// (s4e_icount, s4e_read_pc), folded into an order-sensitive digest.
struct CallbackLog {
  u64 digest = 0xcbf29ce484222325ull;
  u64 events = 0;

  void add(s4e_vm* vm, u64 kind, u64 a, u64 b) {
    for (const u64 word : {kind, a, b, s4e_icount(vm), u64{s4e_read_pc(vm)}}) {
      digest = (digest ^ word) * 0x100000001b3ull;
    }
    ++events;
  }
};

// Whole-run tb_exec, insn_exec, mem, trap and exit subscriber, plus one
// icount event. It also checks the careful loop's view absolutely: every
// exec callback reads the count of instructions retired before it and the
// pc it is about to run, and a due icount event fires after the block
// head's tb_exec. Optionally it stops the run, or flushes the TB cache,
// from the insn_exec callback of one instruction.
class LoggingPlugin final : public vp::PluginBase {
 public:
  enum class Action { kNone, kExit, kFlush };

  LoggingPlugin(CallbackLog& log, std::optional<u64> icount,
                Action action = Action::kNone, u64 action_at = 0)
      : log_(log), icount_(icount), action_(action), action_at_(action_at) {}

  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.tb_exec = true;
    subs.insn_exec = true;
    subs.mem = true;
    subs.trap = true;
    subs.exit = true;
    subs.icount = icount_;
    return subs;
  }
  void on_tb_exec(u32 tb_start) override {
    EXPECT_EQ(s4e_icount(vm()), insns_);
    EXPECT_EQ(s4e_read_pc(vm()), tb_start);
    EXPECT_FALSE(icount_fired_ && *icount_ == insns_)
        << "icount event before its block head's tb_exec";
    log_.add(vm(), 1, tb_start, 0);
  }
  void on_insn_exec(const s4e_insn_info& insn) override {
    EXPECT_EQ(s4e_icount(vm()), insns_);
    EXPECT_EQ(s4e_read_pc(vm()), insn.address);
    log_.add(vm(), 2, insn.address, insn.encoding);
    if (insns_++ == action_at_) {
      if (action_ == Action::kExit) s4e_request_exit(vm(), 77);
      if (action_ == Action::kFlush) s4e_flush_tb_cache(vm());
    }
  }
  void on_mem(const s4e_mem_event& event) override {
    log_.add(vm(), 3, (u64{event.pc} << 32) | event.vaddr,
             (u64{event.value} << 8) | (event.size << 1) | event.is_store);
  }
  void on_trap(const s4e_trap_event& event) override {
    log_.add(vm(), 4, event.cause, (u64{event.epc} << 32) | event.tval);
  }
  void on_exit(int exit_code) override {
    log_.add(vm(), 5, static_cast<u32>(exit_code), 0);
  }
  void on_icount(u64 icount) override {
    EXPECT_EQ(icount, insns_);
    icount_fired_ = true;
    log_.add(vm(), 6, icount, 0);
  }

 private:
  CallbackLog& log_;
  std::optional<u64> icount_;
  Action action_;
  u64 action_at_;
  u64 insns_ = 0;
  bool icount_fired_ = false;
};

// Requests insn_exec at translation time for every third halfword address.
class SparsePlugin final : public vp::PluginBase {
 public:
  explicit SparsePlugin(CallbackLog& log) : log_(log) {}

  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.insn_requests = true;
    return subs;
  }
  void on_tb_trans(const s4e_tb_info& tb) override {
    for (u32 i = 0; i < tb.n_insns; ++i) {
      if ((tb.insns[i].address >> 1) % 3 == 0) {
        EXPECT_TRUE(request_insn_exec(i));
      }
    }
    EXPECT_FALSE(request_insn_exec(tb.n_insns));
  }
  void on_insn_exec(const s4e_insn_info& insn) override {
    log_.add(vm(), 7, insn.address, 0);
  }

 private:
  CallbackLog& log_;
};

struct LoggedRun {
  vp::RunResult result;
  CallbackLog log;
  vp::EngineStats stats;
};

LoggedRun run_logged(const vp::MachineConfig& config,
                     const assembler::Program& program,
                     std::optional<u64> icount, bool careful,
                     LoggingPlugin::Action action = LoggingPlugin::Action::kNone,
                     u64 action_at = 0) {
  vp::Machine machine(config);
  S4E_CHECK(machine.load_program(program).ok());
  if (careful) force_careful(machine);
  LoggedRun run;
  LoggingPlugin logger(run.log, icount, action, action_at);
  SparsePlugin sparse(run.log);
  logger.attach(machine.vm_handle());
  sparse.attach(machine.vm_handle());
  run.result = machine.run();
  run.stats = machine.engine_stats();
  return run;
}

struct OracleSubject {
  std::string name;
  std::string source;
  bool analyzable = false;
};

std::vector<OracleSubject> oracle_subjects() {
  std::vector<OracleSubject> subjects;
  for (const core::Workload& workload : core::standard_workloads()) {
    if (workload.name.rfind("smp_", 0) == 0) continue;  // multi-hart
    subjects.push_back(
        {workload.name, workload.source, workload.wcet_analyzable});
  }
  for (const u64 seed : {1, 2, 3, 4}) {
    for (const auto& test : programs_for_seed(seed, 2)) {
      subjects.push_back(
          {"seed" + std::to_string(seed) + "/" + test.name, test.source,
           false});
    }
  }
  // Long chains and the jump cache; timer interrupts and their traps.
  subjects.push_back({"call_loop", kCallLoop, true});
  subjects.push_back({"timer_loop", kTimerLoop, false});
  return subjects;
}

struct Counts {
  u64 head = 0;    // a block head, a third of the way in
  u64 mid = 0;     // the second instruction of that block
  u64 inside = 0;  // an instruction neither first nor last in its block,
                   // two thirds of the way in
};

// Counts of a careful run at which to arm icount events and act from
// callbacks.
Counts pick_counts(const assembler::Program& program) {
  vp::Machine machine;
  S4E_CHECK(machine.load_program(program).ok());
  force_careful(machine);
  std::vector<u64> heads;
  machine.add_tb_exec_cb(
      [](void* userdata, s4e_vm* vm, uint32_t) {
        static_cast<std::vector<u64>*>(userdata)->push_back(s4e_icount(vm));
      },
      &heads);
  const u64 total = machine.run().instructions;
  Counts counts{0, total / 2, total / 2};
  for (std::size_t i = heads.size(); i-- > 1;) {
    if (heads[i - 1] >= total / 3 && heads[i] > heads[i - 1] + 1) {
      counts.head = heads[i - 1];
      counts.mid = heads[i - 1] + 1;
    }
    if (heads[i - 1] >= 2 * total / 3 && heads[i] > heads[i - 1] + 2) {
      counts.inside = heads[i - 1] + 1;
    }
  }
  return counts;
}

// E-O1 — chained vs breakpoint-forced careful execution, over every
// single-hart workload and torture programs, RV32C on and off, chaining
// on and off, an icount event at a block head and
// inside a block, and a callback that stops the run or flushes the TB
// cache mid-block: identical callback streams.
TEST(CallbackStream, ChainedMatchesCareful) {
  const vp::MachineConfig engines[] = {vp::MachineConfig{},
                                       unchained_config()};
  u64 fast_blocks = 0;
  u64 chain_follows = 0;
  for (const OracleSubject& subject : oracle_subjects()) {
    for (const bool compress : {false, true}) {
      assembler::Options options;
      options.compress = compress;
      auto program = assembler::assemble(subject.source, options);
      ASSERT_TRUE(program.ok()) << subject.name;
      const Counts counts = pick_counts(*program);
      using Action = LoggingPlugin::Action;
      const struct {
        std::optional<u64> icount;
        Action action;
        u64 action_at;
      } variants[] = {{counts.head, Action::kNone, 0},
                      {counts.mid, Action::kNone, 0},
                      {std::nullopt, Action::kExit, counts.inside},
                      {std::nullopt, Action::kFlush, counts.inside}};
      for (std::size_t e = 0; e < std::size(engines); ++e) {
        for (const auto& v : variants) {
          const std::string label =
              subject.name + (compress ? " rvc" : "") + " engine " +
              std::to_string(e) + " icount " +
              std::to_string(v.icount.value_or(0)) + " action " +
              std::to_string(static_cast<int>(v.action));
          const LoggedRun chained = run_logged(
              engines[e], *program, v.icount, false, v.action, v.action_at);
          const LoggedRun careful = run_logged(
              engines[e], *program, v.icount, true, v.action, v.action_at);
          EXPECT_EQ(chained.log.events, careful.log.events) << label;
          EXPECT_EQ(chained.log.digest, careful.log.digest) << label;
          EXPECT_EQ(chained.result.reason, careful.result.reason) << label;
          EXPECT_EQ(chained.result.instructions, careful.result.instructions)
              << label;
          EXPECT_EQ(chained.result.cycles, careful.result.cycles) << label;
          EXPECT_EQ(careful.stats.blocks_fast, 0u) << label;
          // Only the icount event's block (and an armed timer) is careful.
          EXPECT_LE(chained.stats.careful_boundary, 1u) << label;
          EXPECT_EQ(chained.stats.blocks_careful,
                    chained.stats.careful_boundary +
                        chained.stats.careful_timer)
              << label;
          fast_blocks += chained.stats.blocks_fast;
          chain_follows += chained.stats.chain_follows;
        }
      }
    }
  }
  EXPECT_GT(fast_blocks, 0u);
  EXPECT_GT(chain_follows, 0u);
}

// E-O1 — the observers built on requested callbacks: the trace recorder's
// bytes and the QTA report match across the two modes.
TEST(CallbackStream, RecorderAndQtaMatchCareful) {
  for (const OracleSubject& subject : oracle_subjects()) {
    for (const bool compress : {false, true}) {
      assembler::Options options;
      options.compress = compress;
      auto program = assembler::assemble(subject.source, options);
      ASSERT_TRUE(program.ok()) << subject.name;
      const std::string label = subject.name + (compress ? " rvc" : "");
      std::vector<u8> bytes[2];
      for (const bool careful : {false, true}) {
        vp::Machine machine;
        ASSERT_TRUE(machine.load_program(*program).ok());
        if (careful) force_careful(machine);
        trace::TraceRecorder recorder(
            trace::TraceRecorder::config_for(machine.config(), *program));
        ASSERT_TRUE(recorder.attach_checked(machine.vm_handle()).ok());
        bytes[careful] = recorder.finish_bytes(machine.run());
        if (!careful) {
          EXPECT_EQ(machine.engine_stats().blocks_careful,
                    machine.engine_stats().careful_timer)
              << label;
        }
      }
      EXPECT_FALSE(bytes[0].empty()) << label;
      EXPECT_EQ(bytes[0], bytes[1]) << label;

      if (!subject.analyzable) continue;
      auto analysis = wcet::Analyzer().analyze(*program);
      ASSERT_TRUE(analysis.ok()) << label;
      qta::QtaReport reports[2];
      for (const bool careful : {false, true}) {
        vp::Machine machine;
        ASSERT_TRUE(machine.load_program(*program).ok());
        if (careful) force_careful(machine);
        qta::QtaPlugin plugin(analysis->annotated);
        plugin.attach(machine.vm_handle());
        reports[careful] = plugin.report(machine.run().cycles);
      }
      EXPECT_EQ(reports[0].wc_path_cycles, reports[1].wc_path_cycles) << label;
      EXPECT_EQ(reports[0].blocks_entered, reports[1].blocks_entered) << label;
      EXPECT_EQ(reports[0].unknown_blocks, reports[1].unknown_blocks) << label;
      EXPECT_EQ(reports[0].observed_cycles, reports[1].observed_cycles)
          << label;
      EXPECT_TRUE(reports[0].chain_ok()) << label;
    }
  }
}

// E-O1 — attaching and clearing whole-run exec subscribers on a warm
// worker VM re-lowers hooks in place: no flush, no invalidated block, and
// every run reproduces the uninstrumented one.
TEST(CallbackStream, WholeRunSubscribersKeepWarmTranslations) {
  const assembler::Program program = assemble_or_die(kCallLoop);
  auto worker = vp::WorkerVm::create(vp::MachineConfig{}, program);
  ASSERT_TRUE(worker.ok());
  const vp::RunResult golden = (*worker)->prepare().run();
  vp::Machine& warm = (*worker)->prepare();
  const u64 flushes = warm.tb_cache().flush_count();
  const u64 invalidated = warm.tb_cache().invalidated_blocks();
  ASSERT_GT(warm.tb_cache().size(), 0u);
  for (int round = 0; round < 3; ++round) {
    for (const bool instrumented : {true, false}) {
      vp::Machine& machine = (*worker)->prepare();
      CallbackLog log;
      LoggingPlugin logger(log, std::nullopt);
      if (instrumented) logger.attach(machine.vm_handle());
      const u64 careful_before = machine.engine_stats().blocks_careful;
      const vp::RunResult run = machine.run();
      EXPECT_EQ(run.instructions, golden.instructions);
      EXPECT_EQ(run.cycles, golden.cycles);
      EXPECT_EQ(run.exit_code, golden.exit_code);
      EXPECT_EQ(machine.engine_stats().blocks_careful, careful_before);
      if (instrumented) {
        EXPECT_GT(log.events, run.instructions);
      } else {
        EXPECT_EQ(log.events, 0u);
      }
      EXPECT_EQ(machine.tb_cache().flush_count(), flushes);
      EXPECT_EQ(machine.tb_cache().invalidated_blocks(), invalidated);
    }
  }
}


// --- TbRewrite: a code change re-lowers warm blocks in place.

// The block-ending role translate() gives an instruction: 0 body, 1 branch
// or jal, 2 jalr or mret, 3 ecall, ebreak or wfi.
int block_role(isa::Op op) {
  switch (op) {
    case isa::Op::kJal: return 1;
    case isa::Op::kJalr:
    case isa::Op::kMret: return 2;
    case isa::Op::kEcall:
    case isa::Op::kEbreak:
    case isa::Op::kWfi: return 3;
    default:
      return isa::op_info(op).op_class == isa::OpClass::kBranch ? 1 : 0;
  }
}

// What decides where a block ends: each instruction's length and role,
// then the parcel it was cut before.
std::vector<std::pair<u32, int>> block_shape(const vp::TranslationBlock& b) {
  std::vector<std::pair<u32, int>> shape;
  for (const vp::DecodedInsn& d : b.code) {
    shape.emplace_back(d.link - d.pc, block_role(d.op));
  }
  shape.emplace_back(b.cut_bytes, -1);
  return shape;
}

// The first field in which two translations differ, or "" when they are
// equal: the block's extent and static edges, and every DecodedInsn field.
std::string translation_diff(const vp::TranslationBlock& a,
                             const vp::TranslationBlock& b) {
  if (a.start != b.start) return "start";
  if (a.byte_size != b.byte_size) return "byte_size";
  if (a.cut_bytes != b.cut_bytes) return "cut_bytes";
  if (a.fall_pc != b.fall_pc) return "fall_pc";
  if (a.taken_pc != b.taken_pc) return "taken_pc";
  if (a.code.size() != b.code.size()) return "code.size()";
  for (std::size_t i = 0; i < a.code.size(); ++i) {
    const vp::DecodedInsn& x = a.code[i];
    const vp::DecodedInsn& y = b.code[i];
#define S4E_FIELD(f) \
  if (x.f != y.f) return "code[" + std::to_string(i) + "]." #f
    S4E_FIELD(fn);
    S4E_FIELD(pc);
    S4E_FIELD(link);
    S4E_FIELD(imm);
    S4E_FIELD(target);
    S4E_FIELD(c_fall);
    S4E_FIELD(c_taken);
    S4E_FIELD(c_mmio);
    S4E_FIELD(raw);
    S4E_FIELD(csr);
    S4E_FIELD(op);
    S4E_FIELD(rd);
    S4E_FIELD(rs1);
    S4E_FIELD(rs2);
    S4E_FIELD(hook);
#undef S4E_FIELD
  }
  return "";
}

void write_code(vp::Machine& machine, u32 address, u32 encoding,
                unsigned length) {
  S4E_CHECK(machine.bus().ram_write(address, &encoding, length).ok());
}

// Translates blocks the way a fresh machine would: the program as loaded,
// one code change written, the cache empty, then one instruction stepped
// from the block's head translates it.
class FreshTranslator {
 public:
  explicit FreshTranslator(const assembler::Program& program) {
    S4E_CHECK(machine_.load_program(program).ok());
    machine_.save_state(loaded_);
  }

  // nullptr when no block can be translated at `pc` (its head does not
  // fetch or decode).
  const vp::TranslationBlock* translate(u32 pc,
                                        const mutation::Mutant& mutant) {
    machine_.request_tb_flush();
    machine_.restore_state(loaded_);
    write_code(machine_, mutant.address, mutant.mutated, mutant.length);
    machine_.cpu().pc = pc;
    machine_.step();
    return machine_.tb_cache().lookup(pc);
  }

 private:
  vp::Machine machine_;
  vp::Snapshot loaded_;
};

// Check 1 and 3 — every mutant of every translated instruction, over every
// single-hart workload and torture programs, RV32C on and off, is patched
// into a warm machine through code_changed and taken back out: a block
// over it is kept exactly when a fresh translation of the patched bytes
// has its shape, a kept block equals that fresh translation field for
// field (and, after the patch is taken back, its own golden translation),
// and a change that keeps every block severs no chain.
TEST(TbRewrite, KeptBlocksMatchAFreshTranslation) {
  u64 kept = 0;
  u64 dropped = 0;
  for (const OracleSubject& subject : oracle_subjects()) {
    for (const bool compress : {false, true}) {
      assembler::Options options;
      options.compress = compress;
      auto program = assembler::assemble(subject.source, options);
      ASSERT_TRUE(program.ok()) << subject.name;
      const std::string label = subject.name + (compress ? " rvc" : "");
      vp::Machine warm;
      ASSERT_TRUE(warm.load_program(*program).ok());
      vp::Snapshot loaded;
      warm.save_state(loaded);
      warm.run();
      std::map<u32, vp::DecodedInsn> translated;
      warm.tb_cache().for_each_block([&](const vp::TranslationBlock& block) {
        for (const vp::DecodedInsn& d : block.code) translated[d.pc] = d;
      });
      std::vector<u32> pcs;
      for (const auto& entry : translated) pcs.push_back(entry.first);
      std::vector<mutation::Mutant> mutants =
          mutation::enumerate_mutants(*program, pcs);
      // The campaign's mutants keep nearly every block's shape. An ebreak
      // of the same length over each instruction ends its block there
      // instead (or keeps the role of an ecall, ebreak or wfi).
      for (const auto& [pc, d] : translated) {
        mutation::Mutant ebreak;
        ebreak.address = pc;
        ebreak.original = d.raw;
        ebreak.length = static_cast<u8>(d.link - d.pc);
        ebreak.mutated = ebreak.length == 2 ? 0x9002u : 0x0010'0073u;
        ebreak.description = "ebreak";
        if (ebreak.mutated != ebreak.original) mutants.push_back(ebreak);
      }
      FreshTranslator fresh(*program);
      for (const mutation::Mutant& mutant : mutants) {
        const std::string where =
            label + " " + format("0x%08x", mutant.address) + " " +
            mutant.description;
        // The blocks over the patched bytes, as they were.
        struct Touched {
          const vp::TranslationBlock* block;
          vp::TranslationBlock before;
        };
        std::vector<Touched> touched;
        warm.tb_cache().for_each_block([&](const vp::TranslationBlock& b) {
          if (b.start < mutant.address + mutant.length &&
              b.source_end() > mutant.address) {
            touched.push_back({&b, b});
          }
        });
        const u64 severs = warm.tb_cache().chain_severs();
        write_code(warm, mutant.address, mutant.mutated, mutant.length);
        const vp::TbCache::CodeChange patched =
            warm.code_changed(mutant.address, mutant.length);
        EXPECT_EQ(patched.relowered + patched.dropped, touched.size())
            << where;
        if (patched.dropped == 0) {
          EXPECT_EQ(warm.tb_cache().chain_severs(), severs) << where;
        }
        for (const Touched& t : touched) {
          const vp::TranslationBlock* now =
              warm.tb_cache().lookup(t.before.start);
          const vp::TranslationBlock* want =
              fresh.translate(t.before.start, mutant);
          const bool same_shape =
              want != nullptr && block_shape(*want) == block_shape(t.before);
          EXPECT_EQ(now != nullptr, same_shape) << where;
          if (now == nullptr) {
            ++dropped;
            continue;
          }
          ++kept;
          EXPECT_EQ(now, t.block) << where;  // in place
          if (want != nullptr) {
            EXPECT_EQ(translation_diff(*now, *want), "") << where;
          }
        }

        const u64 severs_patched = warm.tb_cache().chain_severs();
        write_code(warm, mutant.address, mutant.original, mutant.length);
        const vp::TbCache::CodeChange restored =
            warm.code_changed(mutant.address, mutant.length);
        EXPECT_EQ(restored.dropped, 0u) << where;
        EXPECT_EQ(warm.tb_cache().chain_severs(), severs_patched) << where;
        for (const Touched& t : touched) {
          if (warm.tb_cache().lookup(t.before.start) != nullptr) {
            EXPECT_EQ(translation_diff(*t.block, t.before), "") << where;
          }
        }
        if (patched.dropped != 0) {
          // Translate the dropped blocks again for the next mutant.
          warm.restore_state(loaded);
          warm.run();
        }
      }
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(dropped, 0u);
}

// kCallLoop's loop without the call: `_start` runs into `loop`, so two
// blocks hold `loop`'s instructions.
const char* kCountLoop = R"(
_start:
    li a0, 0
    li t0, 3
loop:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
)";

// A block cut before a parcel that does not decode: its trap vectors to
// `handler`, which exits.
const char* kCutBlock = R"(
_start:
    la t0, handler
    csrw mtvec, t0
    li a0, 1
bad:
    .word 0
handler:
    li a7, 93
    ecall
)";

u32 symbol(const assembler::Program& program, const char* name) {
  auto address = program.symbol(name);
  S4E_CHECK(address.ok());
  return *address;
}

// Check 2 — every change of a block's shape drops it, as does a change
// while a breakpoint is set or a tb_trans subscriber must see the new
// translation; the same patch without them re-lowers.
TEST(TbRewrite, ShapeChangesDropTheBlock) {
  const assembler::Program plain = assemble_or_die(kCountLoop);
  assembler::Options rvc_options;
  rvc_options.compress = true;
  auto rvc = assembler::assemble(kCountLoop, rvc_options);
  ASSERT_TRUE(rvc.ok());
  const assembler::Program cut = assemble_or_die(kCutBlock);
  const u32 loop = symbol(plain, "loop");
  const u32 addi_a0_2 = 0x0025'0513u;  // addi a0, a0, 2
  enum class Setup { kNone, kTbTrans, kBreakpoint };
  const struct Case {
    const char* name;
    const assembler::Program* program;
    Setup setup;
    u32 address;
    u32 encoding;
    unsigned length;
    u64 relowered;
    u64 dropped;
  } cases[] = {
      // Same shape: `_start`'s block and `loop`'s block are re-lowered.
      {"addi imm", &plain, Setup::kNone, loop, addi_a0_2, 4, 2, 0},
      {"branch -> addi", &plain, Setup::kNone, loop + 8, 0x0000'0013u, 4, 0,
       2},
      {"illegal", &plain, Setup::kNone, loop, 0, 4, 0, 2},
      // The low half of a 32-bit addi over c.addi a0, 1.
      {"rvc -> 4-byte parcel", &*rvc, Setup::kNone, symbol(*rvc, "loop"),
       0x0513u, 2, 0, 2},
      // `_start`'s block ends before `bad`; decoding it would extend it.
      {"cut bytes", &cut, Setup::kNone, symbol(cut, "bad"), 0x0015'0513u,
       4, 0, 1},
      {"before the cut", &cut, Setup::kNone, symbol(cut, "bad") - 4,
       0x0020'0513u, 4, 1, 0},
      {"tb_trans subscriber", &plain, Setup::kTbTrans, loop, addi_a0_2, 4, 0,
       2},
      // Stopped at the breakpoint on `loop`, then stepped: only `loop`'s
      // block (which starts at the breakpoint) holds it.
      {"breakpoint", &plain, Setup::kBreakpoint, loop, addi_a0_2, 4, 0, 1},
  };
  for (const Case& c : cases) {
    vp::Machine machine;
    ASSERT_TRUE(machine.load_program(*c.program).ok());
    if (c.setup == Setup::kTbTrans) {
      machine.add_tb_trans_cb([](void*, s4e_vm*, const s4e_tb_info*) {},
                              nullptr);
    }
    if (c.setup == Setup::kBreakpoint) {
      machine.add_breakpoint(c.address);
      ASSERT_EQ(machine.run().reason, vp::StopReason::kDebugBreak) << c.name;
      ASSERT_EQ(machine.step().reason, vp::StopReason::kDebugStep) << c.name;
    } else {
      machine.run();
    }
    const std::size_t blocks = machine.tb_cache().size();
    const u64 severs = machine.tb_cache().chain_severs();
    write_code(machine, c.address, c.encoding, c.length);
    const vp::TbCache::CodeChange change =
        machine.code_changed(c.address, c.length);
    EXPECT_EQ(change.relowered, c.relowered) << c.name;
    EXPECT_EQ(change.dropped, c.dropped) << c.name;
    EXPECT_EQ(machine.tb_cache().size(), blocks - c.dropped) << c.name;
    EXPECT_EQ(machine.tb_cache().chain_severs() - severs,
              c.dropped != 0 ? 1u : 0u)
        << c.name;
  }
}

// Check 4 — a loop that patches its own head each iteration runs the same
// chained, careful and uncached: with a patch that keeps the block's shape
// (addi a0, a0, 5, then 6, 7: re-lowered in place) and one that changes it
// (a jump to `done`: dropped).
TEST(TbRewrite, SelfModifyingLoopMatchesCarefulAndUncached) {
  const u32 jump_to_done =
      *isa::encode(isa::make_j(isa::Op::kJal, 0, 24));  // site -> done
  const struct {
    const char* name;
    u32 patch;
    u32 step;  // added to the patch word after each store
    int exit_code;
  } variants[] = {{"same shape", 0x0055'0513u, u32{1} << 20, 1 + 5 + 6 + 7},
                  {"new shape", jump_to_done, 0, 1}};
  for (const auto& v : variants) {
    const std::string source = format(R"(
_start:
    la t0, site
    li t1, %u
    li t3, %u
    li s0, 4
    li a0, 0
loop:
site:
    addi a0, a0, 1
    addi s0, s0, -1
    beqz s0, done
    sw t1, 0(t0)
    add t1, t1, t3
    j loop
done:
    li a7, 93
    ecall
)",
                                      v.patch, v.step);
    const assembler::Program program = assemble_or_die(source.c_str());
    vp::MachineConfig uncached_config;
    uncached_config.enable_tb_cache = false;
    vp::Machine chained;
    vp::Machine careful;
    vp::Machine uncached(uncached_config);
    vp::RunResult results[3];
    vp::Machine* machines[3] = {&chained, &careful, &uncached};
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(machines[i]->load_program(program).ok());
      if (i == 1) force_careful(careful);
      results[i] = machines[i]->run();
      EXPECT_EQ(results[i].reason, vp::StopReason::kExitEcall) << v.name;
      EXPECT_EQ(results[i].exit_code, v.exit_code) << v.name << " " << i;
      EXPECT_EQ(results[i].instructions, results[0].instructions) << v.name;
      EXPECT_EQ(results[i].cycles, results[0].cycles) << v.name;
    }
    EXPECT_GT(chained.engine_stats().blocks_fast, 0u) << v.name;
    if (v.step != 0) {
      EXPECT_GT(chained.tb_cache().relowered_blocks(), 0u) << v.name;
      EXPECT_EQ(chained.tb_cache().invalidated_blocks(), 0u) << v.name;
    } else {
      EXPECT_GT(chained.tb_cache().invalidated_blocks(), 0u) << v.name;
    }
  }
}

}  // namespace
}  // namespace s4e
