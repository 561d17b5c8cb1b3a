// Multi-hart SMP suite (ctest -L smp; tsan- and asan-matched via the
// combined "smp-tsan-asan" label):
//   * the determinism contract: --harts 1 under the forced slice scheduler
//     is bit-identical to the legacy single-hart engine on torture programs,
//     and multi-hart runs are bit-reproducible run to run
//   * RV32A semantics: AMO read-modify-write values, SC without a
//     reservation, cross-hart reservation invalidation, misaligned traps
//   * the SMP workloads (smp_spinlock / smp_msgpass) on 1/2/4 harts
//   * CLINT per-hart banks: msip delivery to a specific hart, a timer on
//     hart 1 while hart 0 spins uninterruptible, bank reset/save/restore
//   * snapshot save/restore covering every hart mid-run
//   * fault campaigns on SMP machines: identical to a fresh machine per
//     mutant at any jobs, hart-targeted GPR faults, triage forced off;
//     mutation campaigns identical across jobs x triage
//   * the GDB stub's multi-thread RSP surface (thread info, Hg switching,
//     per-hart stop attribution) and its single-hart byte-compatibility
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "common/hex.hpp"
#include "core/workloads.hpp"
#include "debug/rsp.hpp"
#include "debug/server.hpp"
#include "debug/target.hpp"
#include "fault/fault.hpp"
#include "fresh_reference.hpp"
#include "mutation/mutation.hpp"
#include "testgen/testgen.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"
#include "vp/snapshot.hpp"

namespace s4e {
namespace {

using vp::Machine;
using vp::MachineConfig;
using vp::RunResult;
using vp::StopReason;

assembler::Program assemble_or_die(const std::string& source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok())
      << (program.ok() ? "" : program.error().to_string());
  return *program;
}

assembler::Program workload_program(const std::string& name) {
  auto workload = core::find_workload(name);
  EXPECT_TRUE(workload.ok()) << name;
  return assemble_or_die(workload->source);
}

u32 symbol(const assembler::Program& program, const std::string& name) {
  auto it = program.symbols.find(name);
  EXPECT_NE(it, program.symbols.end()) << name;
  return it == program.symbols.end() ? 0 : it->second;
}

// A short slice quantum forces real cross-hart interleaving on the small
// test workloads (with the default 4096-instruction quantum, hart 0 often
// finishes inside its first slice).
MachineConfig smp_config(unsigned harts, u64 quantum = 64) {
  MachineConfig config;
  config.num_harts = harts;
  config.smp_slice_quantum = quantum;
  config.max_instructions = 4'000'000;
  return config;
}

// --------------------------------------------------------------------------
// Determinism contract.

class SmpTortureSeed : public ::testing::TestWithParam<u64> {};

// The tentpole invariant: a single-hart machine with the slice scheduler
// forced on retires the same instructions, cycles, registers and memory as
// the legacy direct-dispatch engine. Slice boundaries only change where
// translation blocks split, which is architecturally invisible.
TEST_P(SmpTortureSeed, ForcedSchedulerSingleHartBitIdentical) {
  testgen::TortureConfig torture;
  torture.seed = GetParam();
  torture.programs = 3;
  for (const auto& test : testgen::torture_suite(torture)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;

    Machine legacy;
    ASSERT_TRUE(legacy.load_program(*program).ok());
    const RunResult legacy_result = legacy.run();

    MachineConfig forced_config;
    forced_config.force_slice_scheduler = true;
    forced_config.smp_slice_quantum = 97;  // deliberately odd slice length
    Machine forced(forced_config);
    ASSERT_TRUE(forced.load_program(*program).ok());
    const RunResult forced_result = forced.run();

    EXPECT_EQ(legacy_result.reason, forced_result.reason) << test.name;
    EXPECT_EQ(legacy_result.exit_code, forced_result.exit_code) << test.name;
    EXPECT_EQ(legacy_result.instructions, forced_result.instructions)
        << test.name;
    EXPECT_EQ(legacy_result.cycles, forced_result.cycles) << test.name;
    EXPECT_EQ(legacy_result.final_pc, forced_result.final_pc) << test.name;
    for (unsigned reg = 0; reg < isa::kGprCount; ++reg) {
      EXPECT_EQ(legacy.cpu().read_gpr(reg), forced.cpu().read_gpr(reg))
          << test.name << " x" << reg;
    }
    EXPECT_EQ(vp::data_memory_hash(legacy, *program),
              vp::data_memory_hash(forced, *program))
        << test.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmpTortureSeed,
                         ::testing::Values(7u, 21u, 42u));

class SmpHartCount : public ::testing::TestWithParam<unsigned> {};

// Fixed quantum => the cross-hart interleaving is a pure function of the
// program, so two runs of the same SMP configuration are bit-identical.
TEST_P(SmpHartCount, MultiHartRunToRunDeterministic) {
  for (const char* name : {"smp_spinlock", "smp_msgpass"}) {
    const assembler::Program program = workload_program(name);
    Machine first(smp_config(GetParam()));
    Machine second(smp_config(GetParam()));
    ASSERT_TRUE(first.load_program(program).ok());
    ASSERT_TRUE(second.load_program(program).ok());
    const RunResult a = first.run();
    const RunResult b = second.run();

    EXPECT_EQ(a.reason, StopReason::kExitEcall) << name;
    EXPECT_EQ(a.reason, b.reason) << name;
    EXPECT_EQ(a.exit_code, 0) << name;
    EXPECT_EQ(a.exit_code, b.exit_code) << name;
    EXPECT_EQ(a.instructions, b.instructions) << name;
    EXPECT_EQ(a.cycles, b.cycles) << name;
    EXPECT_EQ(a.hart, b.hart) << name;
    for (unsigned hart = 0; hart < GetParam(); ++hart) {
      EXPECT_EQ(first.hart_icount(hart), second.hart_icount(hart))
          << name << " hart " << hart;
      EXPECT_EQ(first.cpu(hart).pc, second.cpu(hart).pc)
          << name << " hart " << hart;
    }
    EXPECT_EQ(vp::data_memory_hash(first, program),
              vp::data_memory_hash(second, program))
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Harts, SmpHartCount, ::testing::Values(2u, 4u));

// Per-hart retirement counters partition the global instruction count.
TEST(SmpStats, PerHartIcountSumsToGlobal) {
  const assembler::Program program = workload_program("smp_spinlock");
  Machine machine(smp_config(2));
  ASSERT_TRUE(machine.load_program(program).ok());
  const RunResult result = machine.run();
  ASSERT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.hart, 0u);  // hart 0 owns the exit path

  u64 total = 0;
  for (unsigned hart = 0; hart < machine.num_harts(); ++hart) {
    EXPECT_GT(machine.hart_icount(hart), 0u) << "hart " << hart;
    total += machine.hart_icount(hart);
  }
  EXPECT_EQ(total, result.instructions);
}

// --------------------------------------------------------------------------
// RV32A semantics.

TEST(SmpAtomics, AmoReadModifyWriteValues) {
  Machine machine;
  ASSERT_TRUE(machine
                  .load_program(assemble_or_die(R"(
_start:
    la s0, word
    li t0, 10
    sw t0, 0(s0)
    li t1, 3
    amoadd.w t2, t1, (s0)
    li t3, 10
    bne t2, t3, bad
    li t1, -1
    amomin.w t2, t1, (s0)
    li t3, 13
    bne t2, t3, bad
    li t1, 5
    amomaxu.w t2, t1, (s0)
    li t3, -1
    bne t2, t3, bad
    lw t4, 0(s0)
    bne t4, t3, bad
    li t1, 0x0f0
    amoand.w t2, t1, (s0)
    li t1, 0x00f
    amoor.w t2, t1, (s0)
    li t3, 0x0f0
    bne t2, t3, bad
    lw t4, 0(s0)
    li t3, 0xff
    bne t4, t3, bad
    li t1, 0xff
    amoxor.w t2, t1, (s0)
    li t1, 77
    amoswap.w t2, t1, (s0)
    bnez t2, bad
    lw t4, 0(s0)
    li t3, 77
    bne t4, t3, bad
    li a0, 0
    li a7, 93
    ecall
bad:
    li a0, 1
    li a7, 93
    ecall
.data
word:
    .word 0
)"))
                  .ok());
  const RunResult result = machine.run();
  ASSERT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 0);
}

TEST(SmpAtomics, ScWithoutReservationFails) {
  Machine machine;
  ASSERT_TRUE(machine
                  .load_program(assemble_or_die(R"(
_start:
    la s0, word
    li t1, 5
    sc.w t2, t1, (s0)
    bnez t2, ok         # rd = 1: SC failed, as required
    li a0, 1
    li a7, 93
    ecall
ok:
    lw t3, 0(s0)        # the failed SC must not have written
    bnez t3, badmem
    li a0, 0
    li a7, 93
    ecall
badmem:
    li a0, 2
    li a7, 93
    ecall
.data
word:
    .word 0
)"))
                  .ok());
  const RunResult result = machine.run();
  ASSERT_EQ(result.reason, StopReason::kExitEcall);
  EXPECT_EQ(result.exit_code, 0);
}

// Hart 1 stores to the word hart 0 holds a reservation on; hart 0's SC must
// fail and hart 1's value must be the one left in memory.
TEST(SmpAtomics, RemoteStoreClearsReservation) {
  Machine machine(smp_config(2));
  ASSERT_TRUE(machine
                  .load_program(assemble_or_die(R"(
_start:
    csrr t0, mhartid
    la s0, shared
    la s1, flag0
    la s2, flag1
    bnez t0, hart1
    lr.w t1, (s0)
    li t2, 1
    sw t2, 0(s1)
wait1:
    lw t3, 0(s2)
    beqz t3, wait1
    li t4, 99
    sc.w t5, t4, (s0)
    beqz t5, bad
    lw t6, 0(s0)
    li t2, 7
    bne t6, t2, bad
    li a0, 0
    li a7, 93
    ecall
bad:
    li a0, 1
    li a7, 93
    ecall
hart1:
wait0:
    lw t3, 0(s1)
    beqz t3, wait0
    li t4, 7
    sw t4, 0(s0)
    li t5, 1
    sw t5, 0(s2)
park:
    wfi
    j park
.data
shared:
    .word 0
flag0:
    .word 0
flag1:
    .word 0
)"))
                  .ok());
  const RunResult result = machine.run();
  ASSERT_EQ(result.reason, StopReason::kExitEcall) << result.detail;
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.hart, 0u);
}

TEST(SmpAtomics, MisalignedAtomicsTrapWithPreciseCause) {
  // AMO / SC misalignment reports cause 6 (store/AMO address misaligned),
  // LR reports cause 4 (load address misaligned).
  const auto run_to_mcause = [](const char* body) {
    Machine machine;
    std::string source = R"(
_start:
    la t0, handler
    csrw mtvec, t0
    la s0, word
    addi s1, s0, 2
)";
    source += body;
    source += R"(
    li a0, 99
    li a7, 93
    ecall
handler:
    csrr a0, mcause
    li a7, 93
    ecall
.data
word:
    .word 0
)";
    EXPECT_TRUE(machine.load_program(assemble_or_die(source)).ok());
    const RunResult result = machine.run();
    EXPECT_EQ(result.reason, StopReason::kExitEcall);
    return result.exit_code;
  };
  EXPECT_EQ(run_to_mcause("    li t1, 1\n    amoadd.w t2, t1, (s1)\n"), 6);
  EXPECT_EQ(run_to_mcause("    li t1, 1\n    sc.w t2, t1, (s1)\n"), 6);
  EXPECT_EQ(run_to_mcause("    lr.w t2, (s1)\n"), 4);
}

// --------------------------------------------------------------------------
// SMP workloads.

TEST(SmpWorkloads, SpinlockRunsOnAnyHartCount) {
  const assembler::Program program = workload_program("smp_spinlock");
  const u32 counter = symbol(program, "counter");
  for (unsigned harts : {1u, 2u, 4u}) {
    Machine machine(smp_config(harts));
    ASSERT_TRUE(machine.load_program(program).ok());
    const RunResult result = machine.run();
    ASSERT_EQ(result.reason, StopReason::kExitEcall) << harts << " harts";
    EXPECT_EQ(result.exit_code, 0) << harts << " harts";
    u32 value = 0;
    ASSERT_TRUE(machine.bus().ram_read(counter, &value, 4).ok());
    // Hart 0's 64 increments always land; other harts add at most 64 each
    // before the exit stops the machine.
    EXPECT_GE(value, 64u) << harts << " harts";
    EXPECT_LE(value, 64u * harts) << harts << " harts";
    if (harts > 1) {
      EXPECT_GT(machine.hart_icount(1), 0u);  // hart 1 really ran
    }
  }
}

TEST(SmpWorkloads, MsgpassTicketsStayUnique) {
  const assembler::Program program = workload_program("smp_msgpass");
  const u32 ticket = symbol(program, "ticket");
  for (unsigned harts : {1u, 2u, 4u}) {
    Machine machine(smp_config(harts));
    ASSERT_TRUE(machine.load_program(program).ok());
    const RunResult result = machine.run();
    ASSERT_EQ(result.reason, StopReason::kExitEcall) << harts << " harts";
    EXPECT_EQ(result.exit_code, 0) << harts << " harts";
    u32 handed_out = 0;
    ASSERT_TRUE(machine.bus().ram_read(ticket, &handed_out, 4).ok());
    EXPECT_GE(handed_out, 16u) << harts << " harts";
    EXPECT_LE(handed_out, 16u * harts) << harts << " harts";
  }
}

// --------------------------------------------------------------------------
// CLINT per-hart banks.

TEST(SmpClint, MsipDeliversToTheAddressedHart) {
  // Hart 0 raises msip[1] and spins; only hart 1 may take the software
  // interrupt (its handler exits with 40 + mhartid).
  Machine machine(smp_config(2));
  ASSERT_TRUE(machine
                  .load_program(assemble_or_die(R"(
.equ CLINT, 0x2000000
_start:
    la t0, handler
    csrw mtvec, t0
    li t1, 8            # MSIE
    csrw mie, t1
    csrsi mstatus, 8    # MIE
    csrr t2, mhartid
    bnez t2, wait
    li t3, CLINT
    li t4, 1
    sw t4, 4(t3)        # msip[1]
spin0:
    j spin0
wait:
    wfi
    j wait
handler:
    csrr a0, mhartid
    addi a0, a0, 40
    li a7, 93
    ecall
)"))
                  .ok());
  const RunResult result = machine.run();
  ASSERT_EQ(result.reason, StopReason::kExitEcall) << result.detail;
  EXPECT_EQ(result.exit_code, 41);  // hart 1, not hart 0
  EXPECT_EQ(result.hart, 1u);
}

TEST(SmpClint, TimerFiresOnHartOneWhileHartZeroSpins) {
  // Hart 1 programs its own mtimecmp bank and sleeps; hart 0 runs with all
  // interrupts disabled. The timer must wake hart 1 only.
  Machine machine(smp_config(2));
  ASSERT_TRUE(machine
                  .load_program(assemble_or_die(R"(
.equ CLINT, 0x2000000
_start:
    la t0, handler
    csrw mtvec, t0
    csrr t2, mhartid
    beqz t2, spin0
    li t3, CLINT
    li t5, 0x4000
    add t3, t3, t5
    slli t6, t2, 3
    add t3, t3, t6      # &mtimecmp[mhartid]
    li t4, 500
    sw t4, 0(t3)
    sw zero, 4(t3)
    li t1, 128          # MTIE
    csrw mie, t1
    csrsi mstatus, 8
wait:
    wfi
    j wait
spin0:
    j spin0
handler:
    csrr a0, mhartid
    addi a0, a0, 40
    li a7, 93
    ecall
)"))
                  .ok());
  const RunResult result = machine.run();
  ASSERT_EQ(result.reason, StopReason::kExitEcall) << result.detail;
  EXPECT_EQ(result.exit_code, 41);
  EXPECT_EQ(result.hart, 1u);
}

TEST(SmpClint, MipReadShowsOnlyTheReadingHartsTimer) {
  // Hart 0's mtimecmp has passed, hart 1's never does: hart 1 reads mip
  // with MTIP clear (mie is clear, so no interrupt is taken).
  Machine machine(smp_config(2));
  ASSERT_TRUE(machine
                  .load_program(assemble_or_die(R"(
.equ CLINT, 0x2000000
_start:
    csrr t2, mhartid
    bnez t2, hart1
    li t3, CLINT + 0x4000
    sw zero, 0(t3)
    sw zero, 4(t3)      # mtimecmp[0] = 0
spin0:
    j spin0
hart1:
    li t4, 200
delay:
    addi t4, t4, -1
    bnez t4, delay
    csrr a0, mip
    li a7, 93
    ecall
)"))
                  .ok());
  const RunResult result = machine.run();
  ASSERT_EQ(result.reason, StopReason::kExitEcall) << result.detail;
  EXPECT_EQ(result.hart, 1u);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(machine.clint()->timer_pending(0));
}

TEST(SmpClint, BankedRegistersResetAndRoundTrip) {
  vp::Clint clint;
  // Per-hart addressing: msip[h] at 4*h, mtimecmp[h] at 0x4000 + 8*h.
  ASSERT_TRUE(clint.write(vp::Clint::kMsipBase + 4 * 3, 4, 1).ok());
  ASSERT_TRUE(clint.write(vp::Clint::kMtimecmpBase + 8 * 2, 4, 1234).ok());
  ASSERT_TRUE(clint.write(vp::Clint::kMtimecmpBase + 8 * 2 + 4, 4, 0).ok());
  EXPECT_TRUE(clint.software_pending(3));
  EXPECT_FALSE(clint.software_pending(0));
  EXPECT_EQ(clint.mtimecmp(2), 1234u);
  clint.tick(2000);
  EXPECT_TRUE(clint.timer_pending(2));
  EXPECT_FALSE(clint.timer_pending(0));  // hart 0's bank still ~0

  vp::StateWriter writer;
  clint.save_state(writer);
  const std::vector<u8> saved = std::move(writer).take();

  clint.reset();
  EXPECT_FALSE(clint.software_pending(3));
  EXPECT_FALSE(clint.timer_pending(2));
  EXPECT_EQ(clint.mtime(), 0u);

  vp::StateReader reader(saved);
  clint.restore_state(reader);
  EXPECT_TRUE(clint.software_pending(3));
  EXPECT_EQ(clint.mtimecmp(2), 1234u);
  EXPECT_EQ(clint.mtime(), 2000u);
  EXPECT_TRUE(clint.timer_pending(2));
}

// --------------------------------------------------------------------------
// Snapshot.

TEST(SmpSnapshot, SaveRestoreRoundTripsEveryHart) {
  const assembler::Program program = workload_program("smp_msgpass");
  Machine machine(smp_config(2));
  ASSERT_TRUE(machine.load_program(program).ok());

  // Advance past the fan-out point so both harts hold divergent state (and
  // lr/sc traffic has happened), then snapshot. 400 global instructions is
  // ~200 per hart under the 64-instruction quantum — well short of exit.
  const RunResult partial = machine.run_slice(400);
  ASSERT_EQ(partial.reason, StopReason::kDebugSlice);
  vp::Snapshot snap;
  machine.save_state(snap);
  ASSERT_EQ(snap.harts.size(), 2u);

  const RunResult first = machine.run();
  ASSERT_EQ(first.reason, StopReason::kExitEcall);
  const u64 first_hash = vp::data_memory_hash(machine, program);
  const u32 first_pc1 = machine.cpu(1).pc;

  machine.restore_state(snap);
  EXPECT_EQ(machine.active_hart(), snap.active_hart);
  const RunResult second = machine.run();
  EXPECT_EQ(second.reason, first.reason);
  EXPECT_EQ(second.exit_code, first.exit_code);
  EXPECT_EQ(second.instructions, first.instructions);
  EXPECT_EQ(second.cycles, first.cycles);
  EXPECT_EQ(second.hart, first.hart);
  EXPECT_EQ(machine.cpu(1).pc, first_pc1);
  EXPECT_EQ(vp::data_memory_hash(machine, program), first_hash);
}

// --------------------------------------------------------------------------
// Fault campaigns on SMP machines.

fault::CampaignConfig smp_campaign_config() {
  fault::CampaignConfig config;
  config.seed = 7;
  config.mutant_count = 24;
  config.machine = smp_config(2, 101);
  return config;
}

TEST(SmpCampaign, ByteIdenticalAcrossJobsAndReuse) {
  const assembler::Program program = workload_program("smp_spinlock");
  for (const unsigned jobs : {1u, 4u}) {
    fault::CampaignConfig config = smp_campaign_config();
    config.jobs = jobs;
    auto result = fault::Campaign(program, config).run();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result->golden_exit_code, 0);
    test_support::expect_matches_fresh(fault::FaultModel(program, config),
                                       *result);
  }
}

// Mutation campaigns on SMP machines: triage is forced off there too, so
// every jobs x triage combination reports the serial triage-off score.
TEST(SmpCampaign, MutationIdenticalAcrossJobsAndTriage) {
  const assembler::Program program = workload_program("smp_spinlock");
  mutation::MutationConfig config;
  config.machine = smp_config(2, 101);
  config.jobs = 1;
  auto serial = mutation::MutationCampaign(program, config).run();
  ASSERT_TRUE(serial.ok()) << serial.error().to_string();
  ASSERT_GT(serial->results.size(), 0u);
  test_support::expect_matches_fresh(mutation::MutationModel(program, config),
                                     *serial);

  for (const unsigned jobs : {1u, 3u}) {
    for (const auto triage :
         {dataflow::TriageMode::kOff, dataflow::TriageMode::kOn,
          dataflow::TriageMode::kVerify}) {
      config.jobs = jobs;
      config.triage = triage;
      auto score = mutation::MutationCampaign(program, config).run();
      ASSERT_TRUE(score.ok()) << score.error().to_string();
      EXPECT_EQ(score->pruned_count, 0u);
      EXPECT_EQ(score->to_string(), serial->to_string());
      ASSERT_EQ(score->results.size(), serial->results.size());
      for (std::size_t i = 0; i < score->results.size(); ++i) {
        EXPECT_EQ(score->results[i].verdict, serial->results[i].verdict)
            << "#" << i;
        EXPECT_EQ(score->results[i].exit_code, serial->results[i].exit_code)
            << "#" << i;
        EXPECT_EQ(score->results[i].instructions,
                  serial->results[i].instructions)
            << "#" << i;
      }
    }
  }
}

TEST(SmpCampaign, GprFaultsTargetDrawnHarts) {
  const assembler::Program program = workload_program("smp_spinlock");
  fault::CampaignConfig config = smp_campaign_config();
  config.mutant_count = 60;
  config.jobs = 1;
  fault::Campaign campaign(program, config);
  auto result = campaign.run();
  ASSERT_TRUE(result.ok()) << result.error().to_string();

  unsigned hart1_gpr = 0;
  for (const fault::FaultSpec& spec : campaign.fault_list()) {
    EXPECT_LT(spec.hart, 2u);
    if (spec.target != fault::FaultTarget::kGpr) {
      EXPECT_EQ(spec.hart, 0u);  // only GPR faults carry a hart
      continue;
    }
    if (spec.hart == 1) {
      ++hart1_gpr;
      EXPECT_NE(spec.to_string().find("@hart1"), std::string::npos);
    } else {
      EXPECT_EQ(spec.to_string().find("@hart"), std::string::npos);
    }
  }
  EXPECT_GT(hart1_gpr, 0u);  // 60 draws over 2 harts: hart 1 must appear
}

TEST(SmpCampaign, TriageForcedOffOnSmpMachines) {
  const assembler::Program program = workload_program("smp_spinlock");
  fault::CampaignConfig config = smp_campaign_config();
  config.jobs = 1;
  config.triage = dataflow::TriageMode::kOn;  // must be ignored for 2 harts
  fault::Campaign campaign(program, config);
  auto result = campaign.run();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->pruned_count, 0u);
}

// --------------------------------------------------------------------------
// Multi-thread RSP surface.

// Scripted ByteChannel (same shape as the debug suite's): pre-recorded
// client chunks in, transcript out.
class ScriptChannel final : public debug::ByteChannel {
 public:
  void push(std::string bytes) { script_.push_back(std::move(bytes)); }

  std::string read_blocking() override {
    if (next_ >= script_.size()) return {};
    return script_[next_++];
  }
  std::string read_poll() override { return {}; }
  bool write_all(std::string_view bytes) override {
    transcript_.append(bytes);
    return true;
  }

  std::vector<std::string> replies() const {
    debug::PacketDecoder decoder;
    decoder.feed(transcript_);
    std::vector<std::string> out;
    while (decoder.has_event()) {
      auto event = decoder.next_event();
      if (event.kind == debug::PacketDecoder::EventKind::kPacket) {
        out.push_back(debug::rsp_rle_expand(event.payload));
      }
    }
    return out;
  }

 private:
  std::vector<std::string> script_;
  std::size_t next_ = 0;
  std::string transcript_;
};

constexpr const char* kHartSplitSource = R"(
_start:
    csrr t0, mhartid
    bnez t0, h1
h0:
    j h0
h1:
    nop
    nop
park:
    wfi
    j park
)";

TEST(SmpDebug, ThreadInfoAndHgSwitching) {
  const assembler::Program program = assemble_or_die(kHartSplitSource);
  Machine machine(smp_config(2));
  ASSERT_TRUE(machine.load_program(program).ok());
  // A marker value in hart 1's t0 distinguishes the two register files.
  machine.cpu(1).write_gpr(5, 0xdeadbeef);

  ScriptChannel channel;
  channel.push(debug::rsp_frame("QStartNoAckMode"));
  channel.push("+");
  channel.push(debug::rsp_frame("qC"));
  channel.push(debug::rsp_frame("qfThreadInfo"));
  channel.push(debug::rsp_frame("qsThreadInfo"));
  channel.push(debug::rsp_frame("Hg2"));
  channel.push(debug::rsp_frame("g"));
  channel.push(debug::rsp_frame("T2"));
  channel.push(debug::rsp_frame("T5"));
  channel.push(debug::rsp_frame("Hg9"));
  channel.push(debug::rsp_frame("k"));

  debug::DebugTarget target(machine);
  debug::RspServer server(target, channel);
  EXPECT_EQ(server.serve(), debug::RspServer::ServeResult::kKilled);

  const auto replies = channel.replies();
  ASSERT_EQ(replies.size(), 9u);
  EXPECT_EQ(replies[0], "OK");      // QStartNoAckMode
  EXPECT_EQ(replies[1], "QC1");     // current thread = hart 0
  EXPECT_EQ(replies[2], "m1,2");    // both harts listed
  EXPECT_EQ(replies[3], "l");       // end of list
  EXPECT_EQ(replies[4], "OK");      // Hg2
  // `g` after Hg2 reads hart 1's registers: t0 (x5) carries the marker.
  ASSERT_EQ(replies[5].size(), 33u * 8u);
  EXPECT_EQ(replies[5].substr(5 * 8, 8), hex32_le(0xdeadbeef));
  EXPECT_EQ(replies[6], "OK");      // T2: thread alive
  EXPECT_EQ(replies[7], "E01");     // T5: no such thread
  EXPECT_EQ(replies[8], "E01");     // Hg9: no such thread
}

TEST(SmpDebug, BreakpointStopNamesTheStoppingHart) {
  const assembler::Program program = assemble_or_die(kHartSplitSource);
  Machine machine(smp_config(2));
  ASSERT_TRUE(machine.load_program(program).ok());
  const u32 h1 = symbol(program, "h1");

  ScriptChannel channel;
  channel.push(debug::rsp_frame("QStartNoAckMode"));
  channel.push("+");
  channel.push(debug::rsp_frame("?"));
  channel.push(debug::rsp_frame("Z0," + hex32(h1) + ",4"));
  channel.push(debug::rsp_frame("c"));
  channel.push(debug::rsp_frame("qC"));
  channel.push(debug::rsp_frame("k"));

  debug::DebugTarget target(machine);
  debug::RspServer server(target, channel);
  EXPECT_EQ(server.serve(), debug::RspServer::ServeResult::kKilled);

  const auto replies = channel.replies();
  ASSERT_EQ(replies.size(), 5u);
  // Initial halt is attributed to hart 0; only hart 1 reaches h1, so the
  // breakpoint stop carries thread 2. qC still reports the Hg selection
  // (thread 1), which is the protocol's contract — stop attribution and
  // register-context selection are independent.
  EXPECT_EQ(replies[1], "T05thread:1;");
  EXPECT_EQ(replies[2], "OK");
  EXPECT_EQ(replies[3], "T05swbreak:;thread:2;");
  EXPECT_EQ(replies[4], "QC1");
  EXPECT_EQ(machine.cpu(1).pc, h1);
}

TEST(SmpDebug, SingleHartSessionKeepsLegacyReplies) {
  const assembler::Program program = assemble_or_die(kHartSplitSource);
  Machine machine;  // one hart: the multi-thread surface must stay silent
  ASSERT_TRUE(machine.load_program(program).ok());

  ScriptChannel channel;
  channel.push(debug::rsp_frame("QStartNoAckMode"));
  channel.push("+");
  channel.push(debug::rsp_frame("?"));
  channel.push(debug::rsp_frame("qC"));
  channel.push(debug::rsp_frame("qfThreadInfo"));
  channel.push(debug::rsp_frame("s"));
  channel.push(debug::rsp_frame("k"));

  debug::DebugTarget target(machine);
  debug::RspServer server(target, channel);
  EXPECT_EQ(server.serve(), debug::RspServer::ServeResult::kKilled);

  const auto replies = channel.replies();
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[1], "S05");  // no thread annotation
  EXPECT_EQ(replies[2], "");     // qC unsupported, exactly as before
  EXPECT_EQ(replies[3], "");     // qfThreadInfo unsupported
  EXPECT_EQ(replies[4], "S05");  // step reply unchanged
}

}  // namespace
}  // namespace s4e
