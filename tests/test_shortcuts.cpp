// The campaign driver's exact shortcuts (ctest -L shortcuts): faults dead
// at their trigger reported from the golden recording, transient faults
// started at the golden checkpoint below their trigger, and hangs stopped
// at a repeated state. None may change a result, so every campaign here is
// checked against the fresh-machine oracle (a new machine and a full run
// per item), and the hand-written cases pin what each shortcut must and
// must not do.
#include <gtest/gtest.h>

#include <string>

#include "asm/assembler.hpp"
#include "common/strings.hpp"
#include "core/workloads.hpp"
#include "fault/fault.hpp"
#include "fresh_reference.hpp"
#include "mutation/mutation.hpp"
#include "testgen/testgen.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"

namespace s4e {
namespace {

assembler::Program assemble_or_die(const std::string& source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  return program.ok() ? *program : assembler::Program{};
}

// Runs `source` on a machine with the cycle stop armed and a budget of
// `budget` instructions.
vp::RunResult run_armed(const std::string& source, u64 budget,
                        vp::SnapshotStats* stats = nullptr) {
  vp::MachineConfig config;
  config.max_instructions = budget;
  vp::Machine machine(config);
  EXPECT_TRUE(machine.load_program(assemble_or_die(source)).ok());
  machine.arm_cycle_stop();
  const vp::RunResult run = machine.run();
  if (stats != nullptr) *stats = machine.snapshot_stats();
  return run;
}

// --- The repeated-state stop.

TEST(CampaignShortcuts, ExactCycleHangIsStopped) {
  // Stores the same value to the same word forever: the state at the loop
  // head repeats exactly.
  const std::string source = R"(
_start:
    la t0, slot
    li t1, 5
loop:
    sw t1, 0(t0)
    addi t2, t1, 1
    j loop
.data
slot:
    .word 0
)";
  vp::SnapshotStats stats;
  const vp::RunResult run = run_armed(source, 1'000'000, &stats);
  EXPECT_EQ(run.reason, vp::StopReason::kMaxInstructions);
  EXPECT_EQ(run.exit_code, -1);
  EXPECT_EQ(run.instructions, 1'000'000u);
  EXPECT_EQ(stats.hangs_stopped, 1u);
  EXPECT_GT(stats.hang_insns, 900'000u);
}

// Loops whose state never repeats, or that read time: none may stop
// early, so each runs to its budget.
void expect_not_stopped(const std::string& body, const std::string& what,
                        u64 budget = 20'000) {
  const std::string source = "_start:\n" + body;
  vp::SnapshotStats stats;
  const vp::RunResult run = run_armed(source, budget, &stats);
  EXPECT_EQ(run.reason, vp::StopReason::kMaxInstructions) << what;
  EXPECT_EQ(run.instructions, budget) << what;
  EXPECT_EQ(stats.hangs_stopped, 0u) << what;
}

TEST(CampaignShortcuts, TimeReadingLoopsAreNotStopped) {
  expect_not_stopped("loop:\n    csrr t0, mcycle\n    li t0, 0\n    j loop\n",
                     "mcycle");
  expect_not_stopped("loop:\n    csrr t0, time\n    li t0, 0\n    j loop\n",
                     "time");
  expect_not_stopped("loop:\n    csrr t0, mip\n    li t0, 0\n    j loop\n",
                     "mip");
  expect_not_stopped(
      "    li t1, 0x0200bff8\nloop:\n    lw t0, 0(t1)\n    li t0, 0\n"
      "    j loop\n",
      "mtime load");
  // wfi with the timer armed sleeps to mtimecmp: time passes per pass.
  expect_not_stopped(
      "    li t1, 0x02004000\n    li t0, -1\n    sw t0, 0(t1)\n"
      "    li t0, 0x7fffffff\n    sw t0, 4(t1)\n    li t0, 0x80\n    csrw mie, t0\nloop:\n"
      "    wfi\n    j loop\n",
      "wfi");
}

TEST(CampaignShortcuts, CounterLoopIsNotStopped) {
  // Long enough for many chain quanta to end at a compared head.
  expect_not_stopped("loop:\n    addi t0, t0, 1\n    j loop\n", "counter",
                     2'000'000);
  expect_not_stopped(
      "    la t1, word\nloop:\n    lw t0, 0(t1)\n    addi t0, t0, 1\n"
      "    sw t0, 0(t1)\n    li t0, 0\n    j loop\n.data\nword:\n"
      "    .word 0\n",
      "memory counter");  // the registers repeat at every loop head
}

// --- The golden checkpoint ladder.

// A run resumed from any rung ends exactly as a full run from the start:
// exit code, instructions, cycles and UART output.
void expect_rungs_resume_as_full_runs(const std::string& source,
                                      const std::string& what) {
  SCOPED_TRACE(what);
  const auto program = assemble_or_die(source);
  vp::MachineConfig config;
  config.timing.icache_miss_cycles = 10;
  vp::Machine fresh(config);
  ASSERT_TRUE(fresh.load_program(program).ok());
  const vp::RunResult want = fresh.run();
  auto vm = vp::WorkerVm::create(config, program, want.instructions);
  ASSERT_TRUE(vm.ok());
  for (u64 start = 0; start < want.instructions; ++start) {
    vp::Machine& machine = (*vm)->prepare(start);
    const vp::RunResult got = machine.run();
    EXPECT_EQ(got.exit_code, want.exit_code) << "start " << start;
    EXPECT_EQ(got.instructions, want.instructions) << "start " << start;
    EXPECT_EQ(got.cycles, want.cycles) << "start " << start;
    EXPECT_EQ(machine.uart()->tx_log(), fresh.uart()->tx_log())
        << "start " << start;
  }
}

// Raises MSIP with mie clear, runs on, then exits with the mip it reads.
std::string msip_read_source() {
  std::string source =
      "_start:\n    li t0, 0x02000000\n    li t1, 1\n    sw t1, 0(t0)\n";
  for (int i = 0; i < 90; ++i) source += "    addi t2, t2, 1\n";
  source += "    csrr a0, mip\n    li a7, 93\n    ecall\n";
  return source;
}

TEST(CampaignShortcuts, RungsResumeAsFullRuns) {
  for (const char* name : {"sieve", "lock_ctrl", "pid"}) {
    expect_rungs_resume_as_full_runs(core::find_workload(name)->source, name);
  }
  // MSIP turns pending with no interrupt check between the store and the
  // read in a chained full run; a rung after the store would run one.
  expect_rungs_resume_as_full_runs(msip_read_source(), "msip");
}

// A mip read shows MSIP wherever the engine last returned to central
// dispatch: chained from icount 0, resumed from any rung, or resumed after
// a stop at any instruction.
TEST(CampaignShortcuts, MipReadsMsipFromEveryStart) {
  const auto program = assemble_or_die(msip_read_source());
  vp::Machine fresh;
  ASSERT_TRUE(fresh.load_program(program).ok());
  const vp::RunResult want = fresh.run();
  ASSERT_EQ(want.reason, vp::StopReason::kExitEcall) << want.detail;
  EXPECT_EQ(want.exit_code, 8);  // MSIP
  auto vm = vp::WorkerVm::create(vp::MachineConfig{}, program,
                                 want.instructions);
  ASSERT_TRUE(vm.ok());
  for (u64 start = 0; start < want.instructions; ++start) {
    EXPECT_EQ((*vm)->prepare(start).run().exit_code, 8) << "rung " << start;
    vp::Machine split;
    ASSERT_TRUE(split.load_program(program).ok());
    split.run(start);
    EXPECT_EQ(split.run().exit_code, 8) << "stop at " << start;
  }
}

// --- Every shortcut against the fresh-machine oracle.

void expect_campaigns_match_fresh(const assembler::Program& program,
                                  fault::CampaignConfig fault_config,
                                  mutation::MutationConfig mutation_config,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  auto faults = fault::Campaign(program, fault_config).run();
  ASSERT_TRUE(faults.ok()) << faults.error().to_string();
  test_support::expect_matches_fresh(fault::FaultModel(program, fault_config),
                                     *faults);
  auto mutants = mutation::MutationCampaign(program, mutation_config).run();
  ASSERT_TRUE(mutants.ok()) << mutants.error().to_string();
  test_support::expect_matches_fresh(
      mutation::MutationModel(program, mutation_config), *mutants);
}

class StandardWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(StandardWorkload, CampaignsMatchFreshMachines) {
  auto workload = core::find_workload(GetParam());
  ASSERT_TRUE(workload.ok());
  const auto program = assemble_or_die(workload->source);
  for (const unsigned jobs : {1u, 4u}) {
    fault::CampaignConfig fault_config;
    fault_config.seed = 1'000'003;
    fault_config.mutant_count = 300;
    fault_config.jobs = jobs;
    mutation::MutationConfig mutation_config;
    mutation_config.jobs = jobs;
    expect_campaigns_match_fresh(program, fault_config, mutation_config,
                                 format("jobs=%u", jobs));
  }
}

std::vector<std::string> single_hart_workloads() {
  std::vector<std::string> names;
  for (const core::Workload& workload : core::standard_workloads()) {
    if (workload.name.rfind("smp_", 0) != 0) names.push_back(workload.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    CampaignShortcuts, StandardWorkload,
    ::testing::ValuesIn(single_hart_workloads()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

std::vector<testgen::GeneratedProgram> torture_programs(u64 seed) {
  testgen::TortureConfig torture;
  torture.seed = seed;
  torture.programs = 1;
  torture.segments = 40;
  torture.use_csr = true;
  return testgen::torture_suite(torture);
}

TEST(CampaignShortcuts, TortureSeedsMatchFreshMachines) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    for (const auto& test : torture_programs(seed)) {
      const auto program = assemble_or_die(test.source);
      fault::CampaignConfig fault_config;
      fault_config.seed = seed;
      fault_config.mutant_count = 300;
      fault_config.jobs = 4;
      mutation::MutationConfig mutation_config;
      mutation_config.max_mutants = 300;
      mutation_config.jobs = 4;
      expect_campaigns_match_fresh(program, fault_config, mutation_config,
                                   test.name);
    }
  }
}

TEST(CampaignShortcuts, TriageModesMatchFreshMachines) {
  const auto program =
      assemble_or_die(core::find_workload("bubble_sort")->source);
  for (const auto mode :
       {dataflow::TriageMode::kOff, dataflow::TriageMode::kOn,
        dataflow::TriageMode::kVerify}) {
    for (const unsigned jobs : {1u, 4u}) {
      fault::CampaignConfig fault_config;
      fault_config.seed = 9;
      fault_config.mutant_count = 300;
      fault_config.jobs = jobs;
      fault_config.triage = mode;
      mutation::MutationConfig mutation_config;
      mutation_config.jobs = jobs;
      mutation_config.triage = mode;
      // The oracle runs every item: its report has no pruned lines, so
      // compare the triage-off reports and the per-item results.
      if (mode != dataflow::TriageMode::kOn) {
        expect_campaigns_match_fresh(
            program, fault_config, mutation_config,
            format("triage=%d jobs=%u", static_cast<int>(mode), jobs));
        continue;
      }
      auto faults = fault::Campaign(program, fault_config).run();
      ASSERT_TRUE(faults.ok());
      fault_config.triage = dataflow::TriageMode::kOff;
      auto reference = bench::fresh_campaign(
          fault::FaultModel(program, fault_config), 1);
      ASSERT_EQ(faults->mutants.size(), reference.mutants.size());
      for (std::size_t i = 0; i < reference.mutants.size(); ++i) {
        if (faults->mutants[i].pruned) continue;
        EXPECT_EQ(faults->mutants[i].outcome, reference.mutants[i].outcome)
            << i;
        EXPECT_EQ(faults->mutants[i].instructions,
                  reference.mutants[i].instructions)
            << i;
      }
    }
  }
}

// Under --post-mortem every run starts at icount 0 and hangs run to the
// budget, so each flight-recorder ring holds what a full run leaves there.
TEST(CampaignShortcuts, PostMortemMatchesFreshMachines) {
  for (const char* name : {"sieve", "bsearch"}) {
    const auto program = assemble_or_die(core::find_workload(name)->source);
    fault::CampaignConfig config;
    config.seed = 3;
    config.mutant_count = 200;
    config.jobs = 4;
    config.post_mortem = true;
    auto report = fault::Campaign(program, config).run();
    ASSERT_TRUE(report.ok());
    const fault::FaultModel model(program, config);
    test_support::expect_matches_fresh(model, *report);
    auto reference = bench::fresh_campaign(model, 1);
    for (std::size_t i = 0; i < reference.mutants.size(); ++i) {
      EXPECT_EQ(report->mutants[i].post_mortem,
                reference.mutants[i].post_mortem)
          << name << " item " << i;
    }
    EXPECT_EQ(report->snapshot_stats.hangs_stopped, 0u) << name;
    EXPECT_EQ(report->snapshot_stats.fast_forwards, 0u) << name;
  }
}

TEST(CampaignShortcuts, SmpCampaignMatchesFreshMachines) {
  const auto program =
      assemble_or_die(core::find_workload("smp_spinlock")->source);
  fault::CampaignConfig config;
  config.machine.num_harts = 2;
  config.seed = 11;
  config.mutant_count = 200;
  config.jobs = 4;
  auto report = fault::Campaign(program, config).run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  test_support::expect_matches_fresh(fault::FaultModel(program, config),
                                     *report);
  // SMP campaigns run every fault to its end.
  EXPECT_EQ(report->snapshot_stats.dead_skipped, 0u);
  EXPECT_EQ(report->snapshot_stats.hangs_stopped, 0u);
}

// The shortcuts do happen on fault_sweep-sized campaigns, and their counts
// add up: executed = reported - skipped - prefix - stopped.
TEST(CampaignShortcuts, StatsAccountForEveryInstruction) {
  const auto program = assemble_or_die(core::find_workload("sieve")->source);
  fault::CampaignConfig config;
  config.seed = 1'000'008;
  config.mutant_count = 500;
  config.jobs = 2;
  auto report = fault::Campaign(program, config).run();
  ASSERT_TRUE(report.ok());
  const vp::SnapshotStats& stats = report->snapshot_stats;
  EXPECT_GT(stats.dead_skipped, 0u);
  EXPECT_GT(stats.fast_forwards, 0u);
  EXPECT_GT(stats.hangs_stopped, 0u);
  EXPECT_GT(stats.rungs, 0u);
  EXPECT_EQ(stats.insns_reported,
            static_cast<u64>(report->simulated_instructions));
  EXPECT_EQ(stats.insns_executed, stats.insns_reported - stats.dead_insns -
                                      stats.prefix_insns - stats.hang_insns);
  EXPECT_EQ(stats.restores + stats.dead_skipped, 500u);
}

// Fast-forwarded runs take the modelled cycles of a fresh full run, under
// the timing models that see block boundaries and branch history.
TEST(CampaignShortcuts, FastForwardMatchesFreshCycles) {
  for (const int model : {0, 1}) {
    vp::MachineConfig machine;
    if (model == 0) {
      machine.timing.icache_miss_cycles = 10;
    } else {
      machine.timing.branch_predictor = true;
    }
    for (const char* name : {"matmul", "sieve", "pid"}) {
      fault::CampaignConfig config;
      config.machine = machine;
      config.seed = 21;
      config.mutant_count = 200;
      test_support::expect_reuse_matches_fresh_cycles(
          fault::FaultModel(
              assemble_or_die(core::find_workload(name)->source), config),
          name, true);
    }
    for (const auto& test : torture_programs(404)) {
      fault::CampaignConfig config;
      config.machine = machine;
      config.seed = 5;
      config.mutant_count = 200;
      test_support::expect_reuse_matches_fresh_cycles(
          fault::FaultModel(assemble_or_die(test.source), config), test.name,
          true);
    }
  }
}

// --- Dead-fault cases that must run.

// One transient fault on `source`: known() must not report it, and a full
// run must classify it `want`.
void expect_runs(const std::string& source, fault::FaultSpec spec,
                 fault::Outcome want, const std::string& what) {
  SCOPED_TRACE(what);
  const auto program = assemble_or_die(source);
  fault::CampaignConfig config;
  const fault::FaultModel model(program, config);
  vp::GoldenRun golden;
  vp::GoldenRecording recording;
  ASSERT_TRUE(model.enumerate(golden, &recording).ok());
  spec.kind = fault::FaultKind::kTransient;
  EXPECT_FALSE(model.known(recording, spec, golden).has_value());
  vp::Machine machine(config.item_machine(golden.result.instructions));
  ASSERT_TRUE(machine.load_program(program).ok());
  auto result = model.run_one(machine, spec, golden);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, want);
}

TEST(CampaignShortcuts, ExitEcallReadsA0) {
  // a0's last explicit read is the `mv`; the exit ecall reads it again.
  const std::string source = R"(
_start:
    li a0, 5
    mv t0, a0
    li a7, 93
    ecall
)";
  fault::FaultSpec spec;
  spec.target = fault::FaultTarget::kGpr;
  spec.reg = 10;
  spec.bit = 0;
  spec.trigger = 2;  // after `mv`, before `li a7`
  expect_runs(source, spec, fault::Outcome::kSdc, "a0");
}

TEST(CampaignShortcuts, NeighbouringStoreDoesNotKillAByte) {
  // Byte 0 of `word` is flipped; the only later access is an `sb` to byte 1.
  const std::string source = R"(
_start:
    la t1, word
    li t0, 9
    sb t0, 1(t1)
    li a0, 0
    li a7, 93
    ecall
.data
word:
    .word 0
)";
  const auto program = assemble_or_die(source);
  fault::FaultSpec spec;
  spec.target = fault::FaultTarget::kMemory;
  spec.address = program.find_section(".data")->base;
  spec.bit = 3;
  spec.trigger = 2;  // before the `sb`
  expect_runs(source, spec, fault::Outcome::kSdc, "sb");
}

TEST(CampaignShortcuts, UntouchedDataByteIsSdc) {
  const std::string source = R"(
_start:
    la t1, word
    lw t0, 0(t1)
    li a0, 0
    li a7, 93
    ecall
.data
word:
    .word 7
)";
  const auto program = assemble_or_die(source);
  fault::FaultSpec spec;
  spec.target = fault::FaultTarget::kMemory;
  spec.address = program.find_section(".data")->base + 2;
  spec.bit = 6;
  spec.trigger = 3;  // after the last load
  expect_runs(source, spec, fault::Outcome::kSdc, ".data");
}

TEST(CampaignShortcuts, TrappingLoadWritesNoRegister) {
  // The load faults, so a0 keeps the value the exit ecall reads.
  const std::string source = R"(
_start:
    la t0, handler
    csrw mtvec, t0
    li a0, 3
    lw a0, 0(zero)
    li a7, 93
    ecall
handler:
    csrr t1, mepc
    addi t1, t1, 4
    csrw mepc, t1
    mret
)";
  fault::FaultSpec spec;
  spec.target = fault::FaultTarget::kGpr;
  spec.reg = 10;
  spec.bit = 2;
  spec.trigger = 4;  // before the faulting load
  expect_runs(source, spec, fault::Outcome::kSdc, "trap");
}

TEST(CampaignShortcuts, OverwrittenRegisterIsDead) {
  const std::string source = R"(
_start:
    li t0, 1
    li t0, 2
    mv a0, t0
    li a7, 93
    ecall
)";
  const auto program = assemble_or_die(source);
  fault::CampaignConfig config;
  const fault::FaultModel model(program, config);
  vp::GoldenRun golden;
  vp::GoldenRecording recording;
  ASSERT_TRUE(model.enumerate(golden, &recording).ok());
  fault::FaultSpec spec;
  spec.target = fault::FaultTarget::kGpr;
  spec.reg = 5;
  spec.bit = 4;
  spec.trigger = 1;  // before the second `li t0`
  const auto known = model.known(recording, spec, golden);
  ASSERT_TRUE(known.has_value());
  EXPECT_EQ(known->outcome, fault::Outcome::kMasked);
  EXPECT_EQ(known->exit_code, golden.result.exit_code);
  EXPECT_EQ(known->instructions, golden.result.instructions);
}

}  // namespace
}  // namespace s4e
