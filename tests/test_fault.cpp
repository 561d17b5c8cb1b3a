#include <gtest/gtest.h>

#include <set>

#include "core/ecosystem.hpp"
#include "core/workloads.hpp"
#include "fault/fault.hpp"
#include "vp/runner.hpp"

namespace s4e::fault {
namespace {

assembler::Program build(const std::string& source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  return *program;
}

// A small self-checking workload: checksum with known result.
const char* kChecksumSource = R"(
_start:
    la t0, data
    li t1, 8
    li a0, 0
loop:
    lw t2, 0(t0)
    add a0, a0, t2
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, loop
    li a7, 93
    ecall
.data
data:
    .word 1, 2, 3, 4, 5, 6, 7, 8
)";

TEST(FaultSpec, Describes) {
  FaultSpec spec;
  spec.target = FaultTarget::kGpr;
  spec.kind = FaultKind::kTransient;
  spec.reg = 10;
  spec.bit = 3;
  spec.trigger = 42;
  const std::string text = spec.to_string();
  EXPECT_NE(text.find("gpr x10"), std::string::npos);
  EXPECT_NE(text.find("bit 3"), std::string::npos);
  EXPECT_NE(text.find("transient"), std::string::npos);
}

TEST(Injector, TransientGprFlipChangesResult) {
  auto program = build(kChecksumSource);
  // Golden.
  vp::Machine golden;
  ASSERT_TRUE(golden.load_program(program).ok());
  auto golden_run = golden.run();
  ASSERT_EQ(golden_run.exit_code, 36);

  // Flip bit 4 of a0 (the accumulator) late in the run: must change the sum.
  vp::Machine faulty;
  ASSERT_TRUE(faulty.load_program(program).ok());
  FaultSpec spec;
  spec.target = FaultTarget::kGpr;
  spec.kind = FaultKind::kTransient;
  spec.reg = 10;
  spec.bit = 6;  // +/- 64: outside the reachable sum, guaranteed visible
  spec.trigger = golden_run.instructions - 3;
  FaultInjectorPlugin injector(spec);
  injector.attach(faulty.vm_handle());
  auto faulty_run = faulty.run();
  EXPECT_EQ(injector.applications(), 1u);
  EXPECT_TRUE(faulty_run.normal_exit());
  EXPECT_NE(faulty_run.exit_code, golden_run.exit_code);
}

TEST(Injector, EarlyTransientOnDeadRegisterIsMasked) {
  auto program = build(kChecksumSource);
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  FaultSpec spec;
  spec.target = FaultTarget::kGpr;
  spec.kind = FaultKind::kTransient;
  spec.reg = 28;  // t3: never used by the workload
  spec.bit = 5;
  spec.trigger = 2;
  FaultInjectorPlugin injector(spec);
  injector.attach(machine.vm_handle());
  auto run = machine.run();
  EXPECT_TRUE(run.normal_exit());
  EXPECT_EQ(run.exit_code, 36);
}

TEST(Injector, MemoryFaultCorruptsData) {
  auto program = build(kChecksumSource);
  const u32 data_base = program.find_section(".data")->base;
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  FaultSpec spec;
  spec.target = FaultTarget::kMemory;
  spec.kind = FaultKind::kTransient;
  spec.address = data_base;  // first byte of data[0]
  spec.bit = 7;              // +128
  spec.trigger = 0;          // before anything is read
  FaultInjectorPlugin injector(spec);
  injector.attach(machine.vm_handle());
  auto run = machine.run();
  EXPECT_TRUE(run.normal_exit());
  EXPECT_EQ(run.exit_code, 36 + 128);
}

TEST(Injector, CodeFaultRetranslatesFlippedBlock) {
  auto program = build(kChecksumSource);
  const u32 text_base = program.find_section(".text")->base;
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  FaultSpec spec;
  spec.target = FaultTarget::kCode;
  spec.kind = FaultKind::kTransient;
  spec.address = text_base + 0x10;  // the lw inside the loop
  spec.bit = 20;
  spec.trigger = 10;  // inside the loop's second iteration
  // Every translation of a block holding the faulty word: (icount at
  // translation, the word as decoded).
  struct Translation {
    u64 icount;
    u32 encoding;
  };
  struct Log {
    u32 address;
    std::vector<Translation> translations;
  } log{spec.address, {}};
  s4e_register_tb_trans_cb(
      machine.vm_handle(),
      [](void* userdata, s4e_vm* vm, const s4e_tb_info* tb) {
        auto* log = static_cast<Log*>(userdata);
        for (u32 i = 0; i < tb->n_insns; ++i) {
          if (tb->insns[i].address == log->address) {
            log->translations.push_back({s4e_icount(vm), tb->insns[i].encoding});
          }
        }
      },
      &log);
  FaultInjectorPlugin injector(spec);
  injector.attach(machine.vm_handle());
  const u64 flushes_before = machine.tb_cache().flush_count();
  const u64 invalidated_before = machine.tb_cache().invalidated_blocks();
  auto run = machine.run();
  (void)run;
  EXPECT_EQ(injector.applications(), 1u);
  // The flipped word's translations were dropped — and nothing else was
  // flushed wholesale...
  EXPECT_GE(machine.tb_cache().invalidated_blocks(), invalidated_before + 1);
  EXPECT_EQ(machine.tb_cache().flush_count(), flushes_before);
  // ...and the word was re-translated after the trigger, decoding the
  // flipped encoding.
  ASSERT_GE(log.translations.size(), 2u);
  const Translation& before = log.translations.front();
  const Translation& after = log.translations.back();
  EXPECT_LE(before.icount, spec.trigger);
  EXPECT_GT(after.icount, spec.trigger);
  EXPECT_EQ(after.encoding, before.encoding ^ (u32{1} << spec.bit));
}

TEST(Injector, UnwritableTargetCountsNoApplication) {
  auto program = build(kChecksumSource);
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  FaultSpec spec;
  spec.target = FaultTarget::kMemory;
  spec.kind = FaultKind::kTransient;
  spec.address = 0x1000;  // not RAM: nothing can be written
  spec.bit = 3;
  spec.trigger = 2;
  FaultInjectorPlugin injector(spec);
  injector.attach(machine.vm_handle());
  auto run = machine.run();
  EXPECT_TRUE(run.normal_exit());
  EXPECT_EQ(run.exit_code, 36);
  EXPECT_EQ(injector.applications(), 0u);
}

TEST(Injector, UnwritableStuckAtCountsNoApplication) {
  auto program = build(kChecksumSource);
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  FaultSpec spec;
  spec.target = FaultTarget::kMemory;
  spec.kind = FaultKind::kStuckAt;
  spec.address = 0x1000;  // not RAM: the bit cannot be forced
  spec.bit = 3;
  spec.stuck_value = true;
  FaultInjectorPlugin injector(spec);
  injector.attach(machine.vm_handle());
  auto run = machine.run();
  EXPECT_TRUE(run.normal_exit());
  EXPECT_EQ(run.exit_code, 36);
  EXPECT_EQ(injector.applications(), 0u);
}

TEST(Injector, StuckAtZeroForcesBitLow) {
  auto program = build(R"(
    li t0, 0xff
    mv a0, t0
    li a7, 93
    ecall
  )");
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  FaultSpec spec;
  spec.target = FaultTarget::kGpr;
  spec.kind = FaultKind::kStuckAt;
  spec.reg = 5;  // t0
  spec.bit = 0;
  spec.stuck_value = false;
  FaultInjectorPlugin injector(spec);
  injector.attach(machine.vm_handle());
  auto run = machine.run();
  EXPECT_TRUE(run.normal_exit());
  EXPECT_EQ(run.exit_code, 0xfe);
  EXPECT_GE(injector.applications(), 1u);
}

TEST(Campaign, RunsAndClassifiesAllMutants) {
  auto program = build(kChecksumSource);
  CampaignConfig config;
  config.seed = 11;
  config.mutant_count = 60;
  Campaign campaign(program, config);
  auto result = campaign.run();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->mutants.size(), 60u);
  EXPECT_EQ(result->golden_exit_code, 36);
  u64 total = 0;
  for (unsigned i = 0; i < 4; ++i) total += result->outcome_counts[i];
  EXPECT_EQ(total, 60u);
  // A random campaign over a checksum kernel must produce at least some
  // masked and some non-masked outcomes.
  EXPECT_GT(result->count(Outcome::kMasked), 0u);
  EXPECT_GT(60u - result->count(Outcome::kMasked), 0u);
}

TEST(Campaign, DeterministicForSeed) {
  auto program = build(kChecksumSource);
  CampaignConfig config;
  config.seed = 5;
  config.mutant_count = 25;
  Campaign a(program, config);
  Campaign b(program, config);
  auto ra = a.run();
  auto rb = b.run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(ra->outcome_counts[i], rb->outcome_counts[i]);
  }
}

TEST(Campaign, CoverageDirectedTargetsLiveState) {
  auto program = build(kChecksumSource);
  CampaignConfig config;
  config.seed = 3;
  config.mutant_count = 40;
  config.coverage_directed = true;
  config.memory_faults = false;
  config.code_faults = false;
  Campaign campaign(program, config);
  ASSERT_TRUE(campaign.run().ok());
  // Only registers the workload actually reads may appear.
  for (const FaultSpec& spec : campaign.fault_list()) {
    EXPECT_EQ(spec.target, FaultTarget::kGpr);
    // The kernel reads t0..t2, a0, a7 and (implicitly) x0 — allow the set
    // of actually-read registers, checked against the profile indirectly:
    EXPECT_NE(spec.reg, 28u);  // t3 is never touched
  }
}

TEST(Campaign, BlindModeCoversMoreTargets) {
  auto program = build(kChecksumSource);
  CampaignConfig directed_config;
  directed_config.seed = 9;
  directed_config.mutant_count = 120;
  directed_config.memory_faults = false;
  directed_config.code_faults = false;
  Campaign directed(program, directed_config);
  ASSERT_TRUE(directed.run().ok());

  CampaignConfig blind_config = directed_config;
  blind_config.coverage_directed = false;
  Campaign blind(program, blind_config);
  ASSERT_TRUE(blind.run().ok());

  auto distinct_regs = [](const std::vector<FaultSpec>& faults) {
    std::set<unsigned> regs;
    for (const FaultSpec& spec : faults) regs.insert(spec.reg);
    return regs.size();
  };
  EXPECT_LT(distinct_regs(directed.fault_list()),
            distinct_regs(blind.fault_list()));
}

TEST(Campaign, HangDetection) {
  // A fault flipping the loop counter to a huge value can make the loop
  // spin far longer; stuck-at on the counter's low bit prevents
  // termination entirely. Force such a fault and expect a hang.
  auto program = build(R"(
_start:
    li t1, 8
loop:
    addi t1, t1, -1
    bnez t1, loop
    li a7, 93
    li a0, 0
    ecall
)");
  vp::MachineConfig machine_config;
  machine_config.max_instructions = 100'000;
  vp::Machine machine(machine_config);
  ASSERT_TRUE(machine.load_program(program).ok());
  FaultSpec spec;
  spec.target = FaultTarget::kGpr;
  spec.kind = FaultKind::kStuckAt;
  spec.reg = 6;  // t1
  spec.bit = 0;
  spec.stuck_value = true;  // t1 can never reach 0
  FaultInjectorPlugin injector(spec);
  injector.attach(machine.vm_handle());
  auto run = machine.run();
  EXPECT_EQ(run.reason, vp::StopReason::kMaxInstructions);
}

TEST(HangBudget, ComputesFactorPlusSlack) {
  EXPECT_EQ(vp::hang_budget(100, 8, 200'000'000), 10'800u);
  EXPECT_EQ(vp::hang_budget(0, 8, 200'000'000), 10'000u);
}

TEST(HangBudget, ClampsToConfiguredMax) {
  EXPECT_EQ(vp::hang_budget(1'000'000, 1'000, 200'000'000), 200'000'000u);
}

TEST(HangBudget, SaturatesInsteadOfWrapping) {
  // golden * factor used to wrap, and `wrapped + 10'000` could land on a
  // tiny budget (even 0), hanging every mutant after no instructions at
  // all. Saturation plus the clamp keeps the budget at the configured max.
  EXPECT_EQ(vp::hang_budget(~u64{0}, 8, 200'000'000), 200'000'000u);
  EXPECT_EQ(vp::hang_budget(10'000, ~u64{0}, 200'000'000), 200'000'000u);
  EXPECT_EQ(vp::hang_budget(~u64{0}, ~u64{0}, ~u64{0}), ~u64{0});
}

TEST(Campaign, HugeHangBudgetFactorDoesNotWrap) {
  // Regression: with the wrapping arithmetic a factor of UINT64_MAX
  // produced budget 0 for even goldens (x * MAX + 10'000 ≡ 10'000 - x
  // mod 2^64) and every mutant "hung" instantly. With saturation the
  // budget clamps to max_instructions and the campaign classifies
  // normally.
  CampaignConfig config;
  config.mutant_count = 12;
  config.seed = 5;
  config.hang_budget_factor = ~u64{0};
  config.jobs = 1;
  // Keep genuinely hanging mutants cheap: the budget clamps to this cap.
  config.machine.max_instructions = 100'000;
  auto result = Campaign(build(kChecksumSource), config).run();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  // The checksum workload always yields some masked/SDC mutants; before
  // the fix every single mutant was (mis)classified as a hang.
  EXPECT_LT(result->count(Outcome::kHang), result->mutants.size());
  EXPECT_GT(result->count(Outcome::kMasked) + result->count(Outcome::kSdc),
            0u);
}

TEST(Campaign, GoldenMustTerminate) {
  auto program = build("spin: j spin\n");
  CampaignConfig config;
  config.machine.max_instructions = 10'000;
  Campaign campaign(program, config);
  auto result = campaign.run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kStateError);
}

TEST(Campaign, WorkloadCampaignSmoke) {
  core::Ecosystem ecosystem;
  auto workload = core::find_workload("bubble_sort");
  ASSERT_TRUE(workload.ok());
  auto program = ecosystem.build(*workload);
  ASSERT_TRUE(program.ok());
  CampaignConfig config;
  config.seed = 77;
  config.mutant_count = 30;
  auto result = ecosystem.run_campaign(*program, config);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->mutants.size(), 30u);
  const std::string text = result->to_string();
  EXPECT_NE(text.find("masked"), std::string::npos);
  EXPECT_NE(text.find("sdc"), std::string::npos);
}

}  // namespace
}  // namespace s4e::fault
