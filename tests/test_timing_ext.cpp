// Tests for the optional microarchitectural timing features (icache model,
// bimodal branch predictor) and their end-to-end consistency with the
// static analyzer and QTA.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "core/ecosystem.hpp"
#include "core/workloads.hpp"
#include "vp/machine.hpp"

namespace s4e::vp {
namespace {

const char* kLoopKernel = R"(
    li t0, 200
loop:
    addi t1, t1, 1
    xor t2, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
)";

RunResult run_with(const MachineConfig& config, const char* source,
                   Machine** out_machine = nullptr) {
  static Machine* leaked = nullptr;  // for out_machine inspection in tests
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok());
  auto* machine = new Machine(config);
  EXPECT_TRUE(machine->load_program(*program).ok());
  auto result = machine->run();
  if (out_machine != nullptr) {
    *out_machine = machine;
  } else {
    delete machine;
  }
  (void)leaked;
  return result;
}

TEST(ICache, DisabledByDefault) {
  Machine machine;
  EXPECT_EQ(machine.icache_misses(), 0u);
  MachineConfig config;
  auto result = run_with(config, kLoopKernel);
  EXPECT_TRUE(result.normal_exit());
}

TEST(ICache, ColdMissesThenHits) {
  MachineConfig config;
  config.timing.icache_miss_cycles = 20;
  Machine* machine = nullptr;
  auto result = run_with(config, kLoopKernel, &machine);
  EXPECT_TRUE(result.normal_exit());
  // The loop reuses one line: misses stay tiny relative to 200 iterations.
  EXPECT_GE(machine->icache_misses(), 1u);
  EXPECT_LE(machine->icache_misses(), 8u);
  delete machine;
}

TEST(ICache, MissesCostCycles) {
  MachineConfig base;
  auto baseline = run_with(base, kLoopKernel);
  MachineConfig with_cache;
  with_cache.timing.icache_miss_cycles = 20;
  auto cached = run_with(with_cache, kLoopKernel);
  EXPECT_GT(cached.cycles, baseline.cycles);
  // Same functional behaviour.
  EXPECT_EQ(cached.instructions, baseline.instructions);
  EXPECT_EQ(cached.exit_code, baseline.exit_code);
}

TEST(ICache, ConflictMissesWithTinyCache) {
  // Two blocks that alternate every iteration, placed in different cache
  // lines: a 1-line cache must thrash (one miss per block per iteration),
  // while a normally-sized cache holds both.
  const char* kPingPong = R"(
    li t0, 200
    j loop
.align 4
loop:
    addi t1, t1, 1
    j mid
    .space 24
.align 4
mid:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )";
  MachineConfig tiny;
  tiny.timing.icache_miss_cycles = 20;
  tiny.timing.icache_lines = 1;  // everything conflicts
  tiny.timing.icache_line_bytes = 16;
  Machine* machine = nullptr;
  auto result = run_with(tiny, kPingPong, &machine);
  EXPECT_TRUE(result.normal_exit());
  EXPECT_GT(machine->icache_misses(), 300u);
  delete machine;

  MachineConfig roomy;
  roomy.timing.icache_miss_cycles = 20;
  Machine* roomy_machine = nullptr;
  run_with(roomy, kPingPong, &roomy_machine);
  EXPECT_LE(roomy_machine->icache_misses(), 8u);
  delete roomy_machine;
}

TEST(BranchPredictor, TwoBitCounterSaturates) {
  // One branch PC walks the 2-bit counter: it starts strongly not-taken
  // (0), predicts taken from 2 up, and saturates at both ends, so one
  // surprise in a run does not flip the prediction.
  BimodalPredictor predictor;
  const u32 pc = 0x8000'0040;
  const struct {
    bool taken;
    bool mispredicted;
  } kSteps[] = {
      {true, true},    // 0 -> 1
      {true, true},    // 1 -> 2
      {true, false},   // 2 -> 3
      {true, false},   // 3 saturates
      {false, true},   // 3 -> 2
      {true, false},   // 2 -> 3
      {false, true},   // 3 -> 2
      {false, true},   // 2 -> 1
      {false, false},  // 1 -> 0
      {false, false},  // 0 saturates
      {true, true},    // 0 -> 1
      {false, false},  // 1 -> 0
  };
  for (const auto& step : kSteps) {
    EXPECT_EQ(predictor.mispredict(pc, step.taken), step.mispredicted);
  }
  // Another PC has its own counter (the table is indexed by pc >> 2).
  EXPECT_TRUE(predictor.mispredict(pc + 4, true));
}

TEST(BranchPredictor, ReducesCyclesOnPredictableLoop) {
  MachineConfig base;
  auto baseline = run_with(base, kLoopKernel);
  MachineConfig predicted;
  predicted.timing.branch_predictor = true;
  auto with_bp = run_with(predicted, kLoopKernel);
  // The backward branch is taken 199 times and predicted correctly after
  // warm-up: most redirect penalties disappear.
  EXPECT_LT(with_bp.cycles, baseline.cycles);
  EXPECT_EQ(with_bp.instructions, baseline.instructions);
}

TEST(BranchPredictor, MispredictsStillCost) {
  // An alternating branch defeats the bimodal counter part of the time;
  // cycles must stay above the perfect-prediction floor.
  const char* kAlternating = R"(
    li t0, 100
    li t3, 0
loop:
    andi t1, t0, 1
    beqz t1, skip
    addi t3, t3, 1
skip:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )";
  MachineConfig predicted;
  predicted.timing.branch_predictor = true;
  auto alt = run_with(predicted, kAlternating);
  MachineConfig base;
  auto alt_base = run_with(base, kAlternating);
  // Prediction helps but cannot eliminate everything on alternation.
  EXPECT_LT(alt.cycles, alt_base.cycles);
  EXPECT_GT(alt.cycles, alt.instructions);  // penalties still present
}

// --- End-to-end soundness: the QTA chain must hold with the features on.
class TimingFeatureChain
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(TimingFeatureChain, BoundHolds) {
  const auto [workload_index, feature_mask] = GetParam();
  const core::Workload& workload =
      core::standard_workloads()[workload_index];
  if (!workload.wcet_analyzable) GTEST_SKIP();

  vp::MachineConfig config;
  if ((feature_mask & 1) != 0) config.timing.icache_miss_cycles = 12;
  if ((feature_mask & 2) != 0) config.timing.branch_predictor = true;
  core::Ecosystem ecosystem(config);
  auto program = ecosystem.build(workload);
  ASSERT_TRUE(program.ok());
  auto outcome = ecosystem.run_qta(*program, workload.name);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_GE(outcome->report.wc_path_cycles, outcome->report.observed_cycles)
      << workload.name << " mask=" << feature_mask;
  EXPECT_GE(outcome->report.static_bound, outcome->report.wc_path_cycles)
      << workload.name << " mask=" << feature_mask;
  EXPECT_EQ(outcome->run.result.exit_code, workload.expected_exit);
}

std::string feature_chain_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, int>>& info) {
  static const char* kMaskNames[] = {"", "icache", "bpred", "both"};
  return core::standard_workloads()[std::get<0>(info.param)].name + "_" +
         kMaskNames[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllFeatures, TimingFeatureChain,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, core::standard_workloads().size()),
        ::testing::Values(1, 2, 3)),
    feature_chain_name);

TEST(TimingFeatures, PredictorWidensStaticGap) {
  // The predictor speeds the run up but the static bound grows (both branch
  // directions may mispredict): the pessimism ratio must widen.
  auto workload = core::find_workload("crc32");
  ASSERT_TRUE(workload.ok());

  core::Ecosystem base;
  auto base_program = base.build(*workload);
  ASSERT_TRUE(base_program.ok());
  auto base_outcome = base.run_qta(*base_program);
  ASSERT_TRUE(base_outcome.ok());

  vp::MachineConfig config;
  config.timing.branch_predictor = true;
  core::Ecosystem predicted(config);
  auto outcome = predicted.run_qta(*base_program);
  ASSERT_TRUE(outcome.ok());

  EXPECT_LE(outcome->report.observed_cycles,
            base_outcome->report.observed_cycles);
  EXPECT_GE(outcome->report.static_bound, base_outcome->report.static_bound);
}

TEST(TimingFeatures, AnnotatedCfgCarriesTransitionMode) {
  vp::MachineConfig config;
  config.timing.branch_predictor = true;
  core::Ecosystem ecosystem(config);
  auto workload = core::find_workload("checksum");
  ASSERT_TRUE(workload.ok());
  auto program = ecosystem.build(*workload);
  ASSERT_TRUE(program.ok());
  auto analysis = ecosystem.analyze_wcet(*program);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis->annotated.penalize_all_transitions);
  const std::string text = analysis->annotated.serialize();
  EXPECT_NE(text.find("transitions all"), std::string::npos);
  auto parsed = wcet::AnnotatedCfg::parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->penalize_all_transitions);
}

}  // namespace
}  // namespace s4e::vp
