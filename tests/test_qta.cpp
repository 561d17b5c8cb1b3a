#include <gtest/gtest.h>

#include "core/ecosystem.hpp"
#include "core/workloads.hpp"

namespace s4e::qta {
namespace {

using core::Ecosystem;

Ecosystem::QtaOutcome qta_ok(const std::string& source,
                             const std::string& name = "test") {
  Ecosystem ecosystem;
  auto program = ecosystem.build_source(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  auto outcome = ecosystem.run_qta(*program, name);
  EXPECT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().to_string());
  return *outcome;
}

TEST(Qta, ThreeTimelineOrdering) {
  auto outcome = qta_ok(R"(
    li t0, 100
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )");
  const QtaReport& report = outcome.report;
  EXPECT_GT(report.observed_cycles, 0u);
  EXPECT_GE(report.wc_path_cycles, report.observed_cycles);
  EXPECT_GE(report.static_bound, report.wc_path_cycles);
  EXPECT_FALSE(report.bound_violated);
  EXPECT_EQ(report.unknown_blocks, 0u);
}

TEST(Qta, LightPathLeavesSlackToBound) {
  // Runtime takes the light arm; the static bound covers the heavy arm, so
  // bound/path pessimism must be > 1.
  auto outcome = qta_ok(R"(
    li a0, 0
    beqz a0, light
heavy:
    div t0, t1, t2
    div t0, t1, t2
    div t0, t1, t2
    div t0, t1, t2
    j end
light:
    addi t0, t0, 1
end:
    li a7, 93
    li a0, 0
    ecall
  )");
  EXPECT_GT(outcome.report.bound_over_path(), 1.2);
  EXPECT_GE(outcome.report.wc_path_cycles, outcome.report.observed_cycles);
}

TEST(Qta, TightLoopPathMatchesBoundShape) {
  // A loop that executes exactly its bound leaves little static slack
  // (everything on the path is the worst case except memory pessimism —
  // absent here since there are no loads).
  auto outcome = qta_ok(R"(
    li t0, 50
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )");
  // WC path and static bound should be close for this shape (within 20%).
  EXPECT_LE(outcome.report.bound_over_path(), 1.2);
}

TEST(Qta, BlocksEnteredCountsLoopIterations) {
  auto outcome = qta_ok(R"(
    li t0, 10
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )");
  // Entry block + 10 loop entries + exit block.
  EXPECT_GE(outcome.report.blocks_entered, 12u);
}

TEST(Qta, InterproceduralPathAccumulates) {
  auto outcome = qta_ok(R"(
_start:
    call helper
    call helper
    li a7, 93
    li a0, 0
    ecall
helper:
    li t0, 20
hloop:
    addi t0, t0, -1
    bnez t0, hloop
    ret
  )");
  EXPECT_GE(outcome.report.wc_path_cycles, outcome.report.observed_cycles);
  EXPECT_GE(outcome.report.static_bound, outcome.report.wc_path_cycles);
  EXPECT_FALSE(outcome.report.bound_violated);
}

TEST(Qta, ReportRendersAllLines) {
  auto outcome = qta_ok(R"(
    li t0, 5
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )");
  const std::string text = outcome.report.to_string();
  EXPECT_NE(text.find("observed cycles"), std::string::npos);
  EXPECT_NE(text.find("WC time"), std::string::npos);
  EXPECT_NE(text.find("static WCET bound"), std::string::npos);
  EXPECT_EQ(text.find("VIOLATED"), std::string::npos);
  EXPECT_EQ(text.find("UNANNOTATED"), std::string::npos);
  EXPECT_TRUE(outcome.report.chain_ok());

  // A load fault traps to a handler the static analysis never saw, placed
  // below and above the faulting block: either way the report must name
  // the unannotated region and the chain must count as broken.
  const std::string handler = R"(
handler:
    csrr t6, mepc
    addi t6, t6, 4
    csrw mepc, t6
    addi a1, a1, 1
    addi a1, a1, 1
    mret
)";
  const std::string start = R"(
_start:
    la t0, handler
    csrw mtvec, t0
    li t1, 0x10
    lw t2, 0(t1)
    li a7, 93
    li a0, 0
    ecall
)";
  for (const std::string& source : {handler + start, start + handler}) {
    const QtaReport report = qta_ok(source).report;
    EXPECT_EQ(report.unknown_blocks, 1u) << source;
    EXPECT_FALSE(report.chain_ok()) << source;
    EXPECT_NE(report.to_string().find("UNANNOTATED regions    : 1"),
              std::string::npos)
        << source;
  }
}

TEST(Qta, ResetClearsAccumulation) {
  core::Ecosystem ecosystem;
  auto program = ecosystem.build_source(R"(
    li t0, 5
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )");
  ASSERT_TRUE(program.ok());
  auto analysis = ecosystem.analyze_wcet(*program);
  ASSERT_TRUE(analysis.ok());
  QtaPlugin plugin(analysis->annotated);
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(*program).ok());
  plugin.attach(machine.vm_handle());
  machine.run();
  EXPECT_GT(plugin.wc_path_cycles(), 0u);
  plugin.reset();
  EXPECT_EQ(plugin.wc_path_cycles(), 0u);
  EXPECT_EQ(plugin.blocks_entered(), 0u);
}

// Property: the three-timeline chain holds for every analyzable workload.
class QtaWorkload : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QtaWorkload, ChainHolds) {
  const core::Workload& workload = core::standard_workloads()[GetParam()];
  if (!workload.wcet_analyzable) GTEST_SKIP();
  core::Ecosystem ecosystem;
  auto program = ecosystem.build_source(workload.source);
  ASSERT_TRUE(program.ok());
  auto outcome = ecosystem.run_qta(*program, workload.name);
  ASSERT_TRUE(outcome.ok()) << workload.name << ": "
                            << outcome.error().to_string();
  const QtaReport& report = outcome->report;
  EXPECT_GE(report.wc_path_cycles, report.observed_cycles) << workload.name;
  EXPECT_GE(report.static_bound, report.wc_path_cycles) << workload.name;
  EXPECT_FALSE(report.bound_violated) << workload.name;
  EXPECT_EQ(report.unknown_blocks, 0u) << workload.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, QtaWorkload,
    ::testing::Range<std::size_t>(0, core::standard_workloads().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return core::standard_workloads()[info.param].name;
    });

}  // namespace
}  // namespace s4e::qta
