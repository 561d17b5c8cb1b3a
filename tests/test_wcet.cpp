#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "core/workloads.hpp"
#include "dataflow/analyze.hpp"
#include "testgen/testgen.hpp"
#include "vp/machine.hpp"
#include "wcet/analyzer.hpp"

namespace s4e::wcet {
namespace {

Result<AnalysisResult> analyze(std::string_view source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  return Analyzer().analyze(*program);
}

AnalysisResult analyze_ok(std::string_view source) {
  auto result = analyze(source);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().to_string());
  return *result;
}

// Run the same source on the VP and return observed cycles.
u64 observe(std::string_view source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok());
  vp::Machine machine;
  EXPECT_TRUE(machine.load_program(*program).ok());
  auto result = machine.run();
  EXPECT_TRUE(result.normal_exit() || result.reason == vp::StopReason::kEbreak)
      << std::string(vp::to_string(result.reason));
  return result.cycles;
}

constexpr const char* kExit = "    li a7, 93\n    li a0, 0\n    ecall\n";

TEST(Wcet, StraightLineBoundHolds) {
  const std::string source = std::string(R"(
    li t0, 1
    li t1, 2
    add t2, t0, t1
    mul t3, t2, t2
)") + kExit;
  auto analysis = analyze_ok(source);
  EXPECT_GT(analysis.total_wcet, 0u);
  EXPECT_GE(analysis.total_wcet, observe(source));
}

TEST(Wcet, SingleLoopScalesWithBound) {
  auto small = analyze_ok(R"(
    li t0, 10
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
  )");
  auto large = analyze_ok(R"(
    li t0, 1000
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
  )");
  // The bound must scale roughly linearly with the loop count.
  EXPECT_GT(large.total_wcet, 50 * (small.total_wcet / 10));
  EXPECT_GE(large.total_wcet, observe(R"(
    li t0, 1000
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
  )"));
}

TEST(Wcet, BranchTakesWorstArm) {
  // The bound must cover the heavier arm (divisions) even if the actual run
  // takes the light one.
  const std::string source = R"(
    li a0, 0            # take the light arm at runtime
    beqz a0, light
heavy:
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
  )";
  auto analysis = analyze_ok(source);
  // Worst case must be at least 3 divides even though the run avoids them.
  vp::TimingModel timing;
  EXPECT_GE(analysis.total_wcet, 3u * timing.params().div_max_cycles);
  EXPECT_GE(analysis.total_wcet, observe(source));
}

TEST(Wcet, NestedLoopsMultiply) {
  auto analysis = analyze_ok(R"(
    li s0, 10
outer:
    li t0, 20
inner:
    addi t0, t0, -1
    bnez t0, inner
    addi s0, s0, -1
    bnez s0, outer
    li a7, 93
    ecall
  )");
  // ~200 inner iterations at >= 2 cycles each.
  EXPECT_GE(analysis.total_wcet, 400u);
  ASSERT_EQ(analysis.functions.size(), 1u);
  EXPECT_EQ(analysis.functions[0].loop_count, 2u);
  EXPECT_EQ(analysis.functions[0].bounded_loops, 2u);
}

TEST(Wcet, UnboundedLoopRejected) {
  auto result = analyze(R"(
    la t0, data
    lw t1, 0(t0)
loop:
    addi t1, t1, -1
    bnez t1, loop
    li a7, 93
    ecall
.data
data:
    .word 3
  )");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("loopbound"), std::string::npos);
}

TEST(Wcet, AnnotationUnblocksDataDependentLoop) {
  const std::string source = R"(
    la t0, data
    lw t1, 0(t0)
loop:
    .loopbound 16
    addi t1, t1, -1
    bnez t1, loop
    li a7, 93
    li a0, 0
    ecall
.data
data:
    .word 16
  )";
  auto analysis = analyze_ok(source);
  EXPECT_GE(analysis.total_wcet, observe(source));
}

TEST(Wcet, CallSummarizedInterprocedurally) {
  auto analysis = analyze_ok(R"(
_start:
    call helper
    call helper
    li a7, 93
    ecall
helper:
    li t0, 50
hloop:
    addi t0, t0, -1
    bnez t0, hloop
    ret
  )");
  ASSERT_EQ(analysis.functions.size(), 2u);
  EXPECT_EQ(analysis.functions[0].name, "_start");
  // _start's bound must include two helper invocations.
  const u64 helper_wcet = analysis.functions[1].wcet;
  EXPECT_GE(analysis.total_wcet, 2 * helper_wcet);
}

TEST(Wcet, RecursionRejected) {
  auto result = analyze(R"(
_start:
    call recurse
    li a7, 93
    ecall
recurse:
    call recurse
    ret
  )");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("recursi"), std::string::npos);
}

TEST(Wcet, AnnotatedCfgRoundTrip) {
  auto analysis = analyze_ok(R"(
    li t0, 4
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
  )");
  const std::string text = analysis.annotated.serialize();
  auto parsed = AnnotatedCfg::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->total_wcet, analysis.annotated.total_wcet);
  EXPECT_EQ(parsed->entry, analysis.annotated.entry);
  EXPECT_EQ(parsed->blocks.size(), analysis.annotated.blocks.size());
  EXPECT_EQ(parsed->edges.size(), analysis.annotated.edges.size());
  EXPECT_EQ(parsed->loop_bounds, analysis.annotated.loop_bounds);
  EXPECT_EQ(parsed->redirect_penalty, analysis.annotated.redirect_penalty);
}

TEST(AnnotatedCfgParse, RejectsMalformed) {
  EXPECT_FALSE(AnnotatedCfg::parse("").ok());
  EXPECT_FALSE(AnnotatedCfg::parse("not-a-cfg v1\n").ok());
  EXPECT_FALSE(AnnotatedCfg::parse("qta-cfg v1\nfrobnicate 1 2\n").ok());
  EXPECT_FALSE(AnnotatedCfg::parse("qta-cfg v1\nblock 0x0 bad\n").ok());
}

TEST(AnnotatedCfgParse, BlockLookup) {
  auto parsed = AnnotatedCfg::parse(
      "qta-cfg v1\n"
      "program p entry 0x80000000\n"
      "penalty 2\n"
      "wcet_total 100\n"
      "block 0x80000000 0x80000010 wcet 7 fn 0x80000000\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->block_at(0x80000000), nullptr);
  EXPECT_EQ(parsed->block_at(0x80000000)->wcet, 7u);
  EXPECT_EQ(parsed->block_at(0x80000004), nullptr);
}

TEST(Wcet, IrreducibleLoopRejected) {
  // Two-entry loop: the entry branch jumps into the loop body while the
  // back edge targets the header — a classic irreducible region.
  auto result = analyze(R"(
    li t0, 10
    beqz a0, side_entry
header:
    addi t0, t0, -1
side_entry:
    addi t1, t1, 1
    bnez t0, header
    li a7, 93
    ecall
  )");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kAnalysisError);
}

TEST(Wcet, ResolvableIndirectJumpAnalyzed) {
  // `la` + `jr` yields a single constant target: the data-flow resolver
  // turns it into an explicit CFG edge and the analysis succeeds.
  const std::string source = std::string(R"(
    la t0, t1_target
    jalr zero, 0(t0)
t1_target:
)") + kExit;
  auto analysis = analyze_ok(source);
  EXPECT_GT(analysis.total_wcet, 0u);
  EXPECT_GE(analysis.total_wcet, observe(source));
}

TEST(Wcet, UnresolvableIndirectJumpRejectedWithDiagnostic) {
  // A jump target read from a CSR is unbounded (Top): the resolver cannot
  // enumerate it, so the analyzer rejects with the per-site diagnostic.
  auto result = analyze(R"(
    csrr t0, mcycle
    jalr zero, 0(t0)
    li a7, 93
    ecall
  )");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("indirect"), std::string::npos);
  EXPECT_NE(result.error().message().find("not analyzable"),
            std::string::npos);
}

TEST(Wcet, ZeroBoundLoopClampedToOne) {
  // A .loopbound 0 annotation is clamped: a loop that is entered runs its
  // body at least once, so the bound must still dominate the observed run.
  const std::string source = R"(
    li t0, 1
loop:
    .loopbound 0
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
  )";
  auto analysis = analyze_ok(source);
  EXPECT_GE(analysis.total_wcet, observe(source));
}

TEST(Wcet, DiamondInsideLoopTakesWorstArm) {
  // Worst arm (3 divides) must be charged on every iteration even though
  // the run alternates (and mostly avoids) it.
  const std::string source = R"(
    li s0, 10
loop:
    andi t0, s0, 1
    beqz t0, light
    div t1, t2, t3
    div t1, t2, t3
    div t1, t2, t3
    j join
light:
    addi t1, t1, 1
join:
    addi s0, s0, -1
    bnez s0, loop
    li a7, 93
    li a0, 0
    ecall
  )";
  auto analysis = analyze_ok(source);
  vp::TimingModel timing;
  // >= 10 iterations x 3 worst-case divides.
  EXPECT_GE(analysis.total_wcet, 30u * timing.params().div_max_cycles);
  EXPECT_GE(analysis.total_wcet, observe(source));
}

// Property: for every WCET-analyzable standard workload, the static bound
// dominates the observed cycles.
class WorkloadBound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkloadBound, StaticBoundHolds) {
  const core::Workload& workload =
      core::standard_workloads()[GetParam()];
  if (!workload.wcet_analyzable) GTEST_SKIP();
  auto program = assembler::assemble(workload.source);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  auto analysis = Analyzer().analyze(*program);
  ASSERT_TRUE(analysis.ok()) << workload.name << ": "
                             << analysis.error().to_string();
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(*program).ok());
  auto run = machine.run();
  ASSERT_TRUE(run.normal_exit()) << workload.name;
  EXPECT_GE(analysis->total_wcet, run.cycles) << workload.name;
}

TEST_P(WorkloadBound, PrunedBoundNeverWorse) {
  // Pruning unreachable blocks / infeasible edges analyzes a sub-graph of
  // the original CFG, so the IPET bound may only tighten — and it must stay
  // sound against the observed run.
  const core::Workload& workload =
      core::standard_workloads()[GetParam()];
  if (!workload.wcet_analyzable) GTEST_SKIP();
  auto program = assembler::assemble(workload.source);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  auto unpruned = Analyzer().analyze(*program);
  ASSERT_TRUE(unpruned.ok()) << workload.name << ": "
                             << unpruned.error().to_string();
  AnalyzerOptions options;
  options.prune_infeasible = true;
  auto pruned = Analyzer(options).analyze(*program);
  ASSERT_TRUE(pruned.ok()) << workload.name << ": "
                           << pruned.error().to_string();
  EXPECT_LE(pruned->total_wcet, unpruned->total_wcet) << workload.name;
  vp::Machine machine;
  ASSERT_TRUE(machine.load_program(*program).ok());
  auto run = machine.run();
  ASSERT_TRUE(run.normal_exit()) << workload.name;
  EXPECT_GE(pruned->total_wcet, run.cycles) << workload.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadBound,
    ::testing::Range<std::size_t>(0, core::standard_workloads().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return core::standard_workloads()[info.param].name;
    });

// The analyzer builds the CFG strictly and runs the data-flow solver only
// when that build fails; either way its result must equal analyzing the
// data-flow CFG, field for field and byte for byte.
void expect_matches_dataflow_cfg(const std::string& name,
                                 const assembler::Program& program) {
  auto direct = Analyzer().analyze(program);
  auto resolved = dataflow::analyze_program(program);
  if (!resolved.ok() || !resolved->unresolved.empty()) {
    EXPECT_FALSE(direct.ok()) << name;
    return;
  }
  auto reference = Analyzer().analyze(resolved->cfg);
  ASSERT_EQ(direct.ok(), reference.ok()) << name;
  if (!direct.ok()) {
    EXPECT_EQ(direct.error().to_string(), reference.error().to_string())
        << name;
    return;
  }
  EXPECT_EQ(direct->total_wcet, reference->total_wcet) << name;
  EXPECT_EQ(direct->functions, reference->functions) << name;
  EXPECT_EQ(direct->annotated.serialize(), reference->annotated.serialize())
      << name;
}

TEST(WcetOracle, StrictFirstEqualsDataflowCfg) {
  unsigned programs = 0;
  for (const core::Workload& workload : core::standard_workloads()) {
    auto program = assembler::assemble(workload.source);
    ASSERT_TRUE(program.ok()) << workload.name;
    expect_matches_dataflow_cfg(workload.name, *program);
    ++programs;
  }
  for (const u64 seed : {1u, 2u, 3u, 4u}) {
    testgen::TortureConfig config;
    config.seed = seed;
    for (const auto& generated : testgen::torture_suite(config)) {
      auto program = assembler::assemble(generated.source);
      ASSERT_TRUE(program.ok()) << generated.name;
      expect_matches_dataflow_cfg(
          generated.name + " (seed " + std::to_string(seed) + ")", *program);
      ++programs;
    }
  }
  EXPECT_GE(programs, 50u);
}

}  // namespace
}  // namespace s4e::wcet
