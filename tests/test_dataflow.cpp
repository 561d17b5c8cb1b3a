// Tests for the data-flow framework (abstract values, whole-program
// analysis, indirect-jump resolution) and the s4e-lint checks on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "asm/assembler.hpp"
#include "common/fnv1a.hpp"
#include "common/strings.hpp"
#include "core/workloads.hpp"
#include "dataflow/absvalue.hpp"
#include "dataflow/analyze.hpp"
#include "dataflow/callgraph.hpp"
#include "dataflow/lint.hpp"
#include "dataflow/summaries.hpp"
#include "dataflow/triage.hpp"
#include "fault/fault.hpp"
#include "memwatch/policy_file.hpp"
#include "mutation/mutation.hpp"
#include "testgen/testgen.hpp"
#include "vp/runner.hpp"

#ifndef S4E_SOURCE_DIR
#error "S4E_SOURCE_DIR must be defined by the build system"
#endif

namespace s4e::dataflow {
namespace {

// ---------------------------------------------------------------- AbsValue

TEST(AbsValue, ConstantAndJoin) {
  auto a = AbsValue::constant(3);
  auto b = AbsValue::constant(7);
  EXPECT_TRUE(a.is_const());
  EXPECT_EQ(a.const_value(), 3);
  auto joined = AbsValue::join(a, b);
  ASSERT_TRUE(joined.is_consts());
  EXPECT_EQ(std::vector<i64>(joined.values().begin(), joined.values().end()),
            (std::vector<i64>{3, 7}));
  EXPECT_EQ(AbsValue::join(a, AbsValue::bottom()), a);
  EXPECT_TRUE(AbsValue::join(a, AbsValue::top()).is_top());
}

TEST(AbsValue, ConstantsAreCanonicalSignExtended) {
  auto v = AbsValue::constant(0xffffffffu);
  EXPECT_EQ(v.const_value(), -1);
  EXPECT_EQ(v.const_raw(), 0xffffffffu);
}

TEST(AbsValue, JoinDecaysToHullPastBudget) {
  std::vector<i64> values;
  for (i64 i = 0; i < 40; ++i) values.push_back(i * 4);
  auto v = AbsValue::from_values(values);
  ASSERT_TRUE(v.is_range());
  EXPECT_EQ(v.lo(), 0);
  EXPECT_EQ(v.hi(), 156);
  EXPECT_EQ(v.stride(), 4);
}

TEST(AbsValue, RangeNormalization) {
  EXPECT_TRUE(AbsValue::range(5, 5, 1).is_const());
  EXPECT_TRUE(AbsValue::range(5, 4, 1).is_bottom());
  auto v = AbsValue::range(0, 12, 4);
  EXPECT_EQ(v.count(), 4u);
  auto raw = v.enumerate();
  EXPECT_EQ(raw, (std::vector<u32>{0, 4, 8, 12}));
}

TEST(AbsValue, EnumerateRespectsLimit) {
  auto v = AbsValue::range(0, 1000, 1);
  EXPECT_TRUE(v.enumerate(16).empty());
  EXPECT_TRUE(AbsValue::top().enumerate().empty());
}

TEST(AbsValue, WidenGoesToTop) {
  auto v = AbsValue::constant(9);
  v.widen();
  EXPECT_TRUE(v.is_top());
  auto b = AbsValue::bottom();
  b.widen();
  EXPECT_TRUE(b.is_bottom());
}

// The const set is stored inline: kMaxConsts values, no more.
TEST(AbsValue, SixteenValuesStayExactSeventeenDecayToHull) {
  std::vector<i64> values;
  for (i64 i = 0; i < 16; ++i) values.push_back(100 - 6 * i);
  auto exact = AbsValue::from_values(values);
  ASSERT_TRUE(exact.is_consts());
  ASSERT_EQ(exact.values().size(), AbsValue::kMaxConsts);
  EXPECT_EQ(exact.values().front(), 10);
  EXPECT_EQ(exact.values().back(), 100);
  EXPECT_EQ(exact.stride(), 6);
  EXPECT_EQ(exact.count(), 16u);

  values.push_back(4);  // 17th value, same stride
  auto hull = AbsValue::from_values(values);
  ASSERT_TRUE(hull.is_range());
  EXPECT_EQ(hull.lo(), 4);
  EXPECT_EQ(hull.hi(), 100);
  EXPECT_EQ(hull.stride(), 6);
  EXPECT_EQ(hull.count(), 17u);

  // The same decay through joins: 16 singletons then one more.
  AbsValue joined;
  for (i64 i = 0; i < 16; ++i) {
    joined =
        AbsValue::join(joined, AbsValue::constant(static_cast<u32>(8 * i)));
  }
  ASSERT_TRUE(joined.is_consts());
  EXPECT_EQ(joined.count(), 16u);
  joined = AbsValue::join(joined, AbsValue::constant(8 * 16));
  ASSERT_TRUE(joined.is_range());
  EXPECT_EQ(joined.lo(), 0);
  EXPECT_EQ(joined.hi(), 128);
  EXPECT_EQ(joined.stride(), 8);
}

TEST(AbsValue, I32ExtremesRoundTrip) {
  const u32 raws[] = {0x80000000u, 0x7fffffffu, 0xffffffffu};
  const i64 canonical[] = {INT32_MIN, INT32_MAX, -1};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto v = AbsValue::constant(raws[i]);
    ASSERT_TRUE(v.is_const());
    EXPECT_EQ(v.const_raw(), raws[i]);
    EXPECT_EQ(v.const_value(), canonical[i]);
    ASSERT_EQ(v.values().size(), 1u);
    EXPECT_EQ(v.values()[0], canonical[i]);
    EXPECT_EQ(v.enumerate(), (std::vector<u32>{raws[i]}));
  }
  std::vector<i64> all(std::begin(canonical), std::end(canonical));
  const auto set = AbsValue::from_values(all);
  ASSERT_TRUE(set.is_consts());
  EXPECT_EQ(std::vector<i64>(set.values().begin(), set.values().end()),
            (std::vector<i64>{INT32_MIN, -1, INT32_MAX}));
  EXPECT_EQ(set.enumerate(),
            (std::vector<u32>{0x80000000u, 0xffffffffu, 0x7fffffffu}));
  // One past either end is not a canonical value.
  std::vector<i64> outside{i64{INT32_MAX} + 1};
  EXPECT_TRUE(AbsValue::from_values(outside).is_top());
  EXPECT_TRUE(AbsValue::range(INT32_MIN - i64{1}, 0, 1).is_top());
  // A full-width range keeps its stride and endpoints.
  const auto full = AbsValue::range(INT32_MIN, INT32_MAX, 1);
  ASSERT_TRUE(full.is_range());
  EXPECT_EQ(full.lo(), INT32_MIN);
  EXPECT_EQ(full.hi(), INT32_MAX);
  EXPECT_EQ(full.count(), u64{1} << 32);
}

TEST(AbsValue, EqualSetsFromDifferentJoinHistoriesCompareEqual) {
  // {1,2,3} built as ({1} join {2}) join {3} and as
  // ({3} join ({2} join {1})) join {2}; then a value whose dead slots once
  // held other numbers, and the same set from from_values.
  const auto one = AbsValue::constant(1);
  const auto two = AbsValue::constant(2);
  const auto three = AbsValue::constant(3);
  const auto a = AbsValue::join(AbsValue::join(one, two), three);
  const auto b = AbsValue::join(AbsValue::join(three, AbsValue::join(two, one)),
                                two);
  EXPECT_EQ(a, b);
  std::vector<i64> wide{9, 8, 7, 6, 5, 4};
  AbsValue reused = AbsValue::from_values(wide);
  reused = a;
  EXPECT_EQ(reused, b);
  std::vector<i64> direct{3, 1, 2, 2};
  EXPECT_EQ(AbsValue::from_values(direct), a);
  EXPECT_NE(a, AbsValue::join(a, AbsValue::constant(4)));
  // A range and a const set over the same bounds are different values.
  EXPECT_NE(AbsValue::range(1, 3, 1), a);
  EXPECT_EQ(AbsValue::range(1, 3, 1), AbsValue::range(1, 3, 1));
  EXPECT_NE(AbsValue::range(1, 3, 1), AbsValue::stack(1, 3, 1));
}

TEST(AbsValue, StackJoinedWithConstIsTopAndWidens) {
  const auto sp = AbsValue::stack(-16, -16, 1);
  EXPECT_TRUE(AbsValue::join(sp, AbsValue::constant(0)).is_top());
  EXPECT_TRUE(AbsValue::join(AbsValue::range(0, 8, 4), sp).is_top());
  const auto frames = AbsValue::join(sp, AbsValue::stack(-32, -32, 1));
  ASSERT_TRUE(frames.is_stack());
  EXPECT_EQ(frames.lo(), -32);
  EXPECT_EQ(frames.hi(), -16);
  EXPECT_EQ(frames.stride(), 1);  // a single offset carries stride 1
  auto widened = frames;
  widened.widen();
  EXPECT_TRUE(widened.is_top());
  auto range = AbsValue::range(0, 8, 4);
  range.widen();
  EXPECT_TRUE(range.is_top());
}

TEST(AbsValue, DescribeText) {
  EXPECT_EQ(AbsValue::bottom().describe(), "unreached");
  EXPECT_EQ(AbsValue::top().describe(), "unknown");
  EXPECT_EQ(AbsValue::stack(-16, -16, 1).describe(), "sp-16");
  EXPECT_EQ(AbsValue::stack(4, 4, 1).describe(), "sp+4");
  EXPECT_EQ(AbsValue::stack(-16, 8, 8).describe(), "sp+[-16..8]");
  EXPECT_EQ(AbsValue::range(0, 12, 4).describe(),
            "[0x00000000..0x0000000c step 4]");
  EXPECT_EQ(AbsValue::range(-8, 8, 4).describe(),
            "[0xfffffff8..0x00000008 step 4]");
  EXPECT_EQ(AbsValue::range(INT32_MIN, INT32_MAX, 1).describe(),
            "[0x80000000..0x7fffffff step 1]");
  std::vector<i64> values{7, 3, -1, 3};
  EXPECT_EQ(AbsValue::from_values(values).describe(), "{0xffffffff,0x3,0x7}");
  EXPECT_EQ(AbsValue::constant(0x80000000u).describe(), "{0x80000000}");
}

TEST(AbsValue, AddAndSub) {
  auto sum = av_add(AbsValue::constant(40), AbsValue::constant(2));
  ASSERT_TRUE(sum.is_const());
  EXPECT_EQ(sum.const_value(), 42);
  auto shifted = av_add(AbsValue::range(0, 12, 4), AbsValue::constant(100));
  ASSERT_TRUE(shifted.has_bounds());
  EXPECT_EQ(shifted.lo(), 100);
  EXPECT_EQ(shifted.hi(), 112);
  EXPECT_EQ(shifted.count(), 4u);
  EXPECT_TRUE(av_add(AbsValue::top(), AbsValue::constant(1)).is_top());
}

TEST(AbsValue, StackArithmetic) {
  auto sp = AbsValue::stack(0, 0, 1);
  auto frame = av_add(sp, AbsValue::constant(static_cast<u32>(-16)));
  ASSERT_TRUE(frame.is_stack());
  EXPECT_EQ(frame.lo(), -16);
  // sp-relative minus sp-relative is a plain offset difference.
  auto diff = av_sub(sp, frame);
  ASSERT_TRUE(diff.is_const());
  EXPECT_EQ(diff.const_value(), 16);
}

TEST(AbsValue, AndWithMaskBoundsTop) {
  // The jump-table selector clamp: even an unknown value ANDed with a
  // non-negative constant mask is bounded.
  auto clamped = av_and(AbsValue::top(), AbsValue::constant(3));
  ASSERT_TRUE(clamped.has_bounds());
  EXPECT_EQ(clamped.lo(), 0);
  EXPECT_EQ(clamped.hi(), 3);
}

TEST(AbsValue, ShiftForms) {
  auto v = av_sll(AbsValue::range(0, 3, 1), AbsValue::constant(2));
  ASSERT_TRUE(v.has_bounds());
  EXPECT_EQ(v.lo(), 0);
  EXPECT_EQ(v.hi(), 12);
  auto s = av_sra(AbsValue::constant(0x80000000u), AbsValue::constant(31));
  ASSERT_TRUE(s.is_const());
  EXPECT_EQ(s.const_value(), -1);
}

TEST(AbsValue, SltDecidableOnDisjointRanges) {
  auto lt = av_slt(AbsValue::range(0, 5, 1), AbsValue::range(10, 20, 1),
                   /*is_unsigned=*/false);
  ASSERT_TRUE(lt.is_const());
  EXPECT_EQ(lt.const_value(), 1);
  auto overlap = av_slt(AbsValue::range(0, 15, 1), AbsValue::range(10, 20, 1),
                        /*is_unsigned=*/false);
  EXPECT_EQ(overlap.lo(), 0);
  EXPECT_EQ(overlap.hi(), 1);
}

TEST(AbsValue, DivisionFollowsRiscvSemantics) {
  auto div0 = av_muldiv(isa::Op::kDiv, AbsValue::constant(7),
                        AbsValue::constant(0));
  ASSERT_TRUE(div0.is_const());
  EXPECT_EQ(div0.const_value(), -1);  // RV32: x / 0 == -1
  auto overflow = av_muldiv(isa::Op::kDiv, AbsValue::constant(0x80000000u),
                            AbsValue::constant(0xffffffffu));
  ASSERT_TRUE(overflow.is_const());
  EXPECT_EQ(overflow.const_raw(), 0x80000000u);  // INT_MIN / -1 wraps
}

// ---------------------------------------------------------------- analysis

Result<Analysis> analyze_source(std::string_view source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  return analyze_program(*program);
}

TEST(Analysis, ResolvesLaJrTrampoline) {
  auto analysis = analyze_source(R"(
    la t0, target
    jalr zero, 0(t0)
target:
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  EXPECT_TRUE(analysis->unresolved.empty());
  ASSERT_EQ(analysis->resolved.size(), 1u);
  EXPECT_EQ(analysis->resolved.begin()->second.size(), 1u);
}

TEST(Analysis, ResolvesJumpTableToAllTargets) {
  auto workload = core::find_workload("jumptab");
  ASSERT_TRUE(workload.ok());
  auto analysis = analyze_source(workload->source);
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  EXPECT_TRUE(analysis->unresolved.empty());
  ASSERT_EQ(analysis->resolved.size(), 1u);
  EXPECT_EQ(analysis->resolved.begin()->second.size(), 4u);
}

TEST(Analysis, ReportsUnresolvableIndirect) {
  auto analysis = analyze_source(R"(
_start:
    csrr t0, mcycle
    jalr zero, 0(t0)
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  ASSERT_EQ(analysis->unresolved.size(), 1u);
  EXPECT_FALSE(analysis->unresolved[0].is_call);
  EXPECT_EQ(analysis->unresolved[0].function, "_start");
}

TEST(Analysis, PruneDropsInfeasibleArm) {
  // `li t0, 1; beqz t0, dead` — the taken edge is statically infeasible,
  // so pruning must drop the dead block (and with it the only `div`).
  auto analysis = analyze_source(R"(
    li t0, 1
    beqz t0, dead
    li a0, 0
    li a7, 93
    ecall
dead:
    div t1, t2, t3
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const auto ops = reachable_ops(*analysis);
  EXPECT_FALSE(ops[static_cast<unsigned>(isa::Op::kDiv)]);
  EXPECT_TRUE(ops[static_cast<unsigned>(isa::Op::kEcall)]);

  auto pruned = prune_cfg(*analysis);
  ASSERT_TRUE(pruned.ok()) << pruned.error().to_string();
  std::size_t full_blocks = 0;
  for (const auto& fn : analysis->cfg.functions) full_blocks += fn.blocks.size();
  std::size_t pruned_blocks = 0;
  for (const auto& fn : pruned->functions) pruned_blocks += fn.blocks.size();
  EXPECT_LT(pruned_blocks, full_blocks);
}

// -------------------------------------------------------------------- lint

bool has_kind(const LintReport& report, CheckKind kind) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [&](const Finding& f) { return f.kind == kind; });
}

Result<LintReport> lint_source(std::string_view source,
                               const LintOptions& options = {}) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  return lint_program(*program, options);
}

std::string read_negative(const std::string& name) {
  const std::string path =
      std::string(S4E_SOURCE_DIR) + "/workloads/negative/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Lint, CleanOnEveryStandardWorkload) {
  // The zero-false-positive contract: every shipped workload lints clean.
  for (const core::Workload& workload : core::standard_workloads()) {
    auto report = lint_source(workload.source);
    ASSERT_TRUE(report.ok()) << workload.name;
    EXPECT_TRUE(report->clean())
        << workload.name << ":\n" << report->to_string();
  }
}

TEST(Lint, FlagsUninitializedReads) {
  auto report = lint_source(read_negative("uninit_read.s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_kind(*report, CheckKind::kUninitRead));
  // Both t0 and t1 are flagged at the same pc.
  EXPECT_EQ(report->findings.size(), 2u);
}

TEST(Lint, FlagsUnreachableBlockAndDeadWrite) {
  auto report = lint_source(read_negative("dead_code.s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_kind(*report, CheckKind::kUnreachableBlock));
  EXPECT_TRUE(has_kind(*report, CheckKind::kDeadWrite));
}

TEST(Lint, FlagsUnbalancedStackAndReportsDepth) {
  auto report = lint_source(read_negative("unbalanced_stack.s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_kind(*report, CheckKind::kStackImbalance));
  // The callee provably returns with sp shifted, so the caller's sp — and
  // any depth past the call — is unknown. (Balanced chains report a
  // concrete depth; see CallGraph.ReportsDepthAcrossBalancedChain.)
  EXPECT_EQ(report->max_stack_depth, -1);
}

TEST(Lint, FlagsOutOfPolicyUartStoreOnly) {
  auto program = assembler::assemble(read_negative("uart_attack_static.s"));
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  auto policy = memwatch::parse_policy(read_negative("uart.policy"),
                                       program->symbols);
  ASSERT_TRUE(policy.ok()) << policy.error().to_string();
  LintOptions options;
  options.policy = &*policy;
  auto report = lint_program(*program, options);
  ASSERT_TRUE(report.ok());
  // Exactly one finding: the attack store. The in-window driver store and
  // the .data accesses stay clean.
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_EQ(report->findings[0].kind, CheckKind::kPolicyViolation);
  EXPECT_NE(report->findings[0].message.find("uart"), std::string::npos);
}

TEST(Lint, FlagsUnresolvedIndirectJump) {
  auto report = lint_source(read_negative("jump_table_unresolved.s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_kind(*report, CheckKind::kUnresolvedIndirect));
}

TEST(Lint, StackDepthSumsOverCallChain) {
  auto report = lint_source(R"(
_start:
    addi sp, sp, -32
    call helper
    addi sp, sp, 32
    li a0, 0
    li a7, 93
    ecall
helper:
    addi sp, sp, -48
    sw zero, 0(sp)
    addi sp, sp, 48
    ret
  )");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->to_string();
  EXPECT_EQ(report->max_stack_depth, 80);
}

TEST(Lint, FlagsDeadWriteAcrossCallBoundary) {
  // `li t0, 7; call helper` where the callee never reads t0 and the caller
  // overwrites it: only the refined call summary can prove the write dead.
  auto report = lint_source(read_negative("dead_write_callee.s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_kind(*report, CheckKind::kDeadWrite));
}

TEST(Lint, CleanWhenValueFlowsIntoCallee) {
  // Regression companion: the same shape but the callee reads the value —
  // the old intraprocedural false positive.
  auto report = lint_source(read_negative("dead_write_call_clean.s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->to_string();
}

TEST(Lint, FlagsUnusedResult) {
  auto report = lint_source(read_negative("unused_result.s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_kind(*report, CheckKind::kUnusedResult));
}

TEST(Lint, FlagsRecursion) {
  auto report = lint_source(read_negative("recursion_unbounded.s"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(has_kind(*report, CheckKind::kRecursion));
}

TEST(Lint, FlagsStaticStackOverflowOnlyWithLimit) {
  const std::string source = read_negative("stack_overflow_static.s");
  // The check is opt-in: with no limit the 4 MiB + 4 KiB frame is legal.
  auto unlimited = lint_source(source);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_TRUE(unlimited->clean()) << unlimited->to_string();
  EXPECT_EQ(unlimited->max_stack_depth, 0x401000);

  LintOptions options;
  options.stack_limit = 4 << 20;  // the VP's RAM size
  auto limited = lint_source(source, options);
  ASSERT_TRUE(limited.ok());
  EXPECT_TRUE(has_kind(*limited, CheckKind::kStackOverflow));
}

TEST(Lint, FindingToJson) {
  auto report = lint_source(read_negative("unused_result.s"));
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->findings.empty());
  const std::string json = report->findings[0].to_json();
  EXPECT_NE(json.find("\"check\":\"unused-result\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pc\":\"0x"), std::string::npos) << json;
  EXPECT_NE(json.find("\"function\":\"compute\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
}

// -------------------------------------------------------------- call graph

int fn_index(const Analysis& an, std::string_view name) {
  for (std::size_t i = 0; i < an.cfg.functions.size(); ++i) {
    if (an.cfg.functions[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int bottom_up_pos(const CallGraph& graph, int fn) {
  for (std::size_t i = 0; i < graph.bottom_up.size(); ++i) {
    if (graph.bottom_up[i] == static_cast<u32>(fn)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(CallGraph, DirectCallEdges) {
  auto analysis = analyze_source(R"(
_start:
    call outer
    li a7, 93
    ecall
outer:
    addi sp, sp, -16
    sw ra, 12(sp)
    call leaf
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
leaf:
    addi a0, zero, 1
    ret
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const CallGraph& graph = analysis->graph;
  const int start = fn_index(*analysis, "_start");
  const int outer = fn_index(*analysis, "outer");
  const int leaf = fn_index(*analysis, "leaf");
  ASSERT_GE(start, 0);
  ASSERT_GE(outer, 0);
  ASSERT_GE(leaf, 0);
  EXPECT_EQ(graph.callees[start], std::vector<u32>{static_cast<u32>(outer)});
  EXPECT_EQ(graph.callees[outer], std::vector<u32>{static_cast<u32>(leaf)});
  EXPECT_EQ(graph.callers[leaf], std::vector<u32>{static_cast<u32>(outer)});
  for (std::size_t f = 0; f < graph.poisoned.size(); ++f) {
    EXPECT_FALSE(graph.poisoned[f]) << analysis->cfg.functions[f].name;
    EXPECT_FALSE(graph.recursive[f]) << analysis->cfg.functions[f].name;
  }
  // Tarjan order: callees before callers.
  EXPECT_LT(bottom_up_pos(graph, leaf), bottom_up_pos(graph, outer));
  EXPECT_LT(bottom_up_pos(graph, outer), bottom_up_pos(graph, start));
}

TEST(CallGraph, ResolvedIndirectJumpNeedsNoPoison) {
  // A la+jr trampoline the resolver folds into plain CFG edges: nothing is
  // poisoned, no call-graph edge is lost.
  auto analysis = analyze_source(R"(
    la t0, target
    jalr zero, 0(t0)
target:
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  EXPECT_TRUE(analysis->unresolved.empty());
  for (std::size_t f = 0; f < analysis->graph.poisoned.size(); ++f) {
    EXPECT_FALSE(analysis->graph.poisoned[f]);
    EXPECT_FALSE(analysis->graph.tainted[f]);
  }
}

TEST(CallGraph, SelfRecursionMarked) {
  auto analysis = analyze_source(read_negative("recursion_unbounded.s"));
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const int start = fn_index(*analysis, "_start");
  const int countdown = fn_index(*analysis, "countdown");
  ASSERT_GE(countdown, 0);
  EXPECT_TRUE(analysis->graph.recursive[countdown]);
  EXPECT_FALSE(analysis->graph.recursive[start]);
  // No summary exists for a cycle member: the ABI fallback stays in force.
  EXPECT_TRUE(analysis->summaries[countdown].conservative);
}

TEST(CallGraph, MutualRecursionSharesScc) {
  auto analysis = analyze_source(R"(
_start:
    li a0, 4
    call even
    li a7, 93
    ecall
even:
    beqz a0, even_yes
    addi sp, sp, -16
    sw ra, 12(sp)
    addi a0, a0, -1
    call odd
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
even_yes:
    li a0, 1
    ret
odd:
    beqz a0, odd_no
    addi sp, sp, -16
    sw ra, 12(sp)
    addi a0, a0, -1
    call even
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
odd_no:
    li a0, 0
    ret
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const int start = fn_index(*analysis, "_start");
  const int even = fn_index(*analysis, "even");
  const int odd = fn_index(*analysis, "odd");
  ASSERT_GE(even, 0);
  ASSERT_GE(odd, 0);
  EXPECT_TRUE(analysis->graph.recursive[even]);
  EXPECT_TRUE(analysis->graph.recursive[odd]);
  EXPECT_EQ(analysis->graph.scc_id[even], analysis->graph.scc_id[odd]);
  EXPECT_NE(analysis->graph.scc_id[start], analysis->graph.scc_id[even]);
}

TEST(CallGraph, UnresolvedJalrPoisonsCallers) {
  auto analysis = analyze_source(R"(
_start:
    call wild
    li a7, 93
    ecall
wild:
    csrr t0, mcycle
    jalr zero, 0(t0)
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const int start = fn_index(*analysis, "_start");
  const int wild = fn_index(*analysis, "wild");
  ASSERT_GE(wild, 0);
  EXPECT_TRUE(analysis->graph.poisoned[wild]);
  EXPECT_TRUE(analysis->graph.tainted[wild]);
  // Poisoning is local; the taint is what propagates to callers.
  EXPECT_FALSE(analysis->graph.poisoned[start]);
  EXPECT_TRUE(analysis->graph.tainted[start]);
  EXPECT_TRUE(analysis->summaries[wild].conservative);
  EXPECT_TRUE(analysis->summaries[start].conservative);
}

TEST(CallGraph, ReportsDepthAcrossBalancedChain) {
  // The summary proves square_plus balanced, so the whole-chain depth is
  // concrete. (Contrast Lint.FlagsUnbalancedStackAndReportsDepth, where an
  // unbalanced callee makes the post-call sp — and the depth — unknown.)
  auto workload = core::find_workload("callchain");
  ASSERT_TRUE(workload.ok());
  auto report = lint_source(workload->source);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->to_string();
  EXPECT_EQ(report->max_stack_depth, 16);
}

// --------------------------------------------------------------- summaries

TEST(Summaries, ConstantReturnAndPreservedRegisters) {
  auto analysis = analyze_source(R"(
_start:
    call answer
    mv s0, a0
    add a0, s0, s0
    li a7, 93
    ecall
answer:
    li a0, 21
    ret
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const int answer = fn_index(*analysis, "answer");
  ASSERT_GE(answer, 0);
  const FunctionSummary& sum = analysis->summaries[answer];
  EXPECT_FALSE(sum.conservative);
  EXPECT_TRUE(sum.returns);
  EXPECT_TRUE(sum.sp_balanced);
  EXPECT_NE(sum.must_write & reg_bit(10), 0u);  // a0 written on every path
  EXPECT_TRUE(sum.ret0.is_const());
  EXPECT_EQ(sum.ret0.const_value(), 21);
  const CallEffect effect = sum.effect();
  EXPECT_TRUE(effect.refined);
  EXPECT_EQ(effect.clobbered & reg_bit(8), 0u);  // s0 survives the call
}

TEST(Summaries, CalleePreservationProvesBranchInfeasible) {
  // s1 holds 5 across the call (the summary shows `answer` never touches
  // it), so the `bne` is statically not taken and the div is dead — an
  // interprocedural-only conclusion.
  auto analysis = analyze_source(R"(
_start:
    li s1, 5
    call answer
    li t0, 5
    bne s1, t0, bad
    li a0, 0
    li a7, 93
    ecall
bad:
    div t1, t2, t0
    li a7, 93
    ecall
answer:
    li a0, 21
    ret
  )");
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const auto ops = reachable_ops(*analysis);
  EXPECT_FALSE(ops[static_cast<unsigned>(isa::Op::kDiv)]);
}

// ------------------------------------------------------------------ triage

Result<StaticTriage> triage_source(std::string_view source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok())
      << (program.ok() ? "" : program.error().to_string());
  return StaticTriage::build(*program);
}

// All addresses below assume the 4-byte encodings the assembler emits,
// starting at the 0x80000000 load base.
constexpr char kTriageProgram[] = R"(
_start:
    li t0, 7
    addi t1, t0, 0
    beq t0, zero, skip
    addi t2, zero, 5
skip:
    mv a0, t1
    li a7, 93
    ecall
)";

TEST(Triage, PrunesDeadRegisterFaultOnly) {
  auto triage = triage_source(kTriageProgram);
  ASSERT_TRUE(triage.ok()) << triage.error().to_string();
  // t2 (x7) is written but never read: any value it holds is unobservable.
  const auto dead = triage->gpr_fault(7);
  EXPECT_TRUE(dead.pruned);
  EXPECT_STREQ(dead.reason, "dead-register");
  // t0 (x5) feeds the exit value; x0 faults model hardware the triage
  // cannot reason about.
  EXPECT_FALSE(triage->gpr_fault(5).pruned);
  EXPECT_FALSE(triage->gpr_fault(0).pruned);
}

TEST(Triage, PrunesValueEquivalentMutant) {
  auto program = assembler::assemble(kTriageProgram);
  ASSERT_TRUE(program.ok());
  // `addi t1, t0, 0` vs `andi t1, t0, -1`: t0 is the constant 7 at the
  // only occurrence, so both write the same 7 into t1.
  auto variant = assembler::assemble(R"(
_start:
    li t0, 7
    andi t1, t0, -1
    beq t0, zero, skip
    addi t2, zero, 5
skip:
    mv a0, t1
    li a7, 93
    ecall
)");
  ASSERT_TRUE(variant.ok());
  auto original = program->read_word(0x80000004);
  auto mutated = variant->read_word(0x80000004);
  ASSERT_TRUE(original.ok() && mutated.ok());
  ASSERT_NE(*original, *mutated);
  auto triage = StaticTriage::build(*program);
  ASSERT_TRUE(triage.ok()) << triage.error().to_string();
  const auto decision = triage->mutant(0x80000004, 4, *original, *mutated);
  EXPECT_TRUE(decision.pruned);
  EXPECT_STREQ(decision.reason, "value-equivalent");
}

TEST(Triage, PrunesBranchEquivalentMutant) {
  auto program = assembler::assemble(kTriageProgram);
  ASSERT_TRUE(program.ok());
  // `beq t0, zero` vs `blt t0, zero` with t0 = 7: both provably fall
  // through.
  auto variant = assembler::assemble(R"(
_start:
    li t0, 7
    addi t1, t0, 0
    blt t0, zero, skip
    addi t2, zero, 5
skip:
    mv a0, t1
    li a7, 93
    ecall
)");
  ASSERT_TRUE(variant.ok());
  auto original = program->read_word(0x80000008);
  auto mutated = variant->read_word(0x80000008);
  ASSERT_TRUE(original.ok() && mutated.ok());
  auto triage = StaticTriage::build(*program);
  ASSERT_TRUE(triage.ok()) << triage.error().to_string();
  const auto decision = triage->mutant(0x80000008, 4, *original, *mutated);
  EXPECT_TRUE(decision.pruned);
  EXPECT_STREQ(decision.reason, "branch-equivalent");
}

TEST(Triage, PrunesDeadWriteMutantButNotLiveOne) {
  auto program = assembler::assemble(kTriageProgram);
  ASSERT_TRUE(program.ok());
  auto triage = StaticTriage::build(*program);
  ASSERT_TRUE(triage.ok()) << triage.error().to_string();
  // `addi t2, zero, 5` -> `addi t2, zero, 7`: different values, but t2 is
  // dead after the write.
  auto dead_site = program->read_word(0x8000000c);
  ASSERT_TRUE(dead_site.ok());
  const auto dead = triage->mutant(0x8000000c, 4, *dead_site,
                                   *dead_site ^ (1u << 21));
  EXPECT_TRUE(dead.pruned);
  EXPECT_STREQ(dead.reason, "dead-write");
  // `addi t1, t0, 0` -> `addi t1, t0, 1`: t1 is the exit value, and 8 != 7.
  auto live_site = program->read_word(0x80000004);
  ASSERT_TRUE(live_site.ok());
  EXPECT_FALSE(
      triage->mutant(0x80000004, 4, *live_site, *live_site | (1u << 20))
          .pruned);
}

TEST(Triage, PrunesUnreachableCodeAndStuckAtNop) {
  constexpr char kDeadArm[] = R"(
_start:
    li a0, 0
    j exit
dead:
    addi a0, a0, 1
exit:
    li a7, 93
    ecall
)";
  auto program = assembler::assemble(kDeadArm);
  ASSERT_TRUE(program.ok());
  auto triage = StaticTriage::build(*program);
  ASSERT_TRUE(triage.ok()) << triage.error().to_string();

  // The `dead:` instruction at +8 is never reached and never read as data.
  const auto flip = triage->code_fault(0x80000008, /*stuck_at=*/false,
                                       /*bit=*/3, /*stuck_value=*/false);
  EXPECT_TRUE(flip.pruned);
  EXPECT_STREQ(flip.reason, "unreachable-code");
  auto dead_word = program->read_word(0x80000008);
  ASSERT_TRUE(dead_word.ok());
  EXPECT_TRUE(
      triage->mutant(0x80000008, 4, *dead_word, *dead_word ^ (1u << 20))
          .pruned);

  // A stuck-at whose forced value matches the image bit is the identity.
  auto first = program->read_word(0x80000000);
  ASSERT_TRUE(first.ok());
  const bool bit2 = ((*first >> 2) & 1u) != 0;
  const auto identity =
      triage->code_fault(0x80000000, /*stuck_at=*/true, /*bit=*/2, bit2);
  EXPECT_TRUE(identity.pruned);
  EXPECT_STREQ(identity.reason, "stuck-at-nop");
  EXPECT_FALSE(
      triage->code_fault(0x80000000, /*stuck_at=*/true, /*bit=*/2, !bit2)
          .pruned);
}

TEST(Triage, ParsesModeFlagValues) {
  EXPECT_EQ(parse_triage_mode(""), TriageMode::kOn);
  EXPECT_EQ(parse_triage_mode("on"), TriageMode::kOn);
  EXPECT_EQ(parse_triage_mode("off"), TriageMode::kOff);
  EXPECT_EQ(parse_triage_mode("verify"), TriageMode::kVerify);
  EXPECT_EQ(parse_triage_mode("bogus"), std::nullopt);
}

TEST(Triage, FaultCampaignOnMatchesOffForUnpruned) {
  auto workload = core::find_workload("callchain");
  ASSERT_TRUE(workload.ok());
  auto program = assembler::assemble(workload->source);
  ASSERT_TRUE(program.ok());
  fault::CampaignConfig config;
  config.seed = 11;
  config.mutant_count = 80;
  config.jobs = 1;
  fault::Campaign off_campaign(*program, config);
  auto off = off_campaign.run();
  config.triage = TriageMode::kOn;
  fault::Campaign on_campaign(*program, config);
  auto on = on_campaign.run();
  ASSERT_TRUE(off.ok() && on.ok());

  // Triage never changes the fault list, and every non-pruned slot is
  // bit-identical to the untriaged campaign.
  EXPECT_GT(on->pruned_count, 0u);
  ASSERT_EQ(off->mutants.size(), on->mutants.size());
  for (std::size_t i = 0; i < off->mutants.size(); ++i) {
    const auto& base = off->mutants[i];
    const auto& triaged = on->mutants[i];
    ASSERT_EQ(base.spec.to_string(), triaged.spec.to_string());
    if (triaged.pruned) {
      EXPECT_EQ(triaged.outcome, fault::Outcome::kMasked)
          << triaged.prune_reason;
    } else {
      EXPECT_EQ(base.outcome, triaged.outcome) << base.spec.to_string();
      EXPECT_EQ(base.exit_code, triaged.exit_code);
      EXPECT_EQ(base.instructions, triaged.instructions);
    }
  }
}

TEST(Triage, FaultVerifyPassesOnStandardWorkloads) {
  // The soundness gate: execute every pruned fault anyway and fail on any
  // static/dynamic disagreement.
  for (const core::Workload& workload : core::standard_workloads()) {
    auto program = assembler::assemble(workload.source);
    ASSERT_TRUE(program.ok()) << workload.name;
    fault::CampaignConfig config;
    config.seed = 3;
    config.mutant_count = 60;
    config.triage = TriageMode::kVerify;
    fault::Campaign campaign(*program, config);
    auto result = campaign.run();
    EXPECT_TRUE(result.ok())
        << workload.name << ": "
        << (result.ok() ? "" : result.error().to_string());
  }
}

TEST(Triage, MutationVerifyPassesOnStandardWorkloads) {
  for (const core::Workload& workload : core::standard_workloads()) {
    auto program = assembler::assemble(workload.source);
    ASSERT_TRUE(program.ok()) << workload.name;
    mutation::MutationConfig config;
    config.max_mutants = 60;
    config.triage = TriageMode::kVerify;
    mutation::MutationCampaign campaign(*program, config);
    auto score = campaign.run();
    EXPECT_TRUE(score.ok())
        << workload.name << ": "
        << (score.ok() ? "" : score.error().to_string());
  }
}

TEST(Triage, MutationVerifyPassesOnTorturePrograms) {
  // Torture programs carry most of the mutation benchmark's prunes: run
  // every pruned mutant of two seeds anyway, RVC off and on.
  for (u64 seed : {u64{1}, u64{2}}) {
    testgen::TortureConfig torture;
    torture.seed = seed;
    torture.programs = 1;
    torture.segments = 60;
    torture.use_csr = false;
    const auto generated = testgen::torture_suite(torture);
    ASSERT_EQ(generated.size(), 1u);
    for (bool compress : {false, true}) {
      assembler::Options options;
      options.compress = compress;
      auto program = assembler::assemble(generated[0].source, options);
      ASSERT_TRUE(program.ok()) << program.error().to_string();
      mutation::MutationConfig config;
      config.triage = TriageMode::kVerify;
      mutation::MutationCampaign campaign(*program, config);
      auto score = campaign.run();
      ASSERT_TRUE(score.ok())
          << "seed " << seed << (compress ? " rvc: " : ": ")
          << score.error().to_string();
      EXPECT_GT(score->pruned_count, 0u) << "seed " << seed;
    }
  }
}

// The decision oracle: every fault-site and mutant decision over the
// single-hart standard workloads and six no-CSR torture programs (the
// mutation benchmark's shape), RVC off and on, folded into one hash per
// program family. The constants were recorded before the triage's site
// context, RegDomain::result and the inline AbsValue set existed; any
// change to a decision moves them.
struct DecisionHash {
  u64 hash = kFnv1aOffsetBasis;
  u64 pruned = 0;

  void add(const TriageDecision& decision) {
    hash = fnv1a_byte(hash, decision.pruned ? 1 : 0);
    for (const char* c = decision.reason; *c != '\0'; ++c) {
      hash = fnv1a_byte(hash, static_cast<u8>(*c));
    }
    hash = fnv1a_byte(hash, 0xff);
    if (decision.pruned) ++pruned;
  }
};

void hash_program(const assembler::Program& program, DecisionHash& out) {
  vp::Machine machine;
  auto golden = vp::run_golden(machine, program);
  ASSERT_TRUE(golden.ok()) << golden.error().to_string();
  const vp::MachineConfig config;
  TriageOptions options;
  options.stack_top = config.ram_base + config.ram_size;
  auto triage = StaticTriage::build(program, options);
  ASSERT_TRUE(triage.ok()) << triage.error().to_string();
  for (unsigned reg = 0; reg < isa::kGprCount; ++reg) {
    out.add(triage->gpr_fault(reg));
  }
  std::vector<u32> words;
  for (u32 pc : golden->executed_code) words.push_back(pc & ~u32{3});
  words.erase(std::unique(words.begin(), words.end()), words.end());
  for (u32 word : words) {
    for (u8 bit = 0; bit < 32; ++bit) {
      out.add(triage->code_fault(word, false, bit, false));
      out.add(triage->code_fault(word, true, bit, false));
      out.add(triage->code_fault(word, true, bit, true));
    }
  }
  // The campaign decides a mutant list site by site; a lone mutant builds
  // its own site. Both must agree on every candidate.
  const std::vector<mutation::Mutant> mutants =
      mutation::enumerate_mutants(program, golden->executed_code);
  const mutation::MutationModel model(program, mutation::MutationConfig{});
  const auto decisions = model.decide(*triage, mutants);
  ASSERT_EQ(decisions.size(), mutants.size());
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    const mutation::Mutant& mutant = mutants[i];
    const TriageDecision alone = triage->mutant(
        mutant.address, mutant.length, mutant.original, mutant.mutated);
    ASSERT_EQ(decisions[i].pruned, alone.pruned)
        << mutation::MutationModel::describe(mutant);
    ASSERT_STREQ(decisions[i].reason, alone.reason);
    out.add(decisions[i]);
  }
}

std::vector<std::string> oracle_sources(bool torture) {
  std::vector<std::string> sources;
  if (torture) {
    for (u64 seed = 1; seed <= 6; ++seed) {
      testgen::TortureConfig config;
      config.seed = seed;
      config.programs = 1;
      config.segments = 60;
      config.use_csr = false;
      for (testgen::GeneratedProgram& generated :
           testgen::torture_suite(config)) {
        sources.push_back(std::move(generated.source));
      }
    }
  } else {
    for (const core::Workload& workload : core::standard_workloads()) {
      if (workload.name.rfind("smp_", 0) == 0) continue;
      sources.push_back(workload.source);
    }
  }
  return sources;
}

TEST(Triage, DecisionOracleMatchesRecordedHashes) {
  struct Family {
    bool torture;
    bool compress;
    u64 expected;
  };
  const Family families[] = {
      {false, false, 0xe7a7ee11323ca281ull},
      {false, true, 0xd9c621bb4b67cab0ull},
      {true, false, 0xbaf3f6d5d29ab95full},
      {true, true, 0x66439084e33f2a0cull},
  };
  for (const Family& family : families) {
    DecisionHash hash;
    for (const std::string& source : oracle_sources(family.torture)) {
      assembler::Options options;
      options.compress = family.compress;
      auto program = assembler::assemble(source, options);
      ASSERT_TRUE(program.ok()) << program.error().to_string();
      hash_program(*program, hash);
    }
    EXPECT_GT(hash.pruned, 0u);
    EXPECT_EQ(hash.hash, family.expected)
        << (family.torture ? "torture" : "standard")
        << (family.compress ? " rvc" : "") << format(": 0x%llx, %llu pruned",
                  static_cast<unsigned long long>(hash.hash),
                  static_cast<unsigned long long>(hash.pruned));
  }
}

// ------------------------------------------------------------- policy file

TEST(PolicyFile, ParsesRegionsAndDefaults) {
  auto policy = memwatch::parse_policy(R"(
# comment
default deny
region rom 0x1000 0x100 perm r
region dev 0x2000 16 perm rw pc 0x80 0x90
)");
  ASSERT_TRUE(policy.ok()) << policy.error().to_string();
  EXPECT_FALSE(policy->default_allow);
  ASSERT_EQ(policy->regions.size(), 2u);
  EXPECT_TRUE(policy->regions[0].allow_read);
  EXPECT_FALSE(policy->regions[0].allow_write);
  EXPECT_TRUE(policy->regions[1].pc_allowed(0x84));
  EXPECT_FALSE(policy->regions[1].pc_allowed(0x94));
}

TEST(PolicyFile, ResolvesSymbolsAndReportsErrors) {
  std::map<std::string, u32> symbols{{"uart", 0x10000000u}};
  auto ok = memwatch::parse_policy("region u uart 8 perm w\n", symbols);
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok->regions[0].base, 0x10000000u);

  auto bad = memwatch::parse_policy("region u nosuch 8\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message().find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace s4e::dataflow
