// Trace subsystem suite: codec units, the truncated/corrupt-trace gauntlet,
// and the capture-once / replay-many properties:
//
//   T1  varint/zigzag codec edges and RLE boundaries survive a round trip
//   T2  every torn/corrupt trace shape is refused with a diagnostic
//   T3  record -> replay is cycle-identical to live execution for EVERY
//       timing configuration in the matrix (the bit-identity contract),
//       over random torture programs
//   T4  the replayed PC sequence drives the QTA path accumulator to the
//       same WC-path time the live co-simulation computes
//   T5  the matrix fan-out on the thread pool agrees with serial replay
//       (tsan-matched: the trace is shared read-only across workers)
//   T6  the closed-form charge equals live execution on every standard
//       workload, and a hooked replay returns what an unhooked one does;
//       a decoded trace replays the same after its Trace is gone
//
// The seeded mutation fuzzer over recorded traces is test_trace_fuzz.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "asm/assembler.hpp"
#include "common/fnv1a.hpp"
#include "core/workloads.hpp"
#include "isa/opcode.hpp"
#include "qta/qta.hpp"
#include "testgen/testgen.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "vp/machine.hpp"
#include "vp/plugin.hpp"
#include "wcet/analyzer.hpp"

namespace s4e {
namespace {

// Record `program` on a machine configured with `timing`; returns the
// serialized trace bytes and the live run result.
struct Recording {
  std::vector<u8> bytes;
  vp::RunResult result;
};

Recording record_program(const assembler::Program& program,
                         const vp::TimingParams& timing) {
  vp::MachineConfig config;
  config.timing = timing;
  vp::Machine machine(config);
  EXPECT_TRUE(machine.load_program(program).ok());
  trace::TraceRecorder recorder(
      trace::TraceRecorder::config_for(config, program));
  EXPECT_TRUE(recorder.attach_checked(machine.vm_handle()).ok());
  Recording recording;
  recording.result = machine.run();
  recording.bytes = recorder.finish_bytes(recording.result);
  return recording;
}

u64 live_cycles(const assembler::Program& program,
                const vp::TimingParams& timing) {
  vp::MachineConfig config;
  config.timing = timing;
  vp::Machine machine(config);
  EXPECT_TRUE(machine.load_program(program).ok());
  return machine.run().cycles;
}

trace::Header test_header() {
  trace::Header header;
  header.fingerprint = 0x1234;
  header.entry_pc = 0x8000'0000;
  return header;
}

// --- T1: codec units --------------------------------------------------------

TEST(TraceCodec, VarintEdges) {
  for (const u64 value :
       {u64{0}, u64{1}, u64{0x7f}, u64{0x80}, u64{0x3fff}, u64{0x4000},
        u64{0xffff'ffff}, ~u64{0}}) {
    std::vector<u8> bytes;
    trace::put_varint(bytes, value);
    // LEB128: 7 payload bits per byte.
    std::size_t expect = 1;
    for (u64 v = value; v >= 0x80; v >>= 7) ++expect;
    EXPECT_EQ(bytes.size(), expect) << value;
  }
}

TEST(TraceCodec, ZigzagRoundTrip) {
  for (const i64 value : {i64{0}, i64{1}, i64{-1}, i64{2}, i64{-2},
                          i64{0x7fff'ffff}, -i64{0x8000'0000},
                          std::numeric_limits<i64>::max(),
                          std::numeric_limits<i64>::min()}) {
    EXPECT_EQ(trace::unzigzag(trace::zigzag(value)), value);
  }
  // Small magnitudes must stay small (the whole point of zigzag).
  EXPECT_EQ(trace::zigzag(-1), 1u);
  EXPECT_EQ(trace::zigzag(1), 2u);
}

TEST(TraceCodec, EmptyTraceRoundTrips) {
  trace::Writer writer(test_header());
  auto parsed = trace::Trace::parse(writer.finish(trace::Footer{}));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->footer().instructions, 0u);
  trace::Cursor cursor(*parsed);
  trace::Event event;
  EXPECT_FALSE(cursor.next(event));
  EXPECT_TRUE(cursor.ok());
}

TEST(TraceCodec, RunBoundariesRoundTrip) {
  // RLE counts straddling every varint byte boundary, with length switches.
  const u32 counts[] = {1, 2, 127, 128, 129, 16383, 16384};
  trace::Writer writer(test_header());
  trace::Footer footer;
  u32 pc = 0x8000'0000;
  for (const u32 count : counts) {
    writer.block();
    ++footer.blocks;
    writer.run(4, count);
    pc += count * 4;
    writer.run(2, count);
    pc += count * 2;
    footer.instructions += 2u * count;
  }
  auto parsed = trace::Trace::parse(writer.finish(footer));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();

  trace::Cursor cursor(*parsed);
  trace::Event event;
  u32 cursor_pc = 0x8000'0000;
  for (const u32 count : counts) {
    ASSERT_TRUE(cursor.next(event));
    EXPECT_EQ(event.tag, trace::Tag::kBlock);
    ASSERT_TRUE(cursor.next(event));
    EXPECT_EQ(event.tag, trace::Tag::kRun4);
    EXPECT_EQ(event.count, count);
    EXPECT_EQ(event.pc, cursor_pc);
    cursor_pc += count * 4;
    ASSERT_TRUE(cursor.next(event));
    EXPECT_EQ(event.tag, trace::Tag::kRun2);
    EXPECT_EQ(event.count, count);
    EXPECT_EQ(event.pc, cursor_pc);
    cursor_pc += count * 2;
  }
  EXPECT_FALSE(cursor.next(event));
  EXPECT_TRUE(cursor.ok()) << cursor.error();
}

TEST(TraceCodec, MemDeltasAndRedirectsRoundTrip) {
  trace::Writer writer(test_header());
  trace::Footer footer;
  writer.block();
  footer.blocks = 1;
  // Backward jump (negative delta), then loads with forward and backward
  // address deltas across all sizes.
  writer.jump(0x8000'0000, 0x8000'0100);
  writer.mem(trace::Tag::kLoad4, 0x8000'2000, 4);
  writer.mem(trace::Tag::kStore2, 0x8000'1ffe, 2);
  writer.mem(trace::Tag::kLoadMmio4, 0x1000'0000, 1);
  writer.branch_taken(0x8000'010a, 0x8000'0000);
  footer.instructions = 5;
  footer.mem_accesses = 3;
  auto parsed = trace::Trace::parse(writer.finish(footer));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();

  trace::Cursor cursor(*parsed);
  trace::Event event;
  ASSERT_TRUE(cursor.next(event));  // block
  ASSERT_TRUE(cursor.next(event));  // jump
  EXPECT_EQ(event.target, 0x8000'0100u);
  ASSERT_TRUE(cursor.next(event));  // load4
  EXPECT_EQ(event.mem_addr, 0x8000'2000u);
  EXPECT_EQ(event.mem_size, 4u);
  EXPECT_FALSE(event.mem_store);
  EXPECT_FALSE(event.mem_mmio);
  ASSERT_TRUE(cursor.next(event));  // store2, backward delta
  EXPECT_EQ(event.mem_addr, 0x8000'1ffeu);
  EXPECT_EQ(event.mem_size, 2u);
  EXPECT_TRUE(event.mem_store);
  ASSERT_TRUE(cursor.next(event));  // mmio load, byte
  EXPECT_EQ(event.mem_addr, 0x1000'0000u);
  EXPECT_EQ(event.mem_size, 1u);
  EXPECT_TRUE(event.mem_mmio);
  ASSERT_TRUE(cursor.next(event));  // taken branch, backward
  EXPECT_EQ(event.target, 0x8000'0000u);
  EXPECT_FALSE(cursor.next(event));
  EXPECT_TRUE(cursor.ok()) << cursor.error();
}

// --- T2: the torn/corrupt gauntlet ------------------------------------------

std::vector<u8> valid_trace_bytes() {
  trace::Writer writer(test_header());
  trace::Footer footer;
  writer.block();
  writer.run(4, 10);
  footer.blocks = 1;
  footer.instructions = 10;
  return writer.finish(footer);
}

void expect_refused(std::vector<u8> bytes, const char* needle) {
  auto parsed = trace::Trace::parse(std::move(bytes));
  ASSERT_FALSE(parsed.ok()) << "expected refusal mentioning '" << needle
                            << "'";
  EXPECT_NE(parsed.error().message().find(needle), std::string::npos)
      << parsed.error().to_string();
}

TEST(TraceGauntlet, RefusesTinyFile) {
  expect_refused({0x01, 0x02, 0x03}, "smaller");
}

TEST(TraceGauntlet, RefusesBadMagic) {
  auto bytes = valid_trace_bytes();
  bytes[0] = 'X';
  expect_refused(std::move(bytes), "magic");
}

TEST(TraceGauntlet, RefusesWrongVersion) {
  auto bytes = valid_trace_bytes();
  bytes[8] = 0x7f;  // version field, little-endian low byte
  expect_refused(std::move(bytes), "version");
}

TEST(TraceGauntlet, RefusesTruncatedFooter) {
  auto bytes = valid_trace_bytes();
  bytes.resize(bytes.size() - 7);  // tear the footer
  expect_refused(std::move(bytes), "footer");
}

TEST(TraceGauntlet, RefusesMissingFooter) {
  auto bytes = valid_trace_bytes();
  bytes.resize(bytes.size() - 64);  // drop the whole footer: crashed recorder
  expect_refused(std::move(bytes), "footer");
}

TEST(TraceGauntlet, RefusesCorruptStream) {
  auto bytes = valid_trace_bytes();
  bytes[81] ^= 0x40;  // flip a bit inside the event stream
  expect_refused(std::move(bytes), "checksum");
}

TEST(TraceGauntlet, RefusesSplicedCounts) {
  // A footer whose counts disagree with the (checksum-valid) stream: splice
  // a different footer onto a valid stream.
  trace::Writer writer(test_header());
  trace::Footer footer;
  writer.block();
  writer.run(4, 10);
  footer.blocks = 1;
  footer.instructions = 99;  // lie
  auto parsed = trace::Trace::parse(writer.finish(footer));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message().find("spliced"), std::string::npos)
      << parsed.error().to_string();
}

TEST(TraceGauntlet, RefusesUnknownTag) {
  trace::Writer writer(test_header());
  trace::Footer footer;
  writer.block();
  footer.blocks = 1;
  auto bytes = writer.finish(footer);
  bytes[80] = 0x7e;  // overwrite the kBlock tag with garbage
  // Checksum now mismatches; rebuild the trace with the garbage checksummed
  // so the decode-layer diagnostic is the one under test.
  trace::Writer writer2(test_header());
  writer2.taint(trace::TaintKind::kCsrCycleRead);  // 2-byte event to patch
  trace::Footer footer2;
  footer2.taints = 1;
  auto bytes2 = writer2.finish(footer2);
  (void)bytes;
  // Patch the tag byte and recompute nothing: parse must fail loudly either
  // at the checksum or the decode layer — never crash or mis-decode.
  bytes2[80] = 0x7e;
  auto parsed = trace::Trace::parse(std::move(bytes2));
  ASSERT_FALSE(parsed.ok());
}

TEST(TraceGauntlet, RefusesOutOfRangeTrapClass) {
  // A trapped instruction's class is the info byte's low nibble, which can
  // name classes isa::OpClass does not have.
  trace::Writer writer(test_header());
  trace::Footer footer;
  writer.block();
  writer.trap_insn(static_cast<u8>(isa::OpClass::kSystem), 4, false, 3,
                   0x8000'0000, 0);
  footer.blocks = 1;
  footer.instructions = 1;
  const auto valid = writer.finish(footer);
  ASSERT_TRUE(trace::Trace::parse(valid).ok());

  constexpr std::size_t kInfoByte = 82;  // header, kBlock, kTrapInsn
  constexpr std::size_t kFooterBytes = 64;
  for (unsigned op_class = isa::kOpClassCount;
       op_class <= trace::kTrapClassMask; ++op_class) {
    auto bytes = valid;
    bytes[kInfoByte] = static_cast<u8>(
        (bytes[kInfoByte] & ~trace::kTrapClassMask) | op_class);
    // Re-checksum the patched stream so the decoder is the layer under test.
    const u64 checksum =
        fnv1a(bytes.data() + 80, bytes.size() - 80 - 1 - kFooterBytes);
    for (unsigned i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + i] = static_cast<u8>(checksum >> (8 * i));
    }
    auto parsed = trace::Trace::parse(std::move(bytes));
    ASSERT_FALSE(parsed.ok()) << "class " << op_class;
    EXPECT_NE(parsed.error().message().find(
                  "instruction class " + std::to_string(op_class)),
              std::string::npos)
        << parsed.error().to_string();
  }
}

// A one-instruction trace whose header names the icache geometry `lines` x
// `line_bytes` with the icache model on. The stream checksum does not cover
// the header, so only parse's header check stands between such a file and a
// self check that sizes and indexes a tag array from it.
std::vector<u8> icache_header_trace(u32 lines, u32 line_bytes) {
  trace::Header header = test_header();
  header.recorded.icache_miss_cycles = 12;
  header.recorded.icache_lines = lines;
  header.recorded.icache_line_bytes = line_bytes;
  trace::Writer writer(header);
  trace::Footer footer;
  writer.block();
  writer.run(4, 1);
  footer.blocks = 1;
  footer.instructions = 1;
  return writer.finish(footer);
}

TEST(TraceGauntlet, RefusesZeroIcacheLineBytes) {
  expect_refused(icache_header_trace(64, 0), "icache_line_bytes");
}

TEST(TraceGauntlet, RefusesZeroIcacheLines) {
  expect_refused(icache_header_trace(0, 32), "icache_lines");
}

TEST(TraceGauntlet, RefusesHugeIcache) {
  expect_refused(icache_header_trace(1u << 30, 32), "icache_lines");
  // The cap itself is a geometry the self check can hold.
  auto parsed =
      trace::Trace::parse(icache_header_trace(trace::kMaxIcacheLines, 32));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(trace::replay(*parsed, parsed->header().recorded).ok());
}

TEST(TraceGauntlet, RecorderSaveIsAtomicAndLoadable) {
  auto program = assembler::assemble(R"(
    .text
    li a0, 0
    li a1, 5
  loop:
    addi a0, a0, 1
    blt a0, a1, loop
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(program.ok()) << program.error().to_string();

  vp::MachineConfig config;
  vp::Machine machine(config);
  ASSERT_TRUE(machine.load_program(*program).ok());
  trace::TraceRecorder recorder(
      trace::TraceRecorder::config_for(config, *program));
  ASSERT_TRUE(recorder.attach_checked(machine.vm_handle()).ok());
  const vp::RunResult result = machine.run();

  const std::string path = ::testing::TempDir() + "trace_atomic_test.bin";
  ASSERT_TRUE(recorder.finish(result, path).ok());
  auto loaded = trace::Trace::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded->footer().recorded_cycles, result.cycles);
  EXPECT_TRUE(trace::self_check(*loaded).ok());
  std::remove(path.c_str());
}

TEST(TraceGauntlet, RecorderRejectsSmp) {
  auto program = assembler::assemble(R"(
    .text
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(program.ok());
  vp::MachineConfig config;
  config.num_harts = 2;
  vp::Machine machine(config);
  ASSERT_TRUE(machine.load_program(*program).ok());
  trace::TraceRecorder recorder(
      trace::TraceRecorder::config_for(config, *program));
  auto status = recorder.attach_checked(machine.vm_handle());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("single-hart"), std::string::npos);
}

TEST(TraceGauntlet, ReplayRefusesWrongWorkload) {
  auto program = assembler::assemble(R"(
    .text
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(program.ok());
  const auto recording = record_program(*program, vp::TimingParams{});
  auto parsed = trace::Trace::parse(recording.bytes);
  ASSERT_TRUE(parsed.ok());
  auto status = trace::check_replayable(*parsed, 0xdeadbeef);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message().find("different workload"),
            std::string::npos);
}

// --- T3: the bit-identity property ------------------------------------------

class TraceSeed : public ::testing::TestWithParam<u64> {};

TEST_P(TraceSeed, ReplayIsCycleIdenticalToLiveExecution) {
  testgen::TortureConfig torture;
  torture.seed = GetParam();
  torture.programs = 3;
  // The generator's CSR segments read mcycle (a designed taint source);
  // taint refusal has its own test below. Here every program must replay.
  torture.use_csr = false;
  const auto matrix = trace::timing_matrix();
  unsigned replayed = 0;
  for (const auto& test : testgen::torture_suite(torture)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;

    const auto recording = record_program(*program, vp::TimingParams{});
    auto parsed = trace::Trace::parse(recording.bytes);
    ASSERT_TRUE(parsed.ok()) << test.name << ": "
                             << parsed.error().to_string();
    ASSERT_TRUE(parsed->taints().empty()) << test.name;
    EXPECT_TRUE(trace::self_check(*parsed).ok()) << test.name;

    for (const auto& config : matrix) {
      auto result = trace::replay(*parsed, config.params);
      ASSERT_TRUE(result.ok())
          << test.name << " / " << config.name << ": "
          << result.error().to_string();
      EXPECT_EQ(result->cycles, live_cycles(*program, config.params))
          << test.name << " diverged under " << config.name;
      EXPECT_EQ(result->instructions, recording.result.instructions)
          << test.name << " / " << config.name;
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

TEST_P(TraceSeed, CycleCsrReadsTaintAndAreRefused) {
  // With CSR segments on, the generator reads mcycle: those programs MUST
  // come back tainted and replay MUST refuse them per-site; the rest must
  // still be bit-identical under the base configuration.
  testgen::TortureConfig torture;
  torture.seed = GetParam() + 9000;
  torture.programs = 4;
  unsigned tainted = 0;
  for (const auto& test : testgen::torture_suite(torture)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;
    const auto recording = record_program(*program, vp::TimingParams{});
    auto parsed = trace::Trace::parse(recording.bytes);
    ASSERT_TRUE(parsed.ok()) << test.name;
    if (!parsed->taints().empty()) {
      ++tainted;
      auto refused = trace::replay(*parsed, vp::TimingParams{});
      ASSERT_FALSE(refused.ok()) << test.name;
      EXPECT_NE(refused.error().message().find("tainted"), std::string::npos);
      EXPECT_NE(refused.error().message().find("cycle-CSR read"),
                std::string::npos)
          << refused.error().to_string();
      continue;
    }
    auto result = trace::replay(*parsed, vp::TimingParams{});
    ASSERT_TRUE(result.ok()) << test.name;
    EXPECT_EQ(result->cycles, recording.result.cycles) << test.name;
  }
  EXPECT_GT(tainted, 0u) << "expected at least one mcycle-reading program";
}

TEST(TraceSeedless, KitchenSinkBitIdentity) {
  // Hand-written coverage for the event classes the csr-free torture
  // generator cannot emit: counter-free CSR ops, a handled ebreak trap,
  // mret, operand-dependent divides, atomics (lr/sc both outcomes + rmw),
  // and sub-word accesses — bit-identical across the whole matrix.
  auto program = assembler::assemble(R"(
    .text
    la a1, handler
    csrw mtvec, a1
    li t0, 0x80001000
    li a0, 37
    csrrw a2, mscratch, a0
    csrrs a3, mscratch, zero
    li a4, -64
    li a5, 5
    div a6, a4, a5
    divu s2, a4, a5
    rem s3, a5, a4
    li s4, 1
    mul s5, a4, a5
    lr.w s6, (t0)
    addi s6, s6, 1
    sc.w s7, s6, (t0)
    sc.w s8, s6, (t0)
    amoadd.w s9, a0, (t0)
    amoxor.w s10, a5, (t0)
    sb a0, 2(t0)
    lb s11, 2(t0)
    sh a5, 4(t0)
    lhu t2, 4(t0)
    ebreak
  after_trap:
    la a1, target
    csrw mepc, a1
    mret
    li a0, 1
    li a7, 93
    ecall
  target:
    li a0, 0
    li a7, 93
    ecall
  handler:
    csrr t3, mepc
    addi t3, t3, 4
    csrw mepc, t3
    mret
  )");
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  const auto recording = record_program(*program, vp::TimingParams{});
  EXPECT_EQ(recording.result.exit_code, 0);
  auto parsed = trace::Trace::parse(recording.bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_TRUE(parsed->taints().empty());
  EXPECT_TRUE(trace::self_check(*parsed).ok());
  for (const auto& config : trace::timing_matrix()) {
    auto result = trace::replay(*parsed, config.params);
    ASSERT_TRUE(result.ok()) << config.name;
    EXPECT_EQ(result->cycles, live_cycles(*program, config.params))
        << "diverged under " << config.name;
  }
}

TEST_P(TraceSeed, RecordingConfigurationDoesNotMatter) {
  // Record under a fully-featured configuration, replay under others: for
  // an untainted program the captured path is configuration-independent,
  // so the trace must replay identically no matter what it was recorded on.
  testgen::TortureConfig torture;
  torture.seed = GetParam() + 5000;
  torture.programs = 2;
  torture.use_csr = false;  // avoid interrupt/CSR taints for this property
  auto featured = trace::timing_matrix().back().params;  // everything on
  for (const auto& test : testgen::torture_suite(torture)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;
    const auto recording = record_program(*program, featured);
    auto parsed = trace::Trace::parse(recording.bytes);
    ASSERT_TRUE(parsed.ok()) << test.name;
    if (!parsed->taints().empty()) continue;
    EXPECT_TRUE(trace::self_check(*parsed).ok()) << test.name;
    const vp::TimingParams base;
    auto result = trace::replay(*parsed, base);
    ASSERT_TRUE(result.ok()) << test.name;
    EXPECT_EQ(result->cycles, live_cycles(*program, base)) << test.name;
  }
}

TEST_P(TraceSeed, HookedReplayAgreesWithUnhooked) {
  // The hook only adds the instruction walk; every ReplayResult field comes
  // from the same profile either way.
  testgen::TortureConfig torture;
  torture.seed = GetParam();
  torture.programs = 3;
  torture.use_csr = false;
  for (const auto& test : testgen::torture_suite(torture)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;
    const auto recording = record_program(*program, vp::TimingParams{});
    auto parsed = trace::Trace::parse(recording.bytes);
    ASSERT_TRUE(parsed.ok()) << test.name;
    auto decoded = trace::DecodedTrace::decode(*parsed);
    ASSERT_TRUE(decoded.ok()) << test.name;
    for (const auto& config : trace::timing_matrix()) {
      u64 hook_calls = 0;
      auto hooked = trace::replay(*decoded, config.params,
                                  [&hook_calls](u32) { ++hook_calls; });
      auto plain = trace::replay(*decoded, config.params);
      ASSERT_TRUE(hooked.ok() && plain.ok()) << test.name;
      EXPECT_EQ(hook_calls, recording.result.instructions) << test.name;
      EXPECT_EQ(hooked->cycles, plain->cycles) << config.name;
      EXPECT_EQ(hooked->instructions, plain->instructions) << config.name;
      EXPECT_EQ(hooked->blocks, plain->blocks) << config.name;
      EXPECT_EQ(hooked->icache_misses, plain->icache_misses) << config.name;
      EXPECT_EQ(hooked->mispredicts, plain->mispredicts) << config.name;
    }
  }
}

TEST(TraceLifetime, DecodedTraceOutlivesItsTrace) {
  // decode() shares the parsed body instead of copying it: the decoded
  // trace must keep that body alive after every Trace handle is gone.
  auto program = assembler::assemble(core::standard_workloads()[0].source);
  ASSERT_TRUE(program.ok());
  const auto recording = record_program(*program, vp::TimingParams{});
  const auto matrix = trace::timing_matrix();
  std::vector<trace::ReplayResult> expected;
  std::vector<u32> expected_pcs;
  std::optional<trace::DecodedTrace> decoded;
  {
    auto parsed = trace::Trace::parse(recording.bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    for (const auto& config : matrix) {
      auto result = trace::replay(*parsed, config.params);
      ASSERT_TRUE(result.ok()) << config.name;
      expected.push_back(*result);
    }
    ASSERT_TRUE(trace::replay(*parsed, vp::TimingParams{},
                              [&expected_pcs](u32 pc) {
                                expected_pcs.push_back(pc);
                              })
                    .ok());
    auto result = trace::DecodedTrace::decode(*parsed);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    decoded = std::move(*result);
  }
  EXPECT_EQ(decoded->footer().instructions, recording.result.instructions);
  EXPECT_EQ(decoded->block_pcs().size(), decoded->footer().blocks);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    auto result = trace::replay(*decoded, matrix[i].params);
    ASSERT_TRUE(result.ok()) << matrix[i].name;
    EXPECT_EQ(result->cycles, expected[i].cycles) << matrix[i].name;
    EXPECT_EQ(result->icache_misses, expected[i].icache_misses);
    EXPECT_EQ(result->mispredicts, expected[i].mispredicts);
  }
  std::vector<u32> pcs;
  decoded->for_each_insn([&pcs](u32 pc) { pcs.push_back(pc); });
  EXPECT_EQ(pcs, expected_pcs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceSeed,
                         ::testing::Values(11u, 29u, 83u, 191u));

// --- T4: QTA path-accumulator equivalence -----------------------------------

TEST(TraceQta, ReplayedPathMatchesLiveCoSimulation) {
  testgen::TortureConfig torture;
  torture.seed = 7;
  torture.programs = 3;
  for (const auto& test : testgen::torture_suite(torture)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;

    wcet::AnalyzerOptions options;
    options.program_name = test.name;
    auto analysis = wcet::Analyzer(options).analyze(*program);
    if (!analysis.ok()) continue;  // not statically analyzable: fine

    // Live co-simulation with the recorder riding along.
    vp::MachineConfig config;
    vp::Machine machine(config);
    ASSERT_TRUE(machine.load_program(*program).ok());
    qta::QtaPlugin plugin(analysis->annotated);
    plugin.attach(machine.vm_handle());
    trace::TraceRecorder recorder(
        trace::TraceRecorder::config_for(config, *program));
    ASSERT_TRUE(recorder.attach_checked(machine.vm_handle()).ok());
    const vp::RunResult result = machine.run();

    auto parsed = trace::Trace::parse(recorder.finish_bytes(result));
    ASSERT_TRUE(parsed.ok()) << test.name;
    if (!parsed->taints().empty()) continue;

    analysis->annotated.reindex();
    qta::PathAccumulator path(analysis->annotated);
    auto replayed = trace::replay(*parsed, vp::TimingParams{},
                                  [&path](u32 pc) { path.step(pc); });
    ASSERT_TRUE(replayed.ok()) << test.name;
    EXPECT_EQ(path.wc_path_cycles(), plugin.wc_path_cycles()) << test.name;
    EXPECT_EQ(path.blocks_entered(), plugin.blocks_entered()) << test.name;
    EXPECT_EQ(replayed->cycles, result.cycles) << test.name;
    // The chain holds offline exactly as it does live.
    const auto report = path.report(replayed->cycles);
    EXPECT_LE(report.observed_cycles, report.wc_path_cycles) << test.name;
    EXPECT_FALSE(report.bound_violated) << test.name;
  }
}

// --- T5: matrix fan-out on the pool -----------------------------------------

TEST(TraceMatrix, PoolFanOutAgreesWithSerialReplay) {
  auto program = assembler::assemble(R"(
    .text
    li a0, 0
    li a1, 200
    li a3, 7
    li t0, 0x80001000
  loop:
    addi a0, a0, 1
    mul a4, a0, a3
    divu a5, a1, a0
    sw a4, 0(t0)
    lw a6, 0(t0)
    blt a0, a1, loop
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  const auto recording = record_program(*program, vp::TimingParams{});
  auto parsed = trace::Trace::parse(recording.bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();

  const auto matrix = trace::timing_matrix();
  ASSERT_EQ(matrix.size(), 32u);
  auto rows = trace::replay_matrix(*parsed, matrix, 4);
  ASSERT_TRUE(rows.ok()) << rows.error().to_string();
  ASSERT_EQ(rows->size(), matrix.size());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    auto serial = trace::replay(*parsed, matrix[i].params);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*rows)[i].name, matrix[i].name);
    EXPECT_EQ((*rows)[i].result.cycles, serial->cycles) << matrix[i].name;
    EXPECT_EQ((*rows)[i].result.instructions, serial->instructions);
    EXPECT_EQ((*rows)[i].result.blocks, serial->blocks);
    EXPECT_EQ((*rows)[i].result.icache_misses, serial->icache_misses);
    EXPECT_EQ((*rows)[i].result.mispredicts, serial->mispredicts);
  }
}

// --- T6: the closed form on the standard workloads --------------------------

// The live run's retired-instruction PCs, as an insn_exec observer sees them.
class PcLog final : public vp::PluginBase {
 public:
  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.insn_exec = true;
    return subs;
  }
  void on_insn_exec(const s4e_insn_info& insn) override {
    pcs.push_back(insn.address);
  }
  std::vector<u32> pcs;
};

TEST(TraceWorkloads, HookedPcSequenceMatchesLiveRun) {
  // With and without RV32C encodings, so straight-line code mixes 2- and
  // 4-byte instructions: the hook must see exactly the live PC sequence.
  for (const bool compress : {false, true}) {
    assembler::Options options;
    options.compress = compress;
    for (const core::Workload& workload : core::standard_workloads()) {
      auto program = assembler::assemble(workload.source, options);
      ASSERT_TRUE(program.ok()) << workload.name;
      vp::MachineConfig config;
      vp::Machine machine(config);
      ASSERT_TRUE(machine.load_program(*program).ok());
      PcLog live;
      live.attach(machine.vm_handle());
      trace::TraceRecorder recorder(
          trace::TraceRecorder::config_for(config, *program));
      ASSERT_TRUE(recorder.attach_checked(machine.vm_handle()).ok());
      const vp::RunResult result = machine.run();
      auto parsed = trace::Trace::parse(recorder.finish_bytes(result));
      ASSERT_TRUE(parsed.ok()) << workload.name;
      std::vector<u32> replayed;
      auto replay = trace::replay(*parsed, config.timing,
                                  [&replayed](u32 pc) {
                                    replayed.push_back(pc);
                                  });
      ASSERT_TRUE(replay.ok()) << workload.name;
      EXPECT_EQ(replayed, live.pcs)
          << workload.name << " compress=" << compress;
    }
  }
}

TEST(TraceWorkloads, ClosedFormMatchesLiveOnEveryStandardWorkload) {
  // Record each standard workload once (single-hart) and charge the whole
  // matrix from that one trace.
  const auto matrix = trace::timing_matrix();
  for (const core::Workload& workload : core::standard_workloads()) {
    auto program = assembler::assemble(workload.source);
    ASSERT_TRUE(program.ok()) << workload.name;
    const auto recording = record_program(*program, vp::TimingParams{});
    auto parsed = trace::Trace::parse(recording.bytes);
    ASSERT_TRUE(parsed.ok()) << workload.name;
    ASSERT_TRUE(parsed->taints().empty()) << workload.name;
    auto decoded = trace::DecodedTrace::decode(*parsed);
    ASSERT_TRUE(decoded.ok()) << workload.name;
    for (const auto& config : matrix) {
      auto result = trace::replay(*decoded, config.params);
      ASSERT_TRUE(result.ok()) << workload.name;
      EXPECT_EQ(result->cycles, live_cycles(*program, config.params))
          << workload.name << " diverged under " << config.name;
    }
  }
}

}  // namespace
}  // namespace s4e
