// Trace subsystem suite: codec units, the truncated/corrupt-trace gauntlet,
// and the capture-once / replay-many properties:
//
//   T1  varint/zigzag codec edges and RLE boundaries survive a round trip,
//       and the recorder's bytes on the standard workloads and torture
//       suites are pinned
//   T2  every torn/corrupt trace shape is refused with a diagnostic
//   T3  record -> replay is cycle-identical to live execution for EVERY
//       timing configuration in the matrix (the bit-identity contract),
//       over random torture programs; recordings cut short by a budget
//       stop, a trap or self-modifying code are the same bytes in the
//       chained and the careful engine and replay to the live cycles
//   T4  the replayed PC sequence drives the QTA path accumulator to the
//       same WC-path time the live co-simulation computes
//   T5  the matrix fan-out on the thread pool agrees with serial replay
//       (tsan-matched: the trace is shared read-only across workers)
//   T6  the closed-form charge equals live execution on every standard
//       workload, under the recorded icache geometry and under others, and
//       a hooked replay returns what an unhooked one does; a decoded trace
//       replays the same after its Trace is gone
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
  std::size_t open_bytes = 0;    // stream_size() when the run ended
  std::size_t closed_bytes = 0;  // stream_size() after finish
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
  recording.open_bytes = recorder.stream_size();
  recording.bytes = recorder.finish_bytes(recording.result);
  recording.closed_bytes = recorder.stream_size();
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

// --- T1b: the recorder's bytes, pinned --------------------------------------

// Stream size before and after finish() and footer checksum of every
// recording below, as the recorder's per-instruction walk wrote them
// before it compiled blocks into templates: the 13 single-hart standard
// workloads with RV32C off and on, and the default torture suites of
// seeds 1-4 (CSR segments on, so cycle-CSR taints are pinned too). Any
// byte a recorder change moves fails here. The size before finish() is
// what a caller reads from stream_size() once the run ends (perfbench's
// trace_bytes): the events of the run's last instruction and of the plain
// run before it are still open.
struct PinnedStream {
  const char* name;
  std::size_t open_bytes;
  std::size_t stream_bytes;
  u64 checksum;
};

constexpr PinnedStream kPinnedStreams[] = {
      {"checksum", 118, 121, 0xddfcc5df1d81ed4bULL},
      {"fir", 604, 607, 0xdeb1c15ebc9d9bccULL},
      {"bubble_sort", 502, 505, 0xaa094c106fe5363dULL},
      {"crc32", 750, 753, 0x0876bd88ebaa3e4bULL},
      {"matmul", 1314, 1317, 0x89096367ea36306bULL},
      {"sieve", 3780, 3783, 0x3ceb002332820ecfULL},
      {"lock_ctrl", 128, 131, 0xe9d0d214b427c79eULL},
      {"attack_lock", 136, 139, 0x33379bba6702d323ULL},
      {"pid", 408, 411, 0xa30bed493f8b7e43ULL},
      {"histogram", 1090, 1093, 0xcdff644a2216a4c0ULL},
      {"bsearch", 64, 67, 0x4ef793f02acda32bULL},
      {"jumptab", 154, 157, 0x11b82ffd44a828afULL},
      {"callchain", 67, 70, 0x99f38d7b2bc2b92fULL},
      {"checksum rvc", 120, 123, 0x70772ffd6d583b50ULL},
      {"fir rvc", 602, 605, 0xf9315387e6abc7e2ULL},
      {"bubble_sort rvc", 522, 525, 0x6e7c43c2212ca7bbULL},
      {"crc32 rvc", 1004, 1007, 0x2e8d5c6f894bb2a9ULL},
      {"matmul rvc", 1638, 1641, 0x980f6296dc8be40aULL},
      {"sieve rvc", 4270, 4273, 0x59604a871fcf85f9ULL},
      {"lock_ctrl rvc", 134, 137, 0x01d8d3cd26938069ULL},
      {"attack_lock rvc", 142, 145, 0x9a688802453e00f4ULL},
      {"pid rvc", 516, 519, 0x2aaee7680da3f6bdULL},
      {"histogram rvc", 1218, 1221, 0xdb0dfa2c74a4497dULL},
      {"bsearch rvc", 76, 79, 0xb2cd35468a2642e2ULL},
      {"jumptab rvc", 204, 207, 0x08c194ac3ad30f8fULL},
      {"callchain rvc", 71, 74, 0x07ca3922f5e1f2f6ULL},
      {"seed1 torture_000", 1027, 1030, 0xffa94f67960f7c8bULL},
      {"seed1 torture_001", 530, 533, 0xa6cfc6710d3a0defULL},
      {"seed1 torture_002", 559, 562, 0x00aa9b6d8cd74b60ULL},
      {"seed1 torture_003", 776, 779, 0x63015ef2373aaba6ULL},
      {"seed1 torture_004", 610, 613, 0x137f0357bcfdd730ULL},
      {"seed1 torture_005", 1190, 1193, 0xf54051813d92c178ULL},
      {"seed1 torture_006", 1619, 1622, 0x39a512da376a8113ULL},
      {"seed1 torture_007", 950, 953, 0x9965c9783a1b52e6ULL},
      {"seed1 torture_008", 1478, 1481, 0x5c34f0e53cb661eaULL},
      {"seed1 torture_009", 1186, 1189, 0x69e1d5082317877eULL},
      {"seed2 torture_000", 536, 539, 0x91c00a0a1bc7eeb2ULL},
      {"seed2 torture_001", 2257, 2260, 0x4fc6dd6ba684df13ULL},
      {"seed2 torture_002", 1460, 1463, 0xb5ecf51b0c4c6f5cULL},
      {"seed2 torture_003", 502, 505, 0xaa3bc965cf3ae0bcULL},
      {"seed2 torture_004", 962, 965, 0x03a706c5aabc027cULL},
      {"seed2 torture_005", 1193, 1196, 0x31cc0481a8a42a10ULL},
      {"seed2 torture_006", 1096, 1099, 0x98dbf042f30118feULL},
      {"seed2 torture_007", 1091, 1094, 0x37ebe7f8be4dbe5aULL},
      {"seed2 torture_008", 1941, 1944, 0x7df4aa11b41df497ULL},
      {"seed2 torture_009", 1698, 1701, 0xa6fc26bbe04372dfULL},
      {"seed3 torture_000", 1526, 1529, 0x768646c8b6003693ULL},
      {"seed3 torture_001", 967, 970, 0xb012caf673a4b188ULL},
      {"seed3 torture_002", 486, 489, 0x00e1e856fc1c86dbULL},
      {"seed3 torture_003", 879, 882, 0xdb6ecb101dec9f73ULL},
      {"seed3 torture_004", 1189, 1192, 0xe83b2f228b4d5204ULL},
      {"seed3 torture_005", 910, 913, 0xa23d7ef202c89441ULL},
      {"seed3 torture_006", 880, 883, 0x4c186d4f5a17e0a7ULL},
      {"seed3 torture_007", 1881, 1884, 0x1324e51e4492ea39ULL},
      {"seed3 torture_008", 2015, 2018, 0x5497bb60623e7fb0ULL},
      {"seed3 torture_009", 1984, 1987, 0x536a429bc0a60ec6ULL},
      {"seed4 torture_000", 1616, 1619, 0xc3d2900f067b9200ULL},
      {"seed4 torture_001", 1051, 1054, 0xc1e4dc2e58188356ULL},
      {"seed4 torture_002", 1410, 1413, 0x7faf7f984e68c2f9ULL},
      {"seed4 torture_003", 1458, 1461, 0x6dceb4116ffcf20aULL},
      {"seed4 torture_004", 1467, 1470, 0xa36cd3d2954e6826ULL},
      {"seed4 torture_005", 1461, 1464, 0x7111bc6e9bd33c00ULL},
      {"seed4 torture_006", 524, 527, 0x9b5361534518124bULL},
      {"seed4 torture_007", 556, 559, 0xd8665e2288df70b5ULL},
      {"seed4 torture_008", 1310, 1313, 0xf3d32ce5ce138105ULL},
      {"seed4 torture_009", 840, 843, 0x009bccdbeb00b25eULL},
};

TEST(TraceGolden, RecordedStreamsArePinned) {
  std::vector<std::pair<std::string, Recording>> recorded;
  for (const bool compress : {false, true}) {
    assembler::Options options;
    options.compress = compress;
    for (const core::Workload& workload : core::standard_workloads()) {
      if (workload.name.rfind("smp_", 0) == 0) continue;
      auto program = assembler::assemble(workload.source, options);
      ASSERT_TRUE(program.ok()) << workload.name;
      recorded.emplace_back(workload.name + (compress ? " rvc" : ""),
                            record_program(*program, vp::TimingParams{}));
    }
  }
  for (const u64 seed : {1u, 2u, 3u, 4u}) {
    testgen::TortureConfig torture;
    torture.seed = seed;
    for (const auto& test : testgen::torture_suite(torture)) {
      auto program = assembler::assemble(test.source);
      ASSERT_TRUE(program.ok()) << test.name;
      recorded.emplace_back("seed" + std::to_string(seed) + " " + test.name,
                            record_program(*program, vp::TimingParams{}));
    }
  }
  ASSERT_EQ(recorded.size(), std::size(kPinnedStreams));
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const PinnedStream& pinned = kPinnedStreams[i];
    ASSERT_EQ(recorded[i].first, pinned.name);
    auto parsed = trace::Trace::parse(recorded[i].second.bytes);
    ASSERT_TRUE(parsed.ok()) << pinned.name << ": "
                             << parsed.error().to_string();
    EXPECT_EQ(recorded[i].second.open_bytes, pinned.open_bytes)
        << pinned.name;
    EXPECT_EQ(parsed->stream_size(), pinned.stream_bytes) << pinned.name;
    EXPECT_EQ(recorded[i].second.closed_bytes, pinned.stream_bytes)
        << pinned.name;
    EXPECT_EQ(parsed->footer().stream_checksum, pinned.checksum)
        << pinned.name;
  }
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

TEST(TraceGauntlet, ReplayRefusesBadIcacheGeometry) {
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
  const auto recording = record_program(*program, vp::TimingParams{});
  auto parsed = trace::Trace::parse(recording.bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  struct Geometry {
    u32 lines;
    u32 line_bytes;
    const char* field;
  };
  for (const Geometry& bad :
       {Geometry{48, 32, "icache_lines = 48"},
        Geometry{64, 0, "icache_line_bytes = 0"},
        Geometry{1u << 21, 32, "icache_lines = 2097152"}}) {
    vp::TimingParams params;
    params.icache_miss_cycles = 12;
    params.icache_lines = bad.lines;
    params.icache_line_bytes = bad.line_bytes;
    auto replayed = trace::replay(*parsed, params);
    ASSERT_FALSE(replayed.ok()) << bad.field;
    EXPECT_EQ(replayed.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(replayed.error().message().find(bad.field), std::string::npos)
        << replayed.error().to_string();

    auto rows = trace::replay_matrix(
        *parsed, {{"base", vp::TimingParams{}}, {"bad", params}}, 2);
    ASSERT_FALSE(rows.ok()) << bad.field;
    EXPECT_EQ(rows.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(rows.error().message().find("config 'bad'"), std::string::npos)
        << rows.error().to_string();
    EXPECT_NE(rows.error().message().find(bad.field), std::string::npos)
        << rows.error().to_string();

    // With the icache off the geometry is never used.
    params.icache_miss_cycles = 0;
    EXPECT_TRUE(trace::replay(*parsed, params).ok()) << bad.field;
  }
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

// --- T3b: blocks cut short ---------------------------------------------------

// A breakpoint at an address no test program executes (the top of RAM) turns
// on the per-block debug check: the whole run takes the careful loop.
void force_careful(vp::Machine& machine) {
  machine.add_breakpoint(machine.config().ram_base +
                         machine.config().ram_size - 2);
}

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

// Record `program`, optionally in the careful loop, first for `budget`
// instructions (0: no budget stop), then, when `resume`, on to its end.
// `pcs`, when given, logs the PCs the run retires.
Recording record_cut(const assembler::Program& program, bool careful,
                     u64 budget, bool resume, PcLog* pcs = nullptr) {
  vp::MachineConfig config;
  vp::Machine machine(config);
  EXPECT_TRUE(machine.load_program(program).ok());
  if (careful) force_careful(machine);
  if (pcs != nullptr) pcs->attach(machine.vm_handle());
  trace::TraceRecorder recorder(
      trace::TraceRecorder::config_for(config, program));
  EXPECT_TRUE(recorder.attach_checked(machine.vm_handle()).ok());
  Recording recording;
  recording.result = budget != 0 ? machine.run(budget) : machine.run();
  if (budget != 0 && resume) recording.result = machine.run();
  recording.bytes = recorder.finish_bytes(recording.result);
  return recording;
}

// The chained and the careful recording of one run are the same bytes
// (also with a whole-run observer logging the live PCs), and the trace
// checks itself, replays the recording configuration to the live run's
// cycles and retraces the live PC sequence.
void expect_recording_holds(const assembler::Program& program, u64 budget,
                            bool resume, const std::string& label) {
  const Recording chained = record_cut(program, false, budget, resume);
  const Recording careful = record_cut(program, true, budget, resume);
  PcLog live;
  const Recording observed = record_cut(program, false, budget, resume, &live);
  EXPECT_EQ(chained.bytes, careful.bytes) << label;
  EXPECT_EQ(chained.bytes, observed.bytes) << label;
  EXPECT_EQ(chained.result.instructions, careful.result.instructions)
      << label;
  auto parsed = trace::Trace::parse(chained.bytes);
  ASSERT_TRUE(parsed.ok()) << label << ": " << parsed.error().to_string();
  ASSERT_TRUE(parsed->taints().empty()) << label;
  EXPECT_EQ(parsed->footer().instructions, chained.result.instructions)
      << label;
  EXPECT_TRUE(trace::self_check(*parsed).ok()) << label;
  std::vector<u32> pcs;
  auto replayed = trace::replay(*parsed, vp::TimingParams{},
                                [&pcs](u32 pc) { pcs.push_back(pc); });
  ASSERT_TRUE(replayed.ok()) << label;
  EXPECT_EQ(replayed->cycles, chained.result.cycles) << label;
  EXPECT_EQ(pcs, live.pcs) << label;
}

// A loop whose blocks hold a plain run, a mul, a load, a divide, a store
// and exit branches, one of them a 2-byte c.beqz (planted with .half: the
// assembler never compresses control flow) over a 2-byte c.nop: a budget of
// every length stops the recording inside the plain run, on the load, on
// the divide and on each exit branch, among the rest.
constexpr const char* kCutLoop = R"(
    li s0, 4
    li t0, 0x80001000
    li s1, 1
  loop:
    addi s1, s1, 3
    xor s2, s1, s0
    slli s3, s2, 2
    add s1, s1, s3
    mul t3, s1, s0
    lw t1, 0(t0)
    add s1, s1, t1
    divu t2, s1, s0
    sw t2, 0(t0)
    andi a0, s0, 1
    .half 0xc501
    addi t4, s1, 7
    .half 0x0001
    add s1, s1, t4
    addi s0, s0, -1
    bnez s0, loop
    andi a0, s1, 127
    li a7, 93
    ecall
)";

TEST(TraceCut, EveryBudgetStopRecordsTheRunItCut) {
  for (const bool compress : {false, true}) {
    assembler::Options options;
    options.compress = compress;
    auto program = assembler::assemble(kCutLoop, options);
    ASSERT_TRUE(program.ok()) << program.error().to_string();
    const u64 total = record_cut(*program, false, 0, false).result.instructions;
    ASSERT_GT(total, 60u);
    for (u64 budget = 1; budget < total; ++budget) {
      for (const bool resume : {false, true}) {
        expect_recording_holds(
            *program, budget, resume,
            "compress=" + std::to_string(compress) +
                " budget=" + std::to_string(budget) +
                (resume ? " resumed" : " stopped"));
      }
    }
  }
}

TEST(TraceCut, SelfModifyingCodeRetranslatesAtTheSamePc) {
  // The store patches the loop head's first instruction (addi a0, a0, 1
  // becomes addi a0, a0, 5) while that block is warm: the next dispatch
  // translates a new block at the same PC, twice. RV32C stays off so the
  // patched word holds exactly one instruction.
  auto program = assembler::assemble(R"(
    la t0, site
    li t1, 0x00550513
    li s0, 3
    li a0, 0
  loop:
  site:
    addi a0, a0, 1
    addi s0, s0, -1
    beqz s0, done
    sw t1, 0(t0)
    j loop
  done:
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  const Recording recording = record_cut(*program, false, 0, false);
  EXPECT_EQ(recording.result.exit_code, 11);
  // The recorder subscribes to tb_trans, so each patch drops the block and
  // re-translates it. A machine with no such subscriber re-lowers the
  // block in place instead: the patch keeps its shape.
  for (const bool observed : {true, false}) {
    vp::Machine machine;
    ASSERT_TRUE(machine.load_program(*program).ok());
    if (observed) {
      machine.add_tb_trans_cb([](void*, s4e_vm*, const s4e_tb_info*) {},
                              nullptr);
    }
    machine.run();
    if (observed) {
      EXPECT_GE(machine.tb_cache().invalidated_blocks(), 2u);
    } else {
      EXPECT_EQ(machine.tb_cache().invalidated_blocks(), 0u);
      EXPECT_GE(machine.tb_cache().relowered_blocks(), 2u);
    }
  }
  expect_recording_holds(*program, 0, false, "self-modifying");
}

// Invalidates the block at `head` each time the instruction at `at` retires.
class Invalidator final : public vp::PluginBase {
 public:
  Invalidator(u32 head, u32 at) : head_(head), at_(at) {}
  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.insn_exec = true;
    return subs;
  }
  void on_insn_exec(const s4e_insn_info& insn) override {
    if (insn.address == at_) s4e_invalidate_tb_range(vm(), head_, 4);
  }

 private:
  u32 head_;
  u32 at_;
};

TEST(TraceCut, ExecutingBlockRetranslatedAtItsOwnPc) {
  // The loop is one block that branches back to itself. Invalidating it as
  // its exit branch retires makes the next dispatch translate it again
  // while its old plan still has that branch to resolve.
  auto program = assembler::assemble(R"(
    li s0, 4
    li a0, 0
  loop:
    addi a0, a0, 3
    addi s0, s0, -1
  exit:
    bnez s0, loop
    li a7, 93
    ecall
  )");
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  const auto record = [&](bool careful) {
    vp::MachineConfig config;
    vp::Machine machine(config);
    EXPECT_TRUE(machine.load_program(*program).ok());
    if (careful) force_careful(machine);
    Invalidator invalidator(*program->symbol("loop"), *program->symbol("exit"));
    invalidator.attach(machine.vm_handle());
    trace::TraceRecorder recorder(
        trace::TraceRecorder::config_for(config, *program));
    EXPECT_TRUE(recorder.attach_checked(machine.vm_handle()).ok());
    Recording recording;
    recording.result = machine.run();
    EXPECT_GE(machine.tb_cache().invalidated_blocks(), 3u);
    recording.bytes = recorder.finish_bytes(recording.result);
    return recording;
  };
  const Recording chained = record(false);
  EXPECT_EQ(chained.result.exit_code, 12);
  EXPECT_EQ(chained.bytes, record(true).bytes);
  auto parsed = trace::Trace::parse(chained.bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed->taints().empty());
  EXPECT_TRUE(trace::self_check(*parsed).ok());
  auto replayed = trace::replay(*parsed, vp::TimingParams{});
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->cycles, chained.result.cycles);
}

TEST(TraceCut, LoadAccessFaultTraps) {
  // A load outside every device window traps, handled and unhandled.
  for (const bool handled : {true, false}) {
    const std::string source = std::string(handled ? R"(
    la t0, handler
    csrw mtvec, t0
)"
                                                   : "") +
                               R"(
    li t1, 0x70000000
    li a0, 5
    addi a0, a0, 1
    lw a1, 0(t1)
    li a0, 99
    li a7, 93
    ecall
  handler:
    csrr t2, mcause
    andi a0, t2, 127
    li a7, 93
    ecall
  )";
    auto program = assembler::assemble(source);
    ASSERT_TRUE(program.ok()) << program.error().to_string();
    const Recording recording = record_cut(*program, false, 0, false);
    EXPECT_EQ(recording.result.reason, handled
                                           ? vp::StopReason::kExitEcall
                                           : vp::StopReason::kTrapUnhandled);
    if (handled) {
      EXPECT_EQ(recording.result.exit_code, 5);
    }
    expect_recording_holds(*program, 0, false,
                           handled ? "handled fault" : "unhandled fault");
  }
}

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

TEST(TraceWorkloads, IcacheGeometriesMatchLive) {
  // decode() counts the misses once under the recorded geometry; a replay
  // with that geometry charges the count, any other simulates. Both must
  // equal a live run, in cycles and in misses, from recordings made under
  // the default geometry and under another one.
  const auto with_icache = [](u32 lines, u32 line_bytes) {
    vp::TimingParams params;
    params.icache_miss_cycles = 12;
    params.icache_lines = lines;
    params.icache_line_bytes = line_bytes;
    return params;
  };
  const vp::TimingParams geometries[] = {
      with_icache(64, 32), with_icache(16, 16), with_icache(256, 64)};
  for (const core::Workload& workload : core::standard_workloads()) {
    auto program = assembler::assemble(workload.source);
    ASSERT_TRUE(program.ok()) << workload.name;
    for (const vp::TimingParams& recorded :
         {vp::TimingParams{}, geometries[1]}) {
      const auto recording = record_program(*program, recorded);
      auto parsed = trace::Trace::parse(recording.bytes);
      ASSERT_TRUE(parsed.ok()) << workload.name;
      auto decoded = trace::DecodedTrace::decode(*parsed);
      ASSERT_TRUE(decoded.ok()) << workload.name;
      for (const vp::TimingParams& params : geometries) {
        const std::string label =
            workload.name + " recorded " +
            std::to_string(recorded.icache_lines) + " replayed " +
            std::to_string(params.icache_lines) + "x" +
            std::to_string(params.icache_line_bytes);
        vp::MachineConfig config;
        config.timing = params;
        vp::Machine machine(config);
        ASSERT_TRUE(machine.load_program(*program).ok());
        const vp::RunResult live = machine.run();
        auto result = trace::replay(*decoded, params);
        ASSERT_TRUE(result.ok()) << label;
        EXPECT_EQ(result->cycles, live.cycles) << label;
        EXPECT_EQ(result->icache_misses, machine.icache_misses()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace s4e
