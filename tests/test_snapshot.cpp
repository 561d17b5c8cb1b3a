// Snapshot/restore layer tests (ctest -L snapshot):
//   * StateWriter/StateReader blob round-trips
//   * per-device reset() regression (UART, CLINT, GPIO, test finisher)
//   * dirty-page tracking: restore cost proportional to pages written
//   * sparse capture: a snapshot copies only the pages written since
//     construction, and never-written pages restore as zero
//   * TB-cache range invalidation drops only overlapping blocks
//   * restore precision: a restore drops exactly the translations whose
//     source bytes it changes, applies pending TB maintenance, and drops a
//     block cut before a parcel the restore makes decodable
//   * fresh-run == restored-run equivalence, property-tested over
//     generated torture programs
//   * campaigns on reused worker machines match a fresh machine per
//     mutant, on one and two worker lanes
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "asm/assembler.hpp"
#include "core/workloads.hpp"
#include "fault/fault.hpp"
#include "fresh_reference.hpp"
#include "mutation/mutation.hpp"
#include "testgen/testgen.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"
#include "vp/s4e_plugin.h"
#include "vp/snapshot.hpp"
#include "vp/tb_cache.hpp"

namespace s4e::vp {
namespace {

assembler::Program assemble_or_die(const char* source) {
  auto program = assembler::assemble(source);
  EXPECT_TRUE(program.ok());
  return *program;
}

// Prints "hi", stores a marker to .data, exits 7.
const char* kHelloSource = R"(
_start:
    li t0, 0x10000000
    li t1, 104
    sw t1, 0(t0)
    li t1, 105
    sw t1, 0(t0)
    la t2, mark
    li t3, 0x1234
    sw t3, 0(t2)
    li a0, 7
    li a7, 93
    ecall
.data
mark:
    .word 0
)";

TEST(StateBlob, RoundTripAndExhaustion) {
  StateWriter writer;
  writer.put_u8(0xab);
  writer.put_u32(0xdeadbeef);
  writer.put_u64(0x0123456789abcdefULL);
  const std::string text = "snapshot";
  writer.put_blob(text.data(), text.size());
  const std::vector<u8> blob = writer.take();

  StateReader reader(blob);
  EXPECT_EQ(reader.get_u8(), 0xab);
  EXPECT_EQ(reader.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.get_u64(), 0x0123456789abcdefULL);
  EXPECT_FALSE(reader.exhausted());
  std::string read_back(reader.get_blob_size(), '\0');
  reader.get_bytes(read_back.data(), read_back.size());
  EXPECT_EQ(read_back, text);
  EXPECT_TRUE(reader.exhausted());
}

TEST(StateBlob, EmptyBlobIsExhausted) {
  StateWriter writer;
  const std::vector<u8> blob = writer.take();
  StateReader reader(blob);
  EXPECT_TRUE(reader.exhausted());
}

// --------------------------------------------------------------------------
// Per-device reset regression: every device must drop its buffered
// guest-visible state on Machine::reset().

TEST(DeviceReset, UartClearsLogQueueAndCounters) {
  Machine machine;
  ASSERT_NE(machine.uart(), nullptr);
  ASSERT_TRUE(machine.bus().write(Uart::kDefaultBase + Uart::kTxData, 4, 'x')
                  .ok());
  machine.uart()->push_rx("abc");
  ASSERT_TRUE(
      machine.bus().read(Uart::kDefaultBase + Uart::kRxData, 4).ok());
  EXPECT_EQ(machine.uart()->tx_log(), "x");
  EXPECT_EQ(machine.uart()->tx_count(), 1u);
  EXPECT_EQ(machine.uart()->rx_count(), 1u);

  machine.reset();
  EXPECT_TRUE(machine.uart()->tx_log().empty());
  EXPECT_EQ(machine.uart()->tx_count(), 0u);
  EXPECT_EQ(machine.uart()->rx_count(), 0u);
  // The queued "bc" is gone too: RXDATA reads empty.
  auto rx = machine.bus().read(Uart::kDefaultBase + Uart::kRxData, 4);
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->value, 0xffff'ffffu);
}

TEST(DeviceReset, ClintReturnsToPowerOnTimer) {
  Machine machine;
  ASSERT_NE(machine.clint(), nullptr);
  machine.clint()->tick(500);
  ASSERT_TRUE(
      machine.bus().write(Clint::kDefaultBase + Clint::kMtimecmpLo, 4, 100)
          .ok());
  ASSERT_TRUE(
      machine.bus().write(Clint::kDefaultBase + Clint::kMtimecmpHi, 4, 0)
          .ok());
  EXPECT_TRUE(machine.clint()->timer_pending());

  machine.reset();
  EXPECT_EQ(machine.clint()->mtime(), 0u);
  EXPECT_EQ(machine.clint()->mtimecmp(), ~u64{0});
  EXPECT_FALSE(machine.clint()->timer_pending());
}

TEST(DeviceReset, GpioClearsWaveformLogButKeepsInputs) {
  Machine machine;
  ASSERT_NE(machine.gpio(), nullptr);
  machine.gpio()->set_in(0x55);
  machine.gpio()->tick(10);
  ASSERT_TRUE(
      machine.bus().write(Gpio::kDefaultBase + Gpio::kOut, 4, 0x3).ok());
  ASSERT_TRUE(
      machine.bus().write(Gpio::kDefaultBase + Gpio::kToggle, 4, 0x1).ok());
  EXPECT_EQ(machine.gpio()->out(), 0x2u);
  EXPECT_EQ(machine.gpio()->changes().size(), 2u);

  machine.reset();
  EXPECT_EQ(machine.gpio()->out(), 0u);
  EXPECT_TRUE(machine.gpio()->changes().empty());  // the log must not leak
  // Externally driven pin levels survive a machine reset.
  auto in = machine.bus().read(Gpio::kDefaultBase + Gpio::kIn, 4);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->value, 0x55u);
}

TEST(DeviceReset, TestDeviceStillFinishesAfterReset) {
  // The finisher is stateless; reset must not disturb its exit wiring.
  auto program = assemble_or_die(kHelloSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  ASSERT_TRUE(machine.run().normal_exit());

  machine.reset();
  auto write = machine.bus().write(TestDevice::kDefaultBase, 4,
                                   (9u << 16) | TestDevice::kFailMagic);
  ASSERT_TRUE(write.ok());
  const RunResult result = machine.run(1);
  EXPECT_EQ(result.reason, StopReason::kExitTestDevice);
  EXPECT_EQ(result.exit_code, 9);
}

TEST(DeviceReset, MachineRunThenResetDropsUartOutput) {
  auto program = assemble_or_die(kHelloSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  ASSERT_TRUE(machine.run().normal_exit());
  EXPECT_EQ(machine.uart()->tx_log(), "hi");
  machine.reset();
  EXPECT_TRUE(machine.uart()->tx_log().empty());
}

// --------------------------------------------------------------------------
// Dirty-page tracking.

TEST(DirtyPages, RestoreCopiesOnlyTouchedPages) {
  Machine machine;  // 4 MiB RAM -> 4096 pages of kRamPageBytes
  Snapshot snap;
  machine.save_state(snap);
  const u64 total_pages = machine.bus().ram_pages();
  ASSERT_GT(total_pages, 0u);

  // Dirty two distant pages plus one byte straddling nothing special.
  const u32 base = machine.config().ram_base;
  const u8 value = 0xcd;
  ASSERT_TRUE(machine.bus().ram_write(base + 0, &value, 1).ok());
  ASSERT_TRUE(
      machine.bus().ram_write(base + 10 * kRamPageBytes, &value, 1).ok());

  machine.restore_state(snap);
  const SnapshotStats& stats = machine.snapshot_stats();
  EXPECT_EQ(stats.snapshots, 1u);
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_EQ(stats.pages_copied, 2u);
  EXPECT_EQ(stats.pages_total, total_pages);

  // Both bytes are back to their snapshot value (zero).
  u8 read_back = 0xff;
  ASSERT_TRUE(machine.bus().ram_read(base, &read_back, 1).ok());
  EXPECT_EQ(read_back, 0u);
  ASSERT_TRUE(
      machine.bus().ram_read(base + 10 * kRamPageBytes, &read_back, 1).ok());
  EXPECT_EQ(read_back, 0u);
}

TEST(DirtyPages, WriteSpanningPageBoundaryDirtiesBothPages) {
  Machine machine;
  Snapshot snap;
  machine.save_state(snap);
  const u32 boundary = machine.config().ram_base + kRamPageBytes - 2;
  const u32 value = 0xaabbccdd;
  ASSERT_TRUE(machine.bus().ram_write(boundary, &value, 4).ok());
  machine.restore_state(snap);
  EXPECT_EQ(machine.snapshot_stats().pages_copied, 2u);
}

TEST(DirtyPages, SecondRestoreAfterNoWritesCopiesNothing) {
  Machine machine;
  Snapshot snap;
  machine.save_state(snap);
  const u32 value = 1;
  ASSERT_TRUE(
      machine.bus().ram_write(machine.config().ram_base, &value, 4).ok());
  machine.restore_state(snap);
  const u64 copied_once = machine.snapshot_stats().pages_copied;
  EXPECT_EQ(copied_once, 1u);
  machine.restore_state(snap);  // nothing dirtied since
  EXPECT_EQ(machine.snapshot_stats().pages_copied, copied_once);
}

// --------------------------------------------------------------------------
// Sparse capture: save_state copies only the pages written since
// construction; every other page of the image is known to be zero.

// Distinct kRamPageBytes pages spanned by the program's loaded sections.
u64 program_pages(const assembler::Program& program, u32 ram_base) {
  std::set<u64> pages;
  for (const auto& section : program.sections) {
    if (section.bytes.empty()) continue;
    const u64 first = u64{section.base} - ram_base;
    const u64 last = first + section.bytes.size() - 1;
    for (u64 page = first / kRamPageBytes; page <= last / kRamPageBytes;
         ++page) {
      pages.insert(page);
    }
  }
  return pages.size();
}

u32 read_word(Machine& machine, u32 address) {
  u32 value = 0xffff'ffff;
  EXPECT_TRUE(machine.bus().ram_read(address, &value, 4).ok());
  return value;
}

void write_word(Machine& machine, u32 address, u32 value) {
  ASSERT_TRUE(machine.bus().ram_write(address, &value, 4).ok());
}

TEST(SparseCapture, FreshMachineSavesNoPages) {
  Machine machine;
  Snapshot snap;
  machine.save_state(snap);
  EXPECT_EQ(machine.snapshot_stats().pages_saved, 0u);
  EXPECT_EQ(read_word(machine, machine.config().ram_base), 0u);
}

TEST(SparseCapture, WorkerVmSavesExactlyTheProgramPages) {
  auto workload = core::find_workload("bubble_sort");
  ASSERT_TRUE(workload.ok());
  const auto program = assemble_or_die(workload->source.c_str());
  const MachineConfig config;
  auto vm = WorkerVm::create(config, program);
  ASSERT_TRUE(vm.ok());
  const u64 expected = program_pages(program, config.ram_base);
  ASSERT_GT(expected, 0u);
  EXPECT_EQ((*vm)->stats().pages_saved, expected);
}

TEST(SparseCapture, ResaveKeepsPagesWrittenBeforeTheFirstSave) {
  Machine machine;
  const u32 page_a = machine.config().ram_base + 5 * kRamPageBytes;
  const u32 page_b = machine.config().ram_base + 40 * kRamPageBytes;
  Snapshot snap;
  write_word(machine, page_a, 0x1111'1111);
  machine.save_state(snap);
  write_word(machine, page_b, 0x2222'2222);
  // Page A is clean now; only the populated map still knows it holds data.
  machine.save_state(snap);
  EXPECT_EQ(machine.snapshot_stats().pages_saved, 3u);  // 1 + 2

  write_word(machine, page_a, 0x9999'9999);
  write_word(machine, page_b, 0x8888'8888);
  machine.restore_state(snap);
  EXPECT_EQ(read_word(machine, page_a), 0x1111'1111u);
  EXPECT_EQ(read_word(machine, page_b), 0x2222'2222u);
}

// Stores to a page far from the program's code and data.
const char* kFarStoreSource = R"(
_start:
    li t0, 0x80200000
    li t1, 0x5a5a5a5a
    sw t1, 0(t0)
    li a0, 0
    li a7, 93
    ecall
)";

TEST(SparseCapture, PageFirstWrittenAfterSnapshotRestoresToZero) {
  auto program = assemble_or_die(kFarStoreSource);
  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  Snapshot snap;
  machine.save_state(snap);
  const u32 guest_page = 0x8020'0000;
  const u32 host_page = machine.config().ram_base + 3000 * kRamPageBytes;

  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(machine.run().normal_exit()) << pass;
    write_word(machine, host_page, 0x7777'7777);
    EXPECT_EQ(read_word(machine, guest_page), 0x5a5a'5a5au) << pass;
    machine.restore_state(snap);
    EXPECT_EQ(read_word(machine, guest_page), 0u) << pass;  // guest store
    EXPECT_EQ(read_word(machine, host_page), 0u) << pass;   // ram_write
  }
}

// --------------------------------------------------------------------------
// TB-cache range invalidation.

std::unique_ptr<TranslationBlock> make_block(u32 start, u32 byte_size) {
  auto block = std::make_unique<TranslationBlock>();
  block->start = start;
  block->byte_size = byte_size;
  return block;
}

TEST(TbCacheInvalidate, DropsOnlyOverlappingBlocks) {
  TbCache cache;
  cache.insert(make_block(0x8000'0000, 16));
  cache.insert(make_block(0x8000'0010, 16));
  cache.insert(make_block(0x8000'0100, 16));
  ASSERT_EQ(cache.size(), 3u);

  // Invalidate a range overlapping only the second block.
  EXPECT_EQ(cache.invalidate_range(0x8000'001c, 4), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.lookup(0x8000'0000), nullptr);
  EXPECT_EQ(cache.lookup(0x8000'0010), nullptr);  // front entry cleared too
  EXPECT_NE(cache.lookup(0x8000'0100), nullptr);
  EXPECT_EQ(cache.invalidated_blocks(), 1u);

  // A range outside the code watermarks is a cheap no-op.
  EXPECT_EQ(cache.invalidate_range(0x9000'0000, 64), 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// --------------------------------------------------------------------------
// Fresh-run == restored-run equivalence.

struct RunObservation {
  RunResult result;
  std::string uart;
  u64 memory_hash = 0;
  u64 cycles = 0;
  std::array<u32, isa::kGprCount> gpr{};
};

RunObservation observe_run(Machine& machine,
                           const assembler::Program& program) {
  RunObservation obs;
  obs.result = machine.run();
  obs.uart = machine.uart()->tx_log();
  obs.memory_hash = data_memory_hash(machine, program);
  obs.cycles = machine.cycles();
  obs.gpr = machine.cpu().gpr;
  return obs;
}

void expect_same_observation(const RunObservation& a, const RunObservation& b,
                             const std::string& label) {
  EXPECT_EQ(a.result.reason, b.result.reason) << label;
  EXPECT_EQ(a.result.exit_code, b.result.exit_code) << label;
  EXPECT_EQ(a.result.instructions, b.result.instructions) << label;
  EXPECT_EQ(a.result.cycles, b.result.cycles) << label;
  EXPECT_EQ(a.result.final_pc, b.result.final_pc) << label;
  EXPECT_EQ(a.uart, b.uart) << label;
  EXPECT_EQ(a.memory_hash, b.memory_hash) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.gpr, b.gpr) << label;
}

TEST(SnapshotRestore, RestoredRunMatchesFreshRunWithDeviceTraffic) {
  auto program = assemble_or_die(kHelloSource);

  Machine fresh;
  ASSERT_TRUE(fresh.load_program(program).ok());
  const RunObservation golden = observe_run(fresh, program);
  ASSERT_TRUE(golden.result.normal_exit());
  EXPECT_EQ(golden.uart, "hi");

  Machine reused;
  ASSERT_TRUE(reused.load_program(program).ok());
  Snapshot snap;
  reused.save_state(snap);
  expect_same_observation(observe_run(reused, program), golden, "first");
  reused.restore_state(snap);
  expect_same_observation(observe_run(reused, program), golden, "restored");
  // And a third time, exercising a now-warm TB cache.
  reused.restore_state(snap);
  expect_same_observation(observe_run(reused, program), golden, "rewarmed");
}

class SnapshotTortureSeed : public ::testing::TestWithParam<u64> {};

TEST_P(SnapshotTortureSeed, FreshAndRestoredRunsAgree) {
  testgen::TortureConfig config;
  config.seed = GetParam();
  config.programs = 3;
  for (const auto& test : testgen::torture_suite(config)) {
    auto program = assembler::assemble(test.source);
    ASSERT_TRUE(program.ok()) << test.name;

    Machine fresh;
    ASSERT_TRUE(fresh.load_program(*program).ok());
    const RunObservation golden = observe_run(fresh, *program);

    Machine reused;
    ASSERT_TRUE(reused.load_program(*program).ok());
    Snapshot snap;
    reused.save_state(snap);
    expect_same_observation(observe_run(reused, *program), golden,
                            test.name + " first");
    reused.restore_state(snap);
    expect_same_observation(observe_run(reused, *program), golden,
                            test.name + " restored");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotTortureSeed,
                         ::testing::Values(101u, 202u, 303u));

TEST(WorkerVm, PrepareYieldsIdenticalRunsAndCountsStats) {
  auto program = assemble_or_die(kHelloSource);
  auto vm = WorkerVm::create(MachineConfig{}, program);
  ASSERT_TRUE(vm.ok());

  const RunObservation first = observe_run((*vm)->prepare(), program);
  ASSERT_TRUE(first.result.normal_exit());
  const RunObservation second = observe_run((*vm)->prepare(), program);
  expect_same_observation(second, first, "worker vm");
  EXPECT_EQ((*vm)->stats().snapshots, 1u);
  EXPECT_EQ((*vm)->stats().restores, 2u);
}

// --------------------------------------------------------------------------
// Restore precision: a restore drops exactly the translations whose source
// bytes it changes, so a block survives iff its bytes equal the snapshot's.

// Stores a marker to a data word on the code's page, exits 7.
const char* kSharedPageSource = R"(
_start:
    la t2, mark
    li t3, 0x1234
    sw t3, 0(t2)
    li a0, 7
    li a7, 93
    ecall
mark:
    .word 0
)";

// Two counted loops and a store to a data word on the code's page.
const char* kTwoLoopSource = R"(
_start:
    li t0, 100
    li a0, 0
loop1:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop1
    li t0, 100
loop2:
    addi a0, a0, 2
    addi t0, t0, -1
    bnez t0, loop2
    la t1, out
    sw a0, 0(t1)
    li a7, 93
    ecall
out:
    .word 0
)";

u32 symbol_or_die(const assembler::Program& program, const char* name) {
  auto address = program.symbol(name);
  EXPECT_TRUE(address.ok()) << name;
  return address.ok() ? *address : 0;
}

u32 page_of(u32 address) { return address / kRamPageBytes; }

TEST(RestorePrecision, DataOnlyRunOnSharedCodePageKeepsEveryBlock) {
  const auto program = assemble_or_die(kSharedPageSource);
  ASSERT_EQ(page_of(symbol_or_die(program, "mark")), page_of(program.entry));
  auto vm = WorkerVm::create(MachineConfig{}, program);
  ASSERT_TRUE(vm.ok());
  const RunObservation first = observe_run((*vm)->prepare(), program);
  ASSERT_TRUE(first.result.normal_exit());
  const TbCache& cache = (*vm)->machine().tb_cache();
  const std::size_t blocks = cache.size();
  ASSERT_GT(blocks, 0u);

  // The store to `mark` dirtied the code page; no code byte changed.
  Machine& machine = (*vm)->prepare();
  EXPECT_EQ((*vm)->stats().pages_copied, 1u);
  EXPECT_EQ((*vm)->stats().tb_blocks_invalidated, 0u);
  EXPECT_EQ(cache.size(), blocks);
  const u64 misses = cache.lookup_misses();
  expect_same_observation(observe_run(machine, program), first, "warm");
  EXPECT_EQ(cache.lookup_misses(), misses);  // nothing retranslated
}

TEST(RestorePrecision, MutationPatchDropsOnlyTheBlocksOverIt) {
  const auto program = assemble_or_die(kTwoLoopSource);
  const u32 loop1 = symbol_or_die(program, "loop1");
  const u32 loop2 = symbol_or_die(program, "loop2");
  ASSERT_EQ(page_of(symbol_or_die(program, "out")), page_of(loop2));
  Machine fresh;
  auto golden = run_golden(fresh, program);
  ASSERT_TRUE(golden.ok());

  auto vm = WorkerVm::create(MachineConfig{}, program);
  ASSERT_TRUE(vm.ok());
  const RunObservation first = observe_run((*vm)->prepare(), program);
  const TbCache& cache = (*vm)->machine().tb_cache();
  // _start (running into loop1), loop1, the block running into loop2,
  // loop2, and the exit block.
  const std::size_t blocks = cache.size();
  ASSERT_EQ(blocks, 5u);

  // addi a0, a0, 2 -> addi a0, a0, 3 at loop2 (immediate in bits 31:20):
  // the patched blocks keep their shape.
  mutation::Mutant mutant;
  mutant.address = loop2;
  mutant.original = read_word((*vm)->machine(), loop2);
  mutant.mutated = mutant.original + (u32{1} << 20);
  const mutation::MutationModel model(program, mutation::MutationConfig{});
  Machine& machine = (*vm)->prepare();
  const u64 severs = cache.chain_severs();
  const u64 misses = cache.lookup_misses();
  auto killed = model.run_one(machine, mutant, *golden);
  ASSERT_TRUE(killed.ok());
  EXPECT_EQ(killed->verdict, mutation::Verdict::kKilledResult);
  // The patch re-lowered the two blocks over it in place: the fall-through
  // block that runs into loop2 and loop2's own block. Nothing was dropped
  // or translated again, and every chain link stayed.
  EXPECT_EQ(cache.invalidated_blocks(), 0u);
  EXPECT_EQ(cache.relowered_blocks(), 2u);
  EXPECT_EQ(cache.size(), blocks);
  EXPECT_EQ(cache.lookup_misses(), misses);
  EXPECT_EQ(cache.chain_severs(), severs);

  // The restore puts back the original addi and the `out` word: it
  // re-lowers the same two blocks and drops nothing.
  (*vm)->prepare();
  EXPECT_EQ((*vm)->stats().tb_blocks_invalidated, 0u);
  EXPECT_EQ((*vm)->stats().tb_blocks_relowered, 2u);
  EXPECT_EQ(cache.size(), blocks);
  EXPECT_NE((*vm)->machine().tb_cache().lookup(program.entry), nullptr);
  EXPECT_NE((*vm)->machine().tb_cache().lookup(loop1), nullptr);
  EXPECT_NE((*vm)->machine().tb_cache().lookup(loop2), nullptr);
  const u64 restored_misses = cache.lookup_misses();
  expect_same_observation(observe_run(machine, program), first, "restored");
  EXPECT_EQ(cache.lookup_misses(), restored_misses);  // every lookup hit
  EXPECT_EQ(cache.chain_severs(), severs);

  // ebreak over the addi ends the fall-through block at loop2: a new
  // shape, so the patch drops exactly the two blocks over it. The run
  // stops at the ebreak, and the restore drops the block translated up to
  // it.
  mutation::Mutant cut = mutant;
  cut.mutated = 0x0010'0073u;  // ebreak
  Machine& again = (*vm)->prepare();
  auto crashed = model.run_one(again, cut, *golden);
  ASSERT_TRUE(crashed.ok());
  EXPECT_EQ(crashed->verdict, mutation::Verdict::kKilledCrash);
  EXPECT_EQ(cache.invalidated_blocks(), 2u);
  EXPECT_EQ(cache.relowered_blocks(), 4u);  // the patch's and the restore's
  (*vm)->prepare();
  EXPECT_EQ((*vm)->stats().tb_blocks_invalidated, 1u);
  EXPECT_EQ((*vm)->stats().tb_blocks_relowered, 2u);
  expect_same_observation(observe_run(again, program), first, "reshaped");
  EXPECT_EQ(cache.size(), blocks);
}

// Exit callback of a plugin that undoes its code patch when the run ends:
// the original bytes go back, and the code change is queued for the TB
// cache. A budget stop leaves that request pending.
struct PatchUndo {
  u32 address = 0;
  u32 original = 0;
};

void undo_patch_at_exit(void* userdata, s4e_vm* vm, int) {
  const auto* undo = static_cast<const PatchUndo*>(userdata);
  ASSERT_EQ(s4e_write_mem(vm, undo->address, &undo->original, 4), 0);
  s4e_invalidate_tb_range(vm, undo->address, 4);
}

TEST(RestorePrecision, InvalidationPendingAtBudgetStopIsApplied) {
  const auto program = assemble_or_die(kTwoLoopSource);
  Machine fresh;
  ASSERT_TRUE(fresh.load_program(program).ok());
  const RunObservation golden = observe_run(fresh, program);

  Machine machine;
  ASSERT_TRUE(machine.load_program(program).ok());
  Snapshot snap;
  machine.save_state(snap);
  PatchUndo undo{symbol_or_die(program, "loop2"), 0};
  undo.original = read_word(machine, undo.address);
  write_word(machine, undo.address, undo.original + (u32{1} << 20));
  machine.code_changed(undo.address, 4);
  machine.add_exit_cb(&undo_patch_at_exit, &undo);
  // Stop inside loop2, after its patched translation ran.
  const RunResult stopped = machine.run(golden.result.instructions - 20);
  ASSERT_EQ(stopped.reason, StopReason::kMaxInstructions);
  EXPECT_EQ(read_word(machine, undo.address), undo.original);

  // RAM at loop2 already equals the snapshot, so only the pending request
  // can replace the patched translations.
  machine.clear_plugins();
  machine.restore_state(snap);
  expect_same_observation(observe_run(machine, program), golden, "restored");
}

// A block cut before a parcel it could not decode covers that parcel: once
// a restore makes the parcel decodable again, the short block is dropped
// and the next run dispatches the same blocks (and icache probes) as a
// fresh machine.
void expect_cut_block_dropped_on_restore(const char* source,
                                         const std::string& label) {
  const auto program = assemble_or_die(source);
  const u32 head = symbol_or_die(program, "head");
  const u32 cut = symbol_or_die(program, "cut");
  MachineConfig config;
  config.timing.icache_miss_cycles = 10;
  Machine fresh(config);
  ASSERT_TRUE(fresh.load_program(program).ok());
  const RunObservation golden = observe_run(fresh, program);
  ASSERT_TRUE(golden.result.normal_exit()) << label;

  Machine machine(config);
  ASSERT_TRUE(machine.load_program(program).ok());
  Snapshot snap;
  machine.save_state(snap);
  write_word(machine, cut, 0);  // 0x0000 is an illegal compressed parcel
  const RunResult trapped = machine.run();
  ASSERT_EQ(trapped.reason, StopReason::kTrapUnhandled) << label;
  const TranslationBlock* cut_block = machine.tb_cache().lookup(head);
  ASSERT_NE(cut_block, nullptr) << label;
  ASSERT_EQ(cut_block->end(), cut) << label;

  machine.restore_state(snap);
  EXPECT_EQ(machine.tb_cache().lookup(head), nullptr) << label;
  expect_same_observation(observe_run(machine, program), golden, label);
}

const char* kCutSamePage = R"(
_start:
head:
    li a0, 0
    addi a0, a0, 1
cut:
    addi a0, a0, 2
    li a7, 93
    ecall
)";

// The parcel opens the next page: the restore never touches the cut
// block's own page, only the cut extent reaches it.
const char* kCutNextPage = R"(
_start:
    j head
    .space 1012
head:
    li a0, 0
    addi a0, a0, 1
cut:
    addi a0, a0, 2
    li a7, 93
    ecall
)";

TEST(RestorePrecision, CutBlockDroppedWhenItsParcelIsRestored) {
  expect_cut_block_dropped_on_restore(kCutSamePage, "same page");
  const auto next_page = assemble_or_die(kCutNextPage);
  ASSERT_EQ(symbol_or_die(next_page, "cut") % kRamPageBytes, 0u);
  expect_cut_block_dropped_on_restore(kCutNextPage, "next page");
}

// --------------------------------------------------------------------------
// Campaign engines: the reused worker machines must match a fresh machine
// per mutant bit for bit (jobs = 1, then two lanes).

const char* kCampaignSource = R"(
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
    .word 3, 1, 4, 1, 5, 9, 2, 6
)";

TEST(CampaignReuse, FaultCampaignMatchesFreshMachines) {
  auto program = assemble_or_die(kCampaignSource);
  fault::CampaignConfig config;
  config.seed = 77;
  config.mutant_count = 120;
  config.jobs = 1;

  fault::Campaign reused(program, config);
  auto reused_result = reused.run();
  ASSERT_TRUE(reused_result.ok()) << reused_result.error().to_string();
  test_support::expect_matches_fresh(fault::FaultModel(program, config),
                                     *reused_result);
  // The campaign snapshots once and restores per mutant it runs: a fault
  // dead at its trigger is reported from the golden recording.
  const SnapshotStats& stats = reused_result->snapshot_stats;
  EXPECT_EQ(stats.snapshots, 1u);
  EXPECT_GT(stats.dead_skipped, 0u);
  EXPECT_EQ(stats.restores + stats.dead_skipped, 120u);
}

TEST(CampaignReuse, MutationCampaignMatchesFreshMachines) {
  auto program = assemble_or_die(kCampaignSource);
  mutation::MutationConfig config;
  config.jobs = 1;

  mutation::MutationCampaign reused(program, config);
  auto reused_score = reused.run();
  ASSERT_TRUE(reused_score.ok()) << reused_score.error().to_string();
  ASSERT_GT(reused_score->results.size(), 0u);
  test_support::expect_matches_fresh(
      mutation::MutationModel(program, config), *reused_score);
  EXPECT_EQ(reused_score->snapshot_stats.restores,
            reused_score->results.size());
}

// Two worker lanes build, map and unmap their machines and snapshot images
// concurrently (the race surface `ctest -L tsan` checks). Each lane's one
// capture copies exactly the program's pages, summed across lanes.
TEST(CampaignReuse, TwoLaneCampaignsMatchFreshMachines) {
  auto program = assemble_or_die(kCampaignSource);
  const u64 pages = program_pages(program, MachineConfig{}.ram_base);

  fault::CampaignConfig fault_config;
  fault_config.seed = 77;
  fault_config.mutant_count = 80;
  fault_config.jobs = 2;
  auto reused_faults = fault::Campaign(program, fault_config).run();
  ASSERT_TRUE(reused_faults.ok()) << reused_faults.error().to_string();
  test_support::expect_matches_fresh(fault::FaultModel(program, fault_config),
                                     *reused_faults);
  const SnapshotStats& fault_stats = reused_faults->snapshot_stats;
  EXPECT_GE(fault_stats.snapshots, 1u);
  EXPECT_EQ(fault_stats.pages_saved, fault_stats.snapshots * pages);

  mutation::MutationConfig mutation_config;
  mutation_config.jobs = 2;
  auto reused_score =
      mutation::MutationCampaign(program, mutation_config).run();
  ASSERT_TRUE(reused_score.ok()) << reused_score.error().to_string();
  test_support::expect_matches_fresh(
      mutation::MutationModel(program, mutation_config), *reused_score);
  const SnapshotStats& mutation_stats = reused_score->snapshot_stats;
  EXPECT_GE(mutation_stats.snapshots, 1u);
  EXPECT_EQ(mutation_stats.pages_saved, mutation_stats.snapshots * pages);
}

// Reused worker machines take the same cycles as fresh ones under the
// timing models that see block boundaries (icache) and branch history
// (predictor), for mutation and fault items alike — over torture programs
// and one whose .text spans two pages.
class ReuseCycles : public ::testing::TestWithParam<int> {};

MachineConfig reuse_cycles_config(int param) {
  MachineConfig config;
  if (param == 0) {
    config.timing.icache_miss_cycles = 10;
  } else {
    config.timing.branch_predictor = true;
  }
  return config;
}

TEST_P(ReuseCycles, ReusedWorkerVmMatchesFreshMachineCycles) {
  const MachineConfig machine = reuse_cycles_config(GetParam());
  std::vector<testgen::GeneratedProgram> tests;
  for (const unsigned segments : {24u, 60u}) {
    testgen::TortureConfig torture;
    torture.seed = 404;
    torture.programs = segments == 24 ? 2 : 1;
    torture.segments = segments;
    torture.use_csr = false;
    for (auto& test : testgen::torture_suite(torture)) {
      tests.push_back(std::move(test));
    }
  }
  bool two_page_text = false;
  for (const auto& test : tests) {
    const auto program = assemble_or_die(test.source.c_str());
    const assembler::Section* text = program.find_section(".text");
    ASSERT_NE(text, nullptr) << test.name;
    two_page_text |= page_of(text->base) != page_of(text->end() - 1);

    mutation::MutationConfig mutation_config;
    mutation_config.machine = machine;
    mutation_config.max_mutants = 300;
    test_support::expect_reuse_matches_fresh_cycles(
        mutation::MutationModel(program, mutation_config),
        test.name + " mutation");

    fault::CampaignConfig fault_config;
    fault_config.machine = machine;
    fault_config.seed = 5;
    fault_config.mutant_count = 300;
    test_support::expect_reuse_matches_fresh_cycles(
        fault::FaultModel(program, fault_config), test.name + " fault");
  }
  EXPECT_TRUE(two_page_text);
}

INSTANTIATE_TEST_SUITE_P(
    Timing, ReuseCycles, ::testing::Values(0, 1),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(info.param == 0 ? "Icache" : "BranchPredictor");
    });

}  // namespace
}  // namespace s4e::vp
