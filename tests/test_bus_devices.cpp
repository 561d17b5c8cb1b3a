// Unit tests for the VP substrate pieces below the CPU: bus routing, the
// devices, the CSR file and the TB cache.
#include <gtest/gtest.h>

#include <vector>

#include "vp/bus.hpp"
#include "vp/cpu.hpp"
#include "vp/devices/clint.hpp"
#include "vp/devices/gpio.hpp"
#include "vp/devices/testdev.hpp"
#include "vp/devices/uart.hpp"
#include "vp/tb_cache.hpp"

namespace s4e::vp {
namespace {

Bus make_bus() {
  Bus bus(0x8000'0000, 0x1000);
  bus.add_device(Uart::kDefaultBase, Uart::kWindowSize,
                 std::make_unique<Uart>());
  return bus;
}

TEST(Bus, RamReadWriteAllSizes) {
  Bus bus = make_bus();
  ASSERT_TRUE(bus.write(0x8000'0000, 4, 0xa1b2c3d4).ok());
  EXPECT_EQ(bus.read(0x8000'0000, 4)->value, 0xa1b2c3d4u);
  EXPECT_EQ(bus.read(0x8000'0000, 2)->value, 0xc3d4u);
  EXPECT_EQ(bus.read(0x8000'0002, 2)->value, 0xa1b2u);
  EXPECT_EQ(bus.read(0x8000'0003, 1)->value, 0xa1u);
  EXPECT_FALSE(bus.read(0x8000'0000, 4)->mmio);
}

TEST(Bus, MisalignedRamAccessAllowed) {
  Bus bus = make_bus();
  ASSERT_TRUE(bus.write(0x8000'0001, 4, 0x11223344).ok());
  EXPECT_EQ(bus.read(0x8000'0001, 4)->value, 0x11223344u);
}

TEST(Bus, UnmappedAccessFails) {
  Bus bus = make_bus();
  EXPECT_FALSE(bus.read(0x0, 4).ok());
  EXPECT_FALSE(bus.write(0x4000'0000, 4, 1).ok());
  EXPECT_FALSE(bus.read(0x8000'0000 + 0x1000, 4).ok());  // just past RAM
  // Straddling the end of RAM fails too.
  EXPECT_FALSE(bus.read(0x8000'0fff, 4).ok());
}

TEST(Bus, DeviceRoutingAndMmioFlag) {
  Bus bus = make_bus();
  auto read = bus.read(Uart::kDefaultBase + Uart::kStatus, 4);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->mmio);
  auto write = bus.write(Uart::kDefaultBase + Uart::kTxData, 4, 'x');
  ASSERT_TRUE(write.ok());
  EXPECT_TRUE(*write);
}

TEST(Bus, MisalignedMmioRejected) {
  Bus bus = make_bus();
  EXPECT_FALSE(bus.read(Uart::kDefaultBase + 1, 4).ok());
  EXPECT_FALSE(bus.write(Uart::kDefaultBase + 2, 4, 0).ok());
}

TEST(Bus, RamDirectAccessSkipsDevices) {
  Bus bus = make_bus();
  u32 value = 0;
  EXPECT_FALSE(bus.ram_read(Uart::kDefaultBase, &value, 4).ok());
  EXPECT_TRUE(bus.is_ram(0x8000'0000, 4));
  EXPECT_FALSE(bus.is_ram(Uart::kDefaultBase, 4));
}

TEST(Bus, FetchRequiresRam) {
  Bus bus = make_bus();
  EXPECT_TRUE(bus.fetch_word(0x8000'0000).ok());
  EXPECT_TRUE(bus.fetch_half(0x8000'0ffe).ok());
  EXPECT_FALSE(bus.fetch_word(Uart::kDefaultBase).ok());
  EXPECT_FALSE(bus.fetch_half(0x8000'0fff).ok());
}

// Accesses at the end of RAM through every bus path: the last 1-4 bytes
// are accepted, a range straddling the end or wrapping past 2^32 is
// refused. The second bus's RAM ends exactly at 2^32. Only the direct RAM
// paths take sizes above 4.
struct EdgeAccess {
  u32 ram_base;
  u32 ram_size;
  u32 address;
  u32 size;
  bool accepted;
};

constexpr EdgeAccess kEdgeAccesses[] = {
    {0x8000'0000, 0x1000, 0x8000'0fff, 1, true},
    {0x8000'0000, 0x1000, 0x8000'0ffe, 2, true},
    {0x8000'0000, 0x1000, 0x8000'0ffc, 4, true},
    {0x8000'0000, 0x1000, 0x8000'0ffe, 4, false},  // straddles the end
    {0x8000'0000, 0x1000, 0x8000'0fff, 2, false},
    {0x8000'0000, 0x1000, 0x7fff'fffe, 4, false},  // straddles the base
    {0x8000'0000, 0x1000, 0xffff'fffe, 4, false},  // wraps past 2^32
    {0x8000'0000, 0x1000, 0x8000'0010, 0xffff'fff8, false},  // size wraps
    {0x8000'0000, 0x1000, 0x8000'0000, 0x1001, false},  // larger than RAM
    {0x8000'0000, 0x1000, 0x8000'0000, 0x1000, true},   // all of RAM
    {0x8000'0000, 0x8000'0000, 0xffff'ffff, 1, true},
    {0x8000'0000, 0x8000'0000, 0xffff'fffe, 2, true},
    {0x8000'0000, 0x8000'0000, 0xffff'fffc, 4, true},
    {0x8000'0000, 0x8000'0000, 0x8000'0000, 4, true},
    {0x8000'0000, 0x8000'0000, 0xffff'fffe, 4, false},  // wraps past 2^32
    {0x8000'0000, 0x8000'0000, 0xffff'ffff, 2, false},
    {0x8000'0000, 0x8000'0000, 0x7fff'ffff, 2, false},  // straddles the base
};

TEST(Bus, RamEdgeAccessesAcceptedOrRefused) {
  for (const EdgeAccess& row : kEdgeAccesses) {
    SCOPED_TRACE(testing::Message()
                 << std::hex << "RAM 0x" << row.ram_base << "+0x"
                 << row.ram_size << ", access 0x" << row.address << " size "
                 << std::dec << row.size);
    Bus bus(row.ram_base, row.ram_size);
    EXPECT_EQ(bus.is_ram(row.address, row.size), row.accepted);
    std::vector<u8> bytes(row.accepted ? row.size : 4, 0x5a);
    std::vector<u8> back(bytes.size());
    EXPECT_EQ(bus.ram_write(row.address, bytes.data(), row.size).ok(),
              row.accepted);
    EXPECT_EQ(bus.ram_read(row.address, back.data(), row.size).ok(),
              row.accepted);
    EXPECT_EQ(back == bytes, row.accepted);
    if (row.size > 4) continue;
    const u32 mask = row.size == 4 ? ~0u : (1u << (8 * row.size)) - 1;
    const u32 value = 0x11223344u & mask;
    EXPECT_EQ(bus.write(row.address, row.size, value).ok(), row.accepted);
    const auto read = bus.read(row.address, row.size);
    ASSERT_EQ(read.ok(), row.accepted);
    if (row.accepted) {
      EXPECT_EQ(read->value, value);
    }
    if (row.size == 2) {
      EXPECT_EQ(bus.fetch_half(row.address).ok(), row.accepted);
    }
    if (row.size == 4) {
      EXPECT_EQ(bus.fetch_word(row.address).ok(), row.accepted);
    }
  }
}

TEST(Uart, TxAccumulatesAndCounts) {
  Uart uart;
  ASSERT_TRUE(uart.write(Uart::kTxData, 4, 'h').ok());
  ASSERT_TRUE(uart.write(Uart::kTxData, 4, 'i').ok());
  EXPECT_EQ(uart.tx_log(), "hi");
  EXPECT_EQ(uart.tx_count(), 2u);
  uart.clear_tx_log();
  EXPECT_EQ(uart.tx_log(), "");
}

TEST(Uart, RxQueueSemantics) {
  Uart uart;
  EXPECT_EQ(*uart.read(Uart::kRxData, 4), 0xffff'ffffu);  // empty
  EXPECT_EQ(*uart.read(Uart::kStatus, 4) & 1u, 0u);
  uart.push_rx("ab");
  EXPECT_EQ(*uart.read(Uart::kStatus, 4) & 1u, 1u);
  EXPECT_EQ(*uart.read(Uart::kRxData, 4), u32{'a'});
  EXPECT_EQ(*uart.read(Uart::kRxData, 4), u32{'b'});
  EXPECT_EQ(*uart.read(Uart::kRxData, 4), 0xffff'ffffu);
  EXPECT_EQ(uart.rx_count(), 2u);
}

TEST(Uart, BadOffsetsRejected) {
  Uart uart;
  EXPECT_FALSE(uart.read(0x0c, 4).ok());
  EXPECT_FALSE(uart.write(Uart::kStatus, 4, 1).ok());
}

TEST(Clint, TimerComparison) {
  Clint clint;
  EXPECT_FALSE(clint.timer_pending());  // mtimecmp defaults to ~0
  ASSERT_TRUE(clint.write(Clint::kMtimecmpLo, 4, 100).ok());
  ASSERT_TRUE(clint.write(Clint::kMtimecmpHi, 4, 0).ok());
  clint.tick(99);
  EXPECT_FALSE(clint.timer_pending());
  clint.tick(100);
  EXPECT_TRUE(clint.timer_pending());
  EXPECT_EQ(*clint.read(Clint::kMtimeLo, 4), 100u);
  EXPECT_EQ(*clint.read(Clint::kMtimecmpLo, 4), 100u);
}

TEST(Clint, SixtyFourBitRegisters) {
  Clint clint;
  ASSERT_TRUE(clint.write(Clint::kMtimecmpLo, 4, 0xdeadbeef).ok());
  ASSERT_TRUE(clint.write(Clint::kMtimecmpHi, 4, 0x12).ok());
  EXPECT_EQ(clint.mtimecmp(), 0x12'dead'beefULL);
  EXPECT_FALSE(clint.read(Clint::kMtimeLo, 2).ok());  // 32-bit only
  EXPECT_FALSE(clint.write(Clint::kMtimeLo, 4, 0).ok());  // mtime read-only
}

TEST(Gpio, OutSetClearToggle) {
  Gpio gpio;
  ASSERT_TRUE(gpio.write(Gpio::kOut, 4, 0b1010).ok());
  EXPECT_EQ(gpio.out(), 0b1010u);
  ASSERT_TRUE(gpio.write(Gpio::kSet, 4, 0b0001).ok());
  EXPECT_EQ(gpio.out(), 0b1011u);
  ASSERT_TRUE(gpio.write(Gpio::kClear, 4, 0b0010).ok());
  EXPECT_EQ(gpio.out(), 0b1001u);
  ASSERT_TRUE(gpio.write(Gpio::kToggle, 4, 0b1111).ok());
  EXPECT_EQ(gpio.out(), 0b0110u);
  EXPECT_EQ(*gpio.read(Gpio::kOut, 4), 0b0110u);
}

TEST(Gpio, InputPinsHostControlled) {
  Gpio gpio;
  EXPECT_EQ(*gpio.read(Gpio::kIn, 4), 0u);
  gpio.set_in(0x55);
  EXPECT_EQ(*gpio.read(Gpio::kIn, 4), 0x55u);
}

TEST(Gpio, ChangeLogTimestampsAndDedup) {
  Gpio gpio;
  gpio.tick(100);
  ASSERT_TRUE(gpio.write(Gpio::kOut, 4, 1).ok());
  gpio.tick(150);
  ASSERT_TRUE(gpio.write(Gpio::kOut, 4, 1).ok());  // no change: not logged
  gpio.tick(200);
  ASSERT_TRUE(gpio.write(Gpio::kOut, 4, 0).ok());
  ASSERT_EQ(gpio.changes().size(), 2u);
  EXPECT_EQ(gpio.changes()[0].cycle, 100u);
  EXPECT_EQ(gpio.changes()[1].cycle, 200u);
}

TEST(Gpio, DutyCycleFromWaveform) {
  Gpio gpio;
  // pin0 high for 30 cycles, low for 70, high again (end marker).
  gpio.tick(0);
  ASSERT_TRUE(gpio.write(Gpio::kOut, 4, 1).ok());
  gpio.tick(30);
  ASSERT_TRUE(gpio.write(Gpio::kOut, 4, 0).ok());
  gpio.tick(100);
  ASSERT_TRUE(gpio.write(Gpio::kOut, 4, 1).ok());
  EXPECT_NEAR(gpio.duty_cycle(0), 0.30, 1e-9);
  // An unused pin has 0 duty.
  EXPECT_NEAR(gpio.duty_cycle(5), 0.0, 1e-9);
}

TEST(Gpio, BadAccessRejected) {
  Gpio gpio;
  EXPECT_FALSE(gpio.read(Gpio::kSet, 4).ok());    // write-only
  EXPECT_FALSE(gpio.write(Gpio::kIn, 4, 1).ok()); // read-only
  EXPECT_FALSE(gpio.read(Gpio::kOut, 2).ok());    // 32-bit only
}

TEST(TestDevice, ExitProtocol) {
  int captured = -1;
  TestDevice device([&](int code) { captured = code; });
  ASSERT_TRUE(device.write(0, 4, TestDevice::kPass).ok());
  EXPECT_EQ(captured, 0);
  ASSERT_TRUE(device.write(0, 4, (9u << 16) | TestDevice::kFailMagic).ok());
  EXPECT_EQ(captured, 9);
  captured = -1;
  ASSERT_TRUE(device.write(0, 4, 0x1234).ok());  // unrecognized: ignored
  EXPECT_EQ(captured, -1);
}

TEST(CsrFile, CountersComeFromMachine) {
  CsrFile csr;
  CsrFile::CounterView counters{1000, 500, 1000};
  EXPECT_EQ(*csr.read(isa::kCsrMcycle, counters), 1000u);
  EXPECT_EQ(*csr.read(isa::kCsrMinstret, counters), 500u);
  EXPECT_EQ(*csr.read(isa::kCsrCycle, counters), 1000u);
  EXPECT_EQ(*csr.read(isa::kCsrTime, counters), 1000u);
}

TEST(CsrFile, MstatusWarlMasking) {
  CsrFile csr;
  ASSERT_TRUE(csr.write(isa::kCsrMstatus, 0xffff'ffff).ok());
  // Only MIE/MPIE stick; MPP stays M.
  EXPECT_EQ(csr.mstatus, (kMstatusMie | kMstatusMpie | kMstatusMpp));
}

TEST(CsrFile, ReadOnlyCsrsRejectWrites) {
  CsrFile csr;
  EXPECT_FALSE(csr.write(isa::kCsrMhartid, 1).ok());
  EXPECT_FALSE(csr.write(isa::kCsrCycle, 1).ok());
  CsrFile::CounterView counters{};
  EXPECT_EQ(*csr.read(isa::kCsrMhartid, counters), 0u);
}

TEST(CsrFile, UnknownCsrFails) {
  CsrFile csr;
  CsrFile::CounterView counters{};
  EXPECT_FALSE(csr.read(0x123, counters).ok());
  EXPECT_FALSE(csr.write(0x123, 1).ok());
}

TEST(CsrFile, MepcAlignment) {
  CsrFile csr;
  ASSERT_TRUE(csr.write(isa::kCsrMepc, 0x8000'0003).ok());
  EXPECT_EQ(csr.mepc, 0x8000'0002u);  // bit 0 cleared (IALIGN=16)
}

TEST(TbCache, InsertLookupFlush) {
  TbCache cache;
  auto block = std::make_unique<TranslationBlock>();
  block->start = 0x8000'0000;
  block->byte_size = 16;
  cache.insert(std::move(block));
  EXPECT_NE(cache.lookup(0x8000'0000), nullptr);
  EXPECT_EQ(cache.lookup(0x8000'0004), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  cache.flush();
  EXPECT_EQ(cache.lookup(0x8000'0000), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.flush_count(), 1u);
  EXPECT_EQ(cache.chain_severs(), 1u);
  // Flushing the now-empty cache drops nothing, so counts nothing.
  cache.flush();
  EXPECT_EQ(cache.flush_count(), 1u);
  EXPECT_EQ(cache.chain_severs(), 1u);
}

TEST(TbCache, WatermarkOverlapDetection) {
  TbCache cache;
  auto block = std::make_unique<TranslationBlock>();
  block->start = 0x8000'0100;
  block->byte_size = 0x40;
  cache.insert(std::move(block));
  EXPECT_TRUE(cache.overlaps_code(0x8000'0100, 4));
  EXPECT_TRUE(cache.overlaps_code(0x8000'013c, 4));
  EXPECT_TRUE(cache.overlaps_code(0x8000'00fe, 4));  // straddles the start
  EXPECT_FALSE(cache.overlaps_code(0x8000'0140, 4)); // just past the end
  EXPECT_FALSE(cache.overlaps_code(0x8000'00f0, 4));
  // Empty cache never overlaps.
  cache.flush();
  EXPECT_FALSE(cache.overlaps_code(0x8000'0100, 4));
}

}  // namespace
}  // namespace s4e::vp
