// Architectural state of the RV32IM_Zicsr machine-mode hart.
#pragma once

#include <array>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "isa/csr.hpp"
#include "isa/registers.hpp"

namespace s4e::vp {

// mstatus bits the VP implements.
inline constexpr u32 kMstatusMie = 1u << 3;
inline constexpr u32 kMstatusMpie = 1u << 7;
inline constexpr u32 kMstatusMpp = 3u << 11;  // always M (11) here

// mie/mip bits.
inline constexpr u32 kMipMtip = 1u << 7;
inline constexpr u32 kMieMtie = 1u << 7;
inline constexpr u32 kMipMsip = 1u << 3;
inline constexpr u32 kMieMsie = 1u << 3;

// mcause values.
inline constexpr u32 kCauseIllegalInstruction = 2;
inline constexpr u32 kCauseBreakpoint = 3;
inline constexpr u32 kCauseLoadMisaligned = 4;
inline constexpr u32 kCauseLoadFault = 5;
inline constexpr u32 kCauseStoreMisaligned = 6;
inline constexpr u32 kCauseStoreFault = 7;
inline constexpr u32 kCauseEcallM = 11;
inline constexpr u32 kCauseInterrupt = 0x8000'0000u;
inline constexpr u32 kCauseMachineTimer = kCauseInterrupt | 7;
inline constexpr u32 kCauseMachineSoftware = kCauseInterrupt | 3;

// Machine-mode CSR file. Counter CSRs (cycle/instret/time) are not stored
// here — the machine supplies them at read time from its own counters.
class CsrFile {
 public:
  struct CounterView {
    u64 cycles = 0;
    u64 instret = 0;
    u64 time = 0;
    u32 hartid = 0;  // mhartid of the hart doing the read
  };

  // Read with WARL/read-only semantics. Unknown addresses fail (the CPU
  // raises an illegal-instruction trap).
  Result<u32> read(u16 address, const CounterView& counters) const;

  // Write; read-only CSRs fail, WARL fields are masked.
  Status write(u16 address, u32 value);

  // Fields the trap logic manipulates directly.
  u32 mstatus = kMstatusMpp;  // MPP=M
  u32 mie = 0;
  u32 mip = 0;
  u32 mtvec = 0;
  u32 mscratch = 0;
  u32 mepc = 0;
  u32 mcause = 0;
  u32 mtval = 0;

  bool operator==(const CsrFile&) const noexcept = default;
};

struct CpuState {
  // Write masks with no bit forced: x0 keeps nothing, so it reads zero.
  static constexpr std::array<u32, isa::kGprCount> kKeepAll = [] {
    std::array<u32, isa::kGprCount> keep{};
    keep.fill(~u32{0});
    keep[0] = 0;
    return keep;
  }();

  std::array<u32, isa::kGprCount> gpr{};
  u32 pc = 0;
  CsrFile csr;
  // Stuck-at masks, applied on every register write: a write stores
  // (value & keep) | set. keep[0] = 0 hard-wires x0; a forced bit is clear
  // in `keep` and holds its value in `set` (Machine::force_gpr_bit).
  std::array<u32, isa::kGprCount> keep = kKeepAll;
  std::array<u32, isa::kGprCount> set{};

  u32 read_gpr(unsigned index) const noexcept { return gpr[index & 31]; }
  // The masks are applied behind a predicted branch on `keep`, not
  // unconditionally: in the data path they would lengthen every
  // register-to-register dependency chain by two operations (measured
  // ~10 % of chained guest MIPS).
  void write_gpr(unsigned index, u32 value) noexcept {
    index &= 31;
    if (keep[index] != ~u32{0}) [[unlikely]] {
      value = (value & keep[index]) | set[index];
    }
    gpr[index] = value;
  }
  // Force bit `bit` of x`index` to `value` from now on (index 1..31).
  void force_bit(unsigned index, unsigned bit, bool value) noexcept {
    const u32 mask = u32{1} << bit;
    keep[index] &= ~mask;
    set[index] = value ? (set[index] | mask) : (set[index] & ~mask);
    gpr[index] = (gpr[index] & keep[index]) | set[index];
  }
  void unforce() noexcept {
    keep = kKeepAll;
    set = {};
  }
};

// One hardware thread: the architectural CPU state plus the LR/SC
// reservation. The machine owns a vector of these; the *active* hart's
// CpuState is staged into the machine's hot `cpu_` member while it runs
// (so the single-hart fast path is untouched), but reservations live here
// permanently — remote stores must be able to clear any hart's reservation
// without a swap.
struct Hart {
  CpuState cpu;
  bool res_valid = false;  // LR/SC reservation armed
  u32 res_addr = 0;        // reserved word address (4-byte aligned)
};

}  // namespace s4e::vp
