// Machine-mode CSR address map (the subset a bare-metal edge workload and
// the trap model need) plus name <-> address translation.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "common/bits.hpp"

namespace s4e::isa {

// 12-bit CSR addresses (RISC-V privileged spec, machine mode).
enum Csr : u16 {
  kCsrMstatus = 0x300,
  kCsrMisa = 0x301,
  kCsrMie = 0x304,
  kCsrMtvec = 0x305,
  kCsrMscratch = 0x340,
  kCsrMepc = 0x341,
  kCsrMcause = 0x342,
  kCsrMtval = 0x343,
  kCsrMip = 0x344,
  kCsrMcycle = 0xb00,
  kCsrMinstret = 0xb02,
  kCsrMcycleh = 0xb80,
  kCsrMinstreth = 0xb82,
  kCsrCycle = 0xc00,
  kCsrTime = 0xc01,
  kCsrInstret = 0xc02,
  kCsrCycleh = 0xc80,
  kCsrTimeh = 0xc81,
  kCsrInstreth = 0xc82,
  kCsrMvendorid = 0xf11,
  kCsrMarchid = 0xf12,
  kCsrMimpid = 0xf13,
  kCsrMhartid = 0xf14,
};

// Name for a known CSR address; nullopt for unknown ones (disassembler then
// prints the raw hex address).
std::optional<std::string_view> csr_name(u16 address) noexcept;

// Address for a CSR name ("mstatus" -> 0x300).
std::optional<u16> parse_csr(std::string_view name) noexcept;

// All CSR addresses the VP implements, in ascending order. The coverage
// metric reports CSR access coverage over this set.
const std::vector<u16>& implemented_csrs();

// True if writes to this address are architecturally ignored (read-only).
bool csr_is_read_only(u16 address) noexcept;

// True if a read of this CSR depends on when it happens: the cycle, time
// and instret counters, and mip, whose MTIP bit follows mtime.
bool csr_reads_time(u16 address) noexcept;

}  // namespace s4e::isa
