// Per-instruction GPR def/use metadata, derived from the declarative OpInfo
// table: which architectural registers an instruction reads and writes, as
// 32-bit masks (bit i = xi). This is the single model the data-flow
// framework, the coverage plugin and the loop-pattern matcher share, so
// their notions of "reads rs2" / "writes rd" cannot drift apart.
//
// x0 hardwiring: writes to x0 are architectural no-ops and never appear in
// `writes`; reads of x0 are kept in `reads` (x0 is a legal, constant
// operand — consumers that exclude it from metrics mask bit 0 themselves).
//
// RVC: compressed instructions are decompressed into base-ISA `Instr`
// records before any analysis sees them (see isa/rvc.hpp), so the expansion
// is already applied and this helper needs no compressed-form cases.
#pragma once

#include "isa/instr.hpp"

namespace s4e::isa {

struct DefUse {
  u32 reads = 0;   // GPRs read (bit i = xi; bit 0 possible: x0 reads are real)
  u32 writes = 0;  // GPRs written (bit 0 never set: x0 is hardwired)
};

// Def/use masks of a decoded instruction. Non-register operand slots
// (shamt of kIShift, zimm of kCsrImm) are excluded by the OpInfo flags.
DefUse def_use(const Instr& instr) noexcept;

// True if `instr` writes GPR `reg` (always false for reg == 0).
bool writes_gpr(const Instr& instr, unsigned reg) noexcept;

}  // namespace s4e::isa
