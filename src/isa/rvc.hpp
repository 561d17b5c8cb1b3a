// RV32C (compressed) support: 16-bit encodings are decompressed into the
// equivalent base instruction (the standard implementation technique, and
// what QEMU does), so the emulator, timing model, coverage metric and CFG
// all keep operating on the base ISA. The compressor is the emit-side
// inverse used by the assembler's `compress` option; it deliberately never
// compresses control flow, which keeps instruction sizes independent of
// label distances (no relaxation fixpoint needed).
#pragma once

#include <optional>

#include "common/status.hpp"
#include "isa/instr.hpp"

namespace s4e::isa {

// True if `half` is a 16-bit (compressed) encoding (low two bits != 11).
constexpr bool is_compressed(u16 half) { return (half & 0x3) != 0x3; }

// Expand one RVC halfword into its base-ISA equivalent (length = 2,
// raw = half). Fails on illegal/reserved encodings and on RV64-only ones.
Result<Instr> decompress(u16 half);

// Decode one instruction parcel: decompress `bits` if its low halfword is
// an RVC encoding (the upper half is ignored), else decode it as a 32-bit
// word. Callers fetch the upper half only when is_compressed() says so.
Result<Instr> decode_parcel(u32 bits);

// Produce the RVC encoding for `instr` if one exists within the supported
// emit subset (ALU, loads/stores, li/lui — never branches or jumps).
std::optional<u16> compress(const Instr& instr);

}  // namespace s4e::isa
