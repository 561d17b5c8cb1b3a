#include "isa/rvc.hpp"

#include "common/strings.hpp"
#include "isa/decoder.hpp"
#include "isa/encoder.hpp"

namespace s4e::isa {

namespace {

// Field helpers over the 16-bit encoding.
constexpr u32 bits(u16 half, unsigned lo, unsigned width) {
  return extract_bits(half, lo, width);
}

// x8..x15 register prime (3-bit) fields.
constexpr unsigned prime(u32 field3) { return 8 + field3; }
constexpr bool is_prime(unsigned reg) { return reg >= 8 && reg <= 15; }

Error illegal(u16 half) {
  return Error(ErrorCode::kEncodingError,
               format("illegal RVC encoding 0x%04x", half));
}

Instr with_len2(Instr instr, u16 half) {
  instr.length = 2;
  instr.raw = half;
  return instr;
}

// CJ-format immediate: imm[11|4|9:8|10|6|7|3:1|5] at bits [12|11|10:9|8|7|6|5:3|2].
i32 cj_imm(u16 half) {
  u32 imm = 0;
  imm = insert_bits(imm, 11, 1, bits(half, 12, 1));
  imm = insert_bits(imm, 4, 1, bits(half, 11, 1));
  imm = insert_bits(imm, 8, 2, bits(half, 9, 2));
  imm = insert_bits(imm, 10, 1, bits(half, 8, 1));
  imm = insert_bits(imm, 6, 1, bits(half, 7, 1));
  imm = insert_bits(imm, 7, 1, bits(half, 6, 1));
  imm = insert_bits(imm, 1, 3, bits(half, 3, 3));
  imm = insert_bits(imm, 5, 1, bits(half, 2, 1));
  return sign_extend(imm, 12);
}

// CB-format branch immediate: imm[8|4:3] at [12|11:10], imm[7:6|2:1|5] at [6:5|4:3|2].
i32 cb_imm(u16 half) {
  u32 imm = 0;
  imm = insert_bits(imm, 8, 1, bits(half, 12, 1));
  imm = insert_bits(imm, 3, 2, bits(half, 10, 2));
  imm = insert_bits(imm, 6, 2, bits(half, 5, 2));
  imm = insert_bits(imm, 1, 2, bits(half, 3, 2));
  imm = insert_bits(imm, 5, 1, bits(half, 2, 1));
  return sign_extend(imm, 9);
}

// CI-format 6-bit signed immediate: imm[5] at bit 12, imm[4:0] at bits 6:2.
i32 ci_imm(u16 half) {
  return sign_extend((bits(half, 12, 1) << 5) | bits(half, 2, 5), 6);
}

}  // namespace

Result<Instr> decode_parcel(u32 bits) {
  const u16 half = static_cast<u16>(bits);
  if (is_compressed(half)) return decompress(half);
  return decoder().decode(bits);
}

Result<Instr> decompress(u16 half) {
  if (!is_compressed(half)) {
    return Error(ErrorCode::kInvalidArgument,
                 format("0x%04x is a 32-bit encoding", half));
  }
  if (half == 0) return illegal(half);  // defined illegal instruction

  const unsigned quadrant = half & 0x3;
  const unsigned funct3 = bits(half, 13, 3);
  const unsigned rd_full = bits(half, 7, 5);
  const unsigned rs2_full = bits(half, 2, 5);

  switch (quadrant) {
    case 0: {
      const unsigned rd_p = prime(bits(half, 2, 3));
      const unsigned rs1_p = prime(bits(half, 7, 3));
      switch (funct3) {
        case 0b000: {  // c.addi4spn
          u32 imm = 0;
          imm = insert_bits(imm, 4, 2, bits(half, 11, 2));
          imm = insert_bits(imm, 6, 4, bits(half, 7, 4));
          imm = insert_bits(imm, 2, 1, bits(half, 6, 1));
          imm = insert_bits(imm, 3, 1, bits(half, 5, 1));
          if (imm == 0) return illegal(half);
          return with_len2(make_i(Op::kAddi, rd_p, 2, static_cast<i32>(imm)),
                           half);
        }
        case 0b010: {  // c.lw
          u32 imm = 0;
          imm = insert_bits(imm, 3, 3, bits(half, 10, 3));
          imm = insert_bits(imm, 2, 1, bits(half, 6, 1));
          imm = insert_bits(imm, 6, 1, bits(half, 5, 1));
          return with_len2(make_i(Op::kLw, rd_p, rs1_p, static_cast<i32>(imm)),
                           half);
        }
        case 0b110: {  // c.sw
          u32 imm = 0;
          imm = insert_bits(imm, 3, 3, bits(half, 10, 3));
          imm = insert_bits(imm, 2, 1, bits(half, 6, 1));
          imm = insert_bits(imm, 6, 1, bits(half, 5, 1));
          return with_len2(make_s(Op::kSw, rs1_p, rd_p, static_cast<i32>(imm)),
                           half);
        }
        default:
          return illegal(half);
      }
    }
    case 1: {
      switch (funct3) {
        case 0b000:  // c.nop / c.addi
          return with_len2(make_i(Op::kAddi, rd_full, rd_full, ci_imm(half)),
                           half);
        case 0b001:  // c.jal (RV32)
          return with_len2(make_j(Op::kJal, 1, cj_imm(half)), half);
        case 0b010:  // c.li
          return with_len2(make_i(Op::kAddi, rd_full, 0, ci_imm(half)), half);
        case 0b011: {
          if (rd_full == 2) {  // c.addi16sp
            u32 imm = 0;
            imm = insert_bits(imm, 9, 1, bits(half, 12, 1));
            imm = insert_bits(imm, 4, 1, bits(half, 6, 1));
            imm = insert_bits(imm, 6, 1, bits(half, 5, 1));
            imm = insert_bits(imm, 8, 2, bits(half, 3, 2));
            imm = insert_bits(imm, 5, 1, bits(half, 2, 1));
            const i32 value = sign_extend(imm, 10);
            if (value == 0) return illegal(half);
            return with_len2(make_i(Op::kAddi, 2, 2, value), half);
          }
          // c.lui
          const i32 imm = ci_imm(half);
          if (imm == 0 || rd_full == 0) return illegal(half);
          return with_len2(
              make_u(Op::kLui, rd_full, static_cast<i32>(imm << 12)), half);
        }
        case 0b100: {
          const unsigned rd_p = prime(bits(half, 7, 3));
          const unsigned rs2_p = prime(bits(half, 2, 3));
          switch (bits(half, 10, 2)) {
            case 0b00: {  // c.srli
              const unsigned shamt =
                  (bits(half, 12, 1) << 5) | bits(half, 2, 5);
              if (shamt >= 32) return illegal(half);  // RV32 reserved
              return with_len2(make_shift(Op::kSrli, rd_p, rd_p, shamt), half);
            }
            case 0b01: {  // c.srai
              const unsigned shamt =
                  (bits(half, 12, 1) << 5) | bits(half, 2, 5);
              if (shamt >= 32) return illegal(half);
              return with_len2(make_shift(Op::kSrai, rd_p, rd_p, shamt), half);
            }
            case 0b10:  // c.andi
              return with_len2(make_i(Op::kAndi, rd_p, rd_p, ci_imm(half)),
                               half);
            case 0b11: {
              if (bits(half, 12, 1) != 0) return illegal(half);  // RV64 ops
              static constexpr Op kOps[] = {Op::kSub, Op::kXor, Op::kOr,
                                            Op::kAnd};
              return with_len2(
                  make_r(kOps[bits(half, 5, 2)], rd_p, rd_p, rs2_p), half);
            }
          }
          return illegal(half);
        }
        case 0b101:  // c.j
          return with_len2(make_j(Op::kJal, 0, cj_imm(half)), half);
        case 0b110:  // c.beqz
          return with_len2(
              make_b(Op::kBeq, prime(bits(half, 7, 3)), 0, cb_imm(half)),
              half);
        case 0b111:  // c.bnez
          return with_len2(
              make_b(Op::kBne, prime(bits(half, 7, 3)), 0, cb_imm(half)),
              half);
      }
      return illegal(half);
    }
    case 2: {
      switch (funct3) {
        case 0b000: {  // c.slli
          const unsigned shamt = (bits(half, 12, 1) << 5) | bits(half, 2, 5);
          if (shamt >= 32 || rd_full == 0) return illegal(half);
          return with_len2(make_shift(Op::kSlli, rd_full, rd_full, shamt),
                           half);
        }
        case 0b010: {  // c.lwsp
          if (rd_full == 0) return illegal(half);
          u32 imm = 0;
          imm = insert_bits(imm, 5, 1, bits(half, 12, 1));
          imm = insert_bits(imm, 2, 3, bits(half, 4, 3));
          imm = insert_bits(imm, 6, 2, bits(half, 2, 2));
          return with_len2(
              make_i(Op::kLw, rd_full, 2, static_cast<i32>(imm)), half);
        }
        case 0b100: {
          if (bits(half, 12, 1) == 0) {
            if (rs2_full == 0) {  // c.jr
              if (rd_full == 0) return illegal(half);
              return with_len2(make_i(Op::kJalr, 0, rd_full, 0), half);
            }
            // c.mv
            if (rd_full == 0) return illegal(half);
            return with_len2(make_r(Op::kAdd, rd_full, 0, rs2_full), half);
          }
          if (rd_full == 0 && rs2_full == 0) {  // c.ebreak
            return with_len2(make_system(Op::kEbreak), half);
          }
          if (rs2_full == 0) {  // c.jalr
            return with_len2(make_i(Op::kJalr, 1, rd_full, 0), half);
          }
          // c.add
          return with_len2(make_r(Op::kAdd, rd_full, rd_full, rs2_full),
                           half);
        }
        case 0b110: {  // c.swsp
          u32 imm = 0;
          imm = insert_bits(imm, 2, 4, bits(half, 9, 4));
          imm = insert_bits(imm, 6, 2, bits(half, 7, 2));
          return with_len2(
              make_s(Op::kSw, 2, rs2_full, static_cast<i32>(imm)), half);
        }
        default:
          return illegal(half);
      }
    }
  }
  return illegal(half);
}

// ---------------------------------------------------------------------------
// Compression (emit side).

namespace {

u16 ci_encode(unsigned funct3, unsigned quadrant, unsigned rd, i32 imm6) {
  u16 half = static_cast<u16>(quadrant);
  half = static_cast<u16>(insert_bits(half, 13, 3, funct3));
  half = static_cast<u16>(insert_bits(half, 7, 5, rd));
  half = static_cast<u16>(insert_bits(half, 12, 1,
                                      extract_bits(static_cast<u32>(imm6), 5, 1)));
  half = static_cast<u16>(insert_bits(half, 2, 5,
                                      extract_bits(static_cast<u32>(imm6), 0, 5)));
  return half;
}

std::optional<u16> compress_alu_ca(const Instr& instr) {
  // c.sub / c.xor / c.or / c.and: rd == rs1, both prime.
  unsigned funct2;
  switch (instr.op) {
    case Op::kSub: funct2 = 0b00; break;
    case Op::kXor: funct2 = 0b01; break;
    case Op::kOr: funct2 = 0b10; break;
    case Op::kAnd: funct2 = 0b11; break;
    default: return std::nullopt;
  }
  unsigned rd = instr.rd;
  unsigned rs2 = instr.rs2;
  if (rd != instr.rs1) {
    // Commutative ops may swap sources.
    const bool commutative = instr.op != Op::kSub;
    if (commutative && rd == instr.rs2) {
      rs2 = instr.rs1;
    } else {
      return std::nullopt;
    }
  }
  if (!is_prime(rd) || !is_prime(rs2)) return std::nullopt;
  u16 half = 0b01;
  half = static_cast<u16>(insert_bits(half, 13, 3, 0b100));
  half = static_cast<u16>(insert_bits(half, 10, 2, 0b11));
  half = static_cast<u16>(insert_bits(half, 7, 3, rd - 8));
  half = static_cast<u16>(insert_bits(half, 5, 2, funct2));
  half = static_cast<u16>(insert_bits(half, 2, 3, rs2 - 8));
  return half;
}

}  // namespace

std::optional<u16> compress(const Instr& instr) {
  switch (instr.op) {
    case Op::kAddi: {
      // c.nop
      if (instr.rd == 0 && instr.rs1 == 0 && instr.imm == 0) {
        return u16{0x0001};
      }
      // c.li: addi rd, x0, imm6
      if (instr.rs1 == 0 && instr.rd != 0 && fits_signed(instr.imm, 6)) {
        return ci_encode(0b010, 0b01, instr.rd, instr.imm);
      }
      // c.addi: addi rd, rd, imm6 (imm != 0)
      if (instr.rd == instr.rs1 && instr.rd != 0 && instr.imm != 0 &&
          fits_signed(instr.imm, 6)) {
        return ci_encode(0b000, 0b01, instr.rd, instr.imm);
      }
      // c.addi16sp: addi sp, sp, imm (16-aligned, 10-bit)
      if (instr.rd == 2 && instr.rs1 == 2 && instr.imm != 0 &&
          instr.imm % 16 == 0 && fits_signed(instr.imm, 10)) {
        const u32 imm = static_cast<u32>(instr.imm);
        u16 half = 0b01;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b011));
        half = static_cast<u16>(insert_bits(half, 7, 5, 2));
        half = static_cast<u16>(insert_bits(half, 12, 1, extract_bits(imm, 9, 1)));
        half = static_cast<u16>(insert_bits(half, 6, 1, extract_bits(imm, 4, 1)));
        half = static_cast<u16>(insert_bits(half, 5, 1, extract_bits(imm, 6, 1)));
        half = static_cast<u16>(insert_bits(half, 3, 2, extract_bits(imm, 7, 2)));
        half = static_cast<u16>(insert_bits(half, 2, 1, extract_bits(imm, 5, 1)));
        return half;
      }
      // c.addi4spn: addi rd', sp, uimm (4-aligned, 10-bit unsigned, != 0)
      if (instr.rs1 == 2 && is_prime(instr.rd) && instr.imm > 0 &&
          instr.imm % 4 == 0 && instr.imm < 1024) {
        const u32 imm = static_cast<u32>(instr.imm);
        u16 half = 0b00;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b000));
        half = static_cast<u16>(insert_bits(half, 2, 3, instr.rd - 8));
        half = static_cast<u16>(insert_bits(half, 11, 2, extract_bits(imm, 4, 2)));
        half = static_cast<u16>(insert_bits(half, 7, 4, extract_bits(imm, 6, 4)));
        half = static_cast<u16>(insert_bits(half, 6, 1, extract_bits(imm, 2, 1)));
        half = static_cast<u16>(insert_bits(half, 5, 1, extract_bits(imm, 3, 1)));
        return half;
      }
      return std::nullopt;
    }
    case Op::kLui: {
      const i32 upper = instr.imm >> 12;
      if (instr.rd != 0 && instr.rd != 2 && upper != 0 &&
          fits_signed(upper, 6)) {
        return ci_encode(0b011, 0b01, instr.rd, upper);
      }
      return std::nullopt;
    }
    case Op::kAdd: {
      if (instr.rd == 0) return std::nullopt;
      // c.mv: add rd, x0, rs2
      if (instr.rs1 == 0 && instr.rs2 != 0) {
        u16 half = 0b10;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b100));
        half = static_cast<u16>(insert_bits(half, 7, 5, instr.rd));
        half = static_cast<u16>(insert_bits(half, 2, 5, instr.rs2));
        return half;
      }
      // c.add: add rd, rd, rs2 (or the commuted form)
      unsigned rs2 = 0;
      if (instr.rs1 == instr.rd && instr.rs2 != 0) {
        rs2 = instr.rs2;
      } else if (instr.rs2 == instr.rd && instr.rs1 != 0) {
        rs2 = instr.rs1;
      } else {
        return std::nullopt;
      }
      u16 half = 0b10;
      half = static_cast<u16>(insert_bits(half, 13, 3, 0b100));
      half = static_cast<u16>(insert_bits(half, 12, 1, 1));
      half = static_cast<u16>(insert_bits(half, 7, 5, instr.rd));
      half = static_cast<u16>(insert_bits(half, 2, 5, rs2));
      return half;
    }
    case Op::kSub:
    case Op::kXor:
    case Op::kOr:
    case Op::kAnd:
      return compress_alu_ca(instr);
    case Op::kAndi: {
      if (instr.rd == instr.rs1 && is_prime(instr.rd) &&
          fits_signed(instr.imm, 6)) {
        u16 half = 0b01;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b100));
        half = static_cast<u16>(insert_bits(half, 10, 2, 0b10));
        half = static_cast<u16>(insert_bits(half, 7, 3, instr.rd - 8));
        const u32 imm = static_cast<u32>(instr.imm);
        half = static_cast<u16>(insert_bits(half, 12, 1, extract_bits(imm, 5, 1)));
        half = static_cast<u16>(insert_bits(half, 2, 5, extract_bits(imm, 0, 5)));
        return half;
      }
      return std::nullopt;
    }
    case Op::kSlli: {
      if (instr.rd == instr.rs1 && instr.rd != 0 && instr.rs2 >= 1 &&
          instr.rs2 < 32) {
        u16 half = 0b10;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b000));
        half = static_cast<u16>(insert_bits(half, 7, 5, instr.rd));
        half = static_cast<u16>(insert_bits(half, 2, 5, instr.rs2));
        return half;
      }
      return std::nullopt;
    }
    case Op::kSrli:
    case Op::kSrai: {
      if (instr.rd == instr.rs1 && is_prime(instr.rd) && instr.rs2 >= 1 &&
          instr.rs2 < 32) {
        u16 half = 0b01;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b100));
        half = static_cast<u16>(
            insert_bits(half, 10, 2, instr.op == Op::kSrli ? 0b00 : 0b01));
        half = static_cast<u16>(insert_bits(half, 7, 3, instr.rd - 8));
        half = static_cast<u16>(insert_bits(half, 2, 5, instr.rs2));
        return half;
      }
      return std::nullopt;
    }
    case Op::kLw: {
      if (instr.imm < 0 || instr.imm % 4 != 0) return std::nullopt;
      // c.lwsp
      if (instr.rs1 == 2 && instr.rd != 0 && instr.imm < 256) {
        const u32 imm = static_cast<u32>(instr.imm);
        u16 half = 0b10;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b010));
        half = static_cast<u16>(insert_bits(half, 7, 5, instr.rd));
        half = static_cast<u16>(insert_bits(half, 12, 1, extract_bits(imm, 5, 1)));
        half = static_cast<u16>(insert_bits(half, 4, 3, extract_bits(imm, 2, 3)));
        half = static_cast<u16>(insert_bits(half, 2, 2, extract_bits(imm, 6, 2)));
        return half;
      }
      // c.lw
      if (is_prime(instr.rd) && is_prime(instr.rs1) && instr.imm < 128) {
        const u32 imm = static_cast<u32>(instr.imm);
        u16 half = 0b00;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b010));
        half = static_cast<u16>(insert_bits(half, 7, 3, instr.rs1 - 8));
        half = static_cast<u16>(insert_bits(half, 2, 3, instr.rd - 8));
        half = static_cast<u16>(insert_bits(half, 10, 3, extract_bits(imm, 3, 3)));
        half = static_cast<u16>(insert_bits(half, 6, 1, extract_bits(imm, 2, 1)));
        half = static_cast<u16>(insert_bits(half, 5, 1, extract_bits(imm, 6, 1)));
        return half;
      }
      return std::nullopt;
    }
    case Op::kSw: {
      if (instr.imm < 0 || instr.imm % 4 != 0) return std::nullopt;
      // c.swsp
      if (instr.rs1 == 2 && instr.imm < 256) {
        const u32 imm = static_cast<u32>(instr.imm);
        u16 half = 0b10;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b110));
        half = static_cast<u16>(insert_bits(half, 2, 5, instr.rs2));
        half = static_cast<u16>(insert_bits(half, 9, 4, extract_bits(imm, 2, 4)));
        half = static_cast<u16>(insert_bits(half, 7, 2, extract_bits(imm, 6, 2)));
        return half;
      }
      // c.sw
      if (is_prime(instr.rs2) && is_prime(instr.rs1) && instr.imm < 128) {
        const u32 imm = static_cast<u32>(instr.imm);
        u16 half = 0b00;
        half = static_cast<u16>(insert_bits(half, 13, 3, 0b110));
        half = static_cast<u16>(insert_bits(half, 7, 3, instr.rs1 - 8));
        half = static_cast<u16>(insert_bits(half, 2, 3, instr.rs2 - 8));
        half = static_cast<u16>(insert_bits(half, 10, 3, extract_bits(imm, 3, 3)));
        half = static_cast<u16>(insert_bits(half, 6, 1, extract_bits(imm, 2, 1)));
        half = static_cast<u16>(insert_bits(half, 5, 1, extract_bits(imm, 6, 1)));
        return half;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

}  // namespace s4e::isa
