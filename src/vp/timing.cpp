#include "vp/timing.hpp"

#include <algorithm>

namespace s4e::vp {

u32 TimingModel::class_cycles(isa::OpClass op, bool redirect,
                              bool mmio) const noexcept {
  u32 cycles = params_.base_cycles;
  switch (op) {
    case isa::OpClass::kLoad:
    case isa::OpClass::kStore:
    case isa::OpClass::kAmo:
      cycles += mmio ? params_.mmio_access_cycles : params_.ram_access_cycles;
      break;
    case isa::OpClass::kMul:
      cycles += params_.mul_cycles;
      break;
    case isa::OpClass::kDiv:
      break;  // base only; divide_cycles(dividend) is charged by the caller
    case isa::OpClass::kCsr:
      cycles += params_.csr_cycles;
      break;
    case isa::OpClass::kSystem:
      cycles += params_.trap_cycles;
      break;
    default:
      break;
  }
  if (redirect) cycles += params_.redirect_penalty;
  return cycles;
}

u32 TimingModel::worst_case_cycles(const isa::Instr& instr) const noexcept {
  u32 cycles = params_.base_cycles;
  switch (instr.info().op_class) {
    case isa::OpClass::kLoad:
    case isa::OpClass::kStore:
    case isa::OpClass::kAmo:
      // Without a value analysis the static side cannot prove an access
      // stays in RAM, so it must assume the slower of the two paths (for
      // the default parameters that is MMIO). This is the classic source
      // of static-WCET pessimism on memory-bound code.
      cycles += std::max(params_.mmio_access_cycles, params_.ram_access_cycles);
      break;
    case isa::OpClass::kMul:
      cycles += params_.mul_cycles;
      break;
    case isa::OpClass::kDiv:
      cycles += params_.div_max_cycles;
      break;
    case isa::OpClass::kCsr:
      cycles += params_.csr_cycles;
      break;
    case isa::OpClass::kSystem:
      cycles += params_.trap_cycles;
      break;
    default:
      break;
  }
  return cycles;
}

}  // namespace s4e::vp
