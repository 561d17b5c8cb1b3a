#include "debug/target.hpp"

#include "common/hex.hpp"
#include "common/strings.hpp"
#include "vp/bus.hpp"

namespace s4e::debug {

std::string_view target_xml() {
  // Minimal RV32 description: gdb infers the register file layout from the
  // architecture element, so no per-register listing is needed.
  return "<?xml version=\"1.0\"?>\n"
         "<!DOCTYPE target SYSTEM \"gdb-target.dtd\">\n"
         "<target version=\"1.0\">\n"
         "  <architecture>riscv:rv32</architecture>\n"
         "</target>\n";
}

std::string DebugTarget::read_registers(unsigned hart) const {
  const vp::CpuState& cpu = machine_.cpu(hart);
  std::string out;
  out.reserve(kRegCount * 8);
  for (unsigned i = 0; i < 32; ++i) {
    out += hex32_le(cpu.gpr[i]);
  }
  out += hex32_le(cpu.pc);
  return out;
}

bool DebugTarget::write_registers(unsigned hart, std::string_view hex) {
  if (hex.size() < kRegCount * 8) return false;
  u32 values[kRegCount];
  for (unsigned i = 0; i < kRegCount; ++i) {
    const auto value = parse_hex32_le(hex.substr(i * 8, 8));
    if (!value) return false;
    values[i] = *value;
  }
  vp::CpuState& cpu = machine_.cpu(hart);
  for (unsigned i = 1; i < 32; ++i) cpu.write_gpr(i, values[i]);
  cpu.pc = values[kPcRegnum];
  return true;
}

std::string DebugTarget::read_register(unsigned hart, unsigned regnum) const {
  const vp::CpuState& cpu = machine_.cpu(hart);
  if (regnum < 32) return hex32_le(cpu.gpr[regnum]);
  if (regnum == kPcRegnum) return hex32_le(cpu.pc);
  return {};
}

bool DebugTarget::write_register(unsigned hart, unsigned regnum, u32 value) {
  if (regnum == 0) return true;  // x0 is hardwired; accept and ignore
  vp::CpuState& cpu = machine_.cpu(hart);
  if (regnum < 32) {
    cpu.write_gpr(regnum, value);
    return true;
  }
  if (regnum == kPcRegnum) {
    cpu.pc = value;
    return true;
  }
  return false;
}

Status DebugTarget::read_memory(u32 address, u32 length,
                                std::string& hex_out) const {
  // Range first: `length` comes from the client, so no buffer is sized by
  // it before the bus accepts it.
  if (!machine_.bus().is_ram(address, length)) {
    return Error(ErrorCode::kOutOfRange,
                 format("RAM read outside RAM at 0x%08x", address));
  }
  std::vector<u8> bytes(length);
  S4E_TRY_STATUS(machine_.bus().ram_read(address, bytes.data(), length));
  hex_out = to_hex(bytes.data(), bytes.size());
  return Status();
}

Status DebugTarget::write_memory(u32 address, const std::vector<u8>& bytes) {
  S4E_TRY_STATUS(machine_.bus().ram_write(address, bytes.data(),
                                          static_cast<u32>(bytes.size())));
  machine_.code_changed(address, static_cast<u32>(bytes.size()));
  return Status();
}

bool DebugTarget::insert_point(unsigned type, u32 address, u32 kind) {
  switch (type) {
    case 0:
    case 1:
      machine_.add_breakpoint(address);
      return true;
    case 2:
      machine_.add_watchpoint(address, kind, vp::WatchKind::kWrite);
      return true;
    case 3:
      machine_.add_watchpoint(address, kind, vp::WatchKind::kRead);
      return true;
    case 4:
      machine_.add_watchpoint(address, kind, vp::WatchKind::kAccess);
      return true;
    default:
      return false;
  }
}

bool DebugTarget::remove_point(unsigned type, u32 address, u32 kind) {
  switch (type) {
    case 0:
    case 1:
      return machine_.remove_breakpoint(address);
    case 2:
      return machine_.remove_watchpoint(address, kind, vp::WatchKind::kWrite);
    case 3:
      return machine_.remove_watchpoint(address, kind, vp::WatchKind::kRead);
    case 4:
      return machine_.remove_watchpoint(address, kind, vp::WatchKind::kAccess);
    default:
      return false;
  }
}

vp::RunResult DebugTarget::resume(const std::function<bool()>& interrupted) {
  // A breakpoint at the current PC would re-fire immediately: step over it
  // first, exactly like a hardware debugger's resume sequence.
  if (machine_.has_breakpoint(machine_.cpu().pc)) {
    vp::RunResult first = machine_.step();
    if (first.reason != vp::StopReason::kDebugStep) return first;
  }
  for (;;) {
    vp::RunResult result = machine_.run_slice(slice_);
    if (result.reason != vp::StopReason::kDebugSlice) return result;
    if (interrupted && interrupted()) {
      result.reason = vp::StopReason::kDebugInterrupt;
      return result;
    }
  }
}

}  // namespace s4e::debug
