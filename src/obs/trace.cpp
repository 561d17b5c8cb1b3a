#include "obs/trace.hpp"

#include <string>

#include "common/hex.hpp"
#include "common/json.hpp"
#include "isa/disasm.hpp"
#include "isa/rvc.hpp"

namespace s4e::obs {

namespace {

std::string disassemble_encoding(u32 encoding, u32 pc) {
  auto decoded = s4e::isa::decode_parcel(encoding);
  return decoded.ok() ? s4e::isa::disassemble_at(*decoded, pc) : "<illegal>";
}

}  // namespace

void JsonlTracePlugin::on_insn_exec(const s4e_insn_info& insn) {
  ++icount_;
  if (!budget_left()) return;
  ++emitted_;
  ++lines_;
  std::fprintf(out_,
               "{\"t\":\"insn\",\"n\":%llu,\"pc\":\"0x%s\","
               "\"raw\":\"0x%s\",\"asm\":\"%s\"}\n",
               static_cast<unsigned long long>(icount_),
               hex32(insn.address).c_str(), hex32(insn.encoding).c_str(),
               json_escape(disassemble_encoding(insn.encoding, insn.address))
                   .c_str());
}

void JsonlTracePlugin::on_mem(const s4e_mem_event& event) {
  if (!budget_left()) return;
  ++emitted_;
  ++lines_;
  std::fprintf(out_,
               "{\"t\":\"mem\",\"pc\":\"0x%s\",\"addr\":\"0x%s\","
               "\"size\":%u,\"store\":%u,\"val\":\"0x%s\"}\n",
               hex32(event.pc).c_str(), hex32(event.vaddr).c_str(),
               event.size, event.is_store, hex32(event.value).c_str());
}

void JsonlTracePlugin::on_trap(const s4e_trap_event& event) {
  ++lines_;
  std::fprintf(out_,
               "{\"t\":\"trap\",\"cause\":\"0x%s\",\"epc\":\"0x%s\","
               "\"tval\":\"0x%s\"}\n",
               hex32(event.cause).c_str(), hex32(event.epc).c_str(),
               hex32(event.tval).c_str());
}

void JsonlTracePlugin::on_exit(int exit_code) {
  ++lines_;
  std::fprintf(out_, "{\"t\":\"exit\",\"code\":%d}\n", exit_code);
  std::fflush(out_);
}

}  // namespace s4e::obs
