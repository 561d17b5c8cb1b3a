#include "isa/csr.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace s4e::isa {

namespace {
constexpr std::pair<u16, std::string_view> kCsrNames[] = {
    {kCsrMstatus, "mstatus"},   {kCsrMisa, "misa"},
    {kCsrMie, "mie"},           {kCsrMtvec, "mtvec"},
    {kCsrMscratch, "mscratch"}, {kCsrMepc, "mepc"},
    {kCsrMcause, "mcause"},     {kCsrMtval, "mtval"},
    {kCsrMip, "mip"},           {kCsrMcycle, "mcycle"},
    {kCsrMinstret, "minstret"}, {kCsrMcycleh, "mcycleh"},
    {kCsrMinstreth, "minstreth"},
    {kCsrCycle, "cycle"},       {kCsrTime, "time"},
    {kCsrInstret, "instret"},   {kCsrCycleh, "cycleh"},
    {kCsrTimeh, "timeh"},       {kCsrInstreth, "instreth"},
    {kCsrMvendorid, "mvendorid"}, {kCsrMarchid, "marchid"},
    {kCsrMimpid, "mimpid"},     {kCsrMhartid, "mhartid"},
};
}  // namespace

std::optional<std::string_view> csr_name(u16 address) noexcept {
  for (const auto& [addr, name] : kCsrNames) {
    if (addr == address) return name;
  }
  return std::nullopt;
}

std::optional<u16> parse_csr(std::string_view name) noexcept {
  for (const auto& [addr, csr] : kCsrNames) {
    if (csr == name) return addr;
  }
  return std::nullopt;
}

const std::vector<u16>& implemented_csrs() {
  static const std::vector<u16> csrs = [] {
    std::vector<u16> out;
    out.reserve(std::size(kCsrNames));
    for (const auto& [addr, name] : kCsrNames) out.push_back(addr);
    std::sort(out.begin(), out.end());
    return out;
  }();
  return csrs;
}

bool csr_is_read_only(u16 address) noexcept {
  // Standard encoding: top two bits 11 => read-only.
  return (address >> 10) == 0x3;
}

bool csr_reads_time(u16 address) noexcept {
  switch (address) {
    case kCsrMip:
    case kCsrMcycle:
    case kCsrMinstret:
    case kCsrMcycleh:
    case kCsrMinstreth:
    case kCsrCycle:
    case kCsrTime:
    case kCsrInstret:
    case kCsrCycleh:
    case kCsrTimeh:
    case kCsrInstreth:
      return true;
    default:
      return false;
  }
}

}  // namespace s4e::isa
