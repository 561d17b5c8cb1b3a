#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "isa/disasm.hpp"
#include "isa/opcode.hpp"
#include "isa/rvc.hpp"

namespace s4e::obs {

namespace {

std::size_t round_up_pow2(std::size_t value) {
  std::size_t pow2 = 1;
  while (pow2 < value) pow2 <<= 1;
  return pow2;
}

bool is_control_flow_class(u32 op_class) {
  const auto cls = static_cast<isa::OpClass>(op_class);
  return cls == isa::OpClass::kBranch || cls == isa::OpClass::kJump;
}

std::string describe_insn(const FlightEvent& event) {
  auto decoded = isa::decode_parcel(event.a);
  return decoded.ok() ? isa::disassemble_at(*decoded, event.pc) : "<illegal>";
}

}  // namespace

FlightRecorderPlugin::FlightRecorderPlugin(std::size_t capacity)
    : ring_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(ring_.size() - 1) {}

std::vector<FlightEvent> FlightRecorderPlugin::snapshot() const {
  const u64 count = std::min<u64>(head_, ring_.size());
  std::vector<FlightEvent> events;
  events.reserve(static_cast<std::size_t>(count));
  // The hot path never stores sequence numbers (one fewer write per
  // event); slot i of the ring holds event `seq` with seq ≡ i (mod size),
  // so the trail's numbering is reconstructed here.
  for (u64 seq = head_ - count; seq < head_; ++seq) {
    events.push_back(ring_[seq & mask_]);
    events.back().seq = seq;
  }
  return events;
}

std::string FlightRecorderPlugin::post_mortem(std::size_t last_n) const {
  std::vector<FlightEvent> events = snapshot();
  if (last_n != 0 && events.size() > last_n) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(last_n));
  }
  std::string out =
      format("flight recorder: %llu events observed, last %zu:\n",
             static_cast<unsigned long long>(head_), events.size());
  if (events.empty()) {
    out += "  (no events recorded)\n";
    return out;
  }

  // The trail. A branch/jump followed by an instruction at a different
  // address than fall-through was taken; derive that at dump time instead
  // of paying for it on the hot path.
  const FlightEvent* last_branch = nullptr;
  const FlightEvent* last_mem = nullptr;
  const FlightEvent* last_trap = nullptr;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& event = events[i];
    switch (event.kind) {
      case FlightEvent::Kind::kInsn:
        out += format("  #%-8llu insn  pc=0x%08x  %s\n",
                      static_cast<unsigned long long>(event.seq), event.pc,
                      describe_insn(event).c_str());
        if (is_control_flow_class(event.b)) last_branch = &events[i];
        break;
      case FlightEvent::Kind::kMem:
        out += format("  #%-8llu mem   pc=0x%08x  %s %uB @0x%08x = 0x%08x\n",
                      static_cast<unsigned long long>(event.seq), event.pc,
                      event.is_store != 0 ? "store" : "load ", event.size,
                      event.a, event.b);
        last_mem = &events[i];
        break;
      case FlightEvent::Kind::kTrap:
        out += format("  #%-8llu trap  epc=0x%08x cause=0x%08x tval=0x%08x\n",
                      static_cast<unsigned long long>(event.seq), event.pc,
                      event.a, event.b);
        last_trap = &events[i];
        break;
    }
  }

  if (last_branch != nullptr) {
    // Find the instruction event after the branch, if the ring kept one.
    const FlightEvent* successor = nullptr;
    for (const FlightEvent& event : events) {
      if (event.seq > last_branch->seq &&
          event.kind == FlightEvent::Kind::kInsn) {
        successor = &event;
        break;
      }
    }
    out += format("  last branch: pc=0x%08x  %s", last_branch->pc,
                  describe_insn(*last_branch).c_str());
    if (successor != nullptr) {
      out += format("  -> 0x%08x", successor->pc);
    }
    out += "\n";
  }
  if (last_mem != nullptr) {
    out += format("  last access: %s %uB @0x%08x = 0x%08x (pc=0x%08x)\n",
                  last_mem->is_store != 0 ? "store" : "load", last_mem->size,
                  last_mem->a, last_mem->b, last_mem->pc);
  }
  if (last_trap != nullptr) {
    out += format("  last trap:   cause=0x%08x epc=0x%08x tval=0x%08x\n",
                  last_trap->a, last_trap->pc, last_trap->b);
  }
  return out;
}

}  // namespace s4e::obs
