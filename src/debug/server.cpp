#include "debug/server.hpp"

#include "common/hex.hpp"
#include "common/strings.hpp"

namespace s4e::debug {

namespace {

constexpr std::string_view kSupported =
    "PacketSize=4096;qXfer:features:read+;swbreak+;hwbreak+;"
    "QStartNoAckMode+;vContSupported-";

// SIGTRAP — the stop signal for every debugger-initiated halt.
constexpr int kSigTrap = 5;
// SIGINT for Ctrl-C interrupts.
constexpr int kSigInt = 2;

// Parse "ADDR,LEN" (both hex). Returns false on malformed input or a value
// past 32 bits.
bool parse_addr_len(std::string_view text, u32& address, u32& length) {
  const std::size_t comma = text.find(',');
  if (comma == std::string_view::npos) return false;
  const auto addr = parse_hex(text.substr(0, comma));
  const auto len = parse_hex(text.substr(comma + 1));
  if (!addr || !len || *addr > 0xffff'ffff || *len > 0xffff'ffff) {
    return false;
  }
  address = static_cast<u32>(*addr);
  length = static_cast<u32>(*len);
  return true;
}

}  // namespace

bool RspServer::send_packet(std::string_view payload) {
  const std::string wire = rsp_frame_rle(payload);
  if (!channel_.write_all(wire)) return false;
  if (no_ack_mode_) return true;
  // Wait for the ack; a nak asks for retransmission. Interleaved command
  // packets are queued for the main loop.
  for (;;) {
    while (decoder_.has_event()) {
      // Peek-free scan: acks/naks are consumed, anything else stays queued.
      // PacketDecoder hands events in order, so buffer non-ack events back.
      PacketDecoder::Event event = decoder_.next_event();
      if (event.kind == PacketDecoder::EventKind::kAck) return true;
      if (event.kind == PacketDecoder::EventKind::kNak) {
        if (!channel_.write_all(wire)) return false;
        continue;
      }
      pending_.push_back(std::move(event));
    }
    const std::string bytes = channel_.read_blocking();
    if (bytes.empty()) return false;
    decoder_.feed(bytes);
  }
}

std::string RspServer::stop_reply() const {
  // Multi-hart sessions annotate every stop with the hart it happened on
  // (thread id = hart + 1) and use T replies throughout so the annotation
  // has somewhere to go; single-hart replies stay byte-identical to the
  // original stub.
  const bool multi = target_.machine().num_harts() > 1;
  const std::string thread =
      multi ? format("thread:%x;", last_stop_.hart + 1) : std::string();
  switch (last_stop_.reason) {
    case vp::StopReason::kDebugBreak:
      return format("T%02xswbreak:;", kSigTrap) + thread;
    case vp::StopReason::kDebugWatch: {
      const char* kind = "watch";
      if (last_stop_.watch_kind == vp::WatchKind::kRead) kind = "rwatch";
      if (last_stop_.watch_kind == vp::WatchKind::kAccess) kind = "awatch";
      // The address is big-endian hex in stop replies (a plain number).
      return format("T%02x%s:%s;", kSigTrap, kind,
                    hex32(last_stop_.debug_addr).c_str()) +
             thread;
    }
    case vp::StopReason::kDebugStep:
    case vp::StopReason::kDebugSlice:
      return multi ? format("T%02x", kSigTrap) + thread
                   : format("S%02x", kSigTrap);
    case vp::StopReason::kDebugInterrupt:
      return multi ? format("T%02x", kSigInt) + thread
                   : format("S%02x", kSigInt);
    default:
      break;
  }
  if (last_stop_.normal_exit()) {
    return format("W%02x", last_stop_.exit_code & 0xFF);
  }
  // Traps and other abnormal stops: report as SIGTRAP so the debugger can
  // inspect the halted machine instead of losing the session.
  return multi ? format("T%02x", kSigTrap) + thread : format("S%02x", kSigTrap);
}

std::string RspServer::handle_query(std::string_view payload) {
  const bool multi = target_.num_harts() > 1;
  if (starts_with(payload, "qSupported")) return std::string(kSupported);
  if (payload == "qAttached") return "1";
  if (payload == "qC") {
    // Current thread: the Hg-selected hart. Single-hart sessions keep the
    // legacy "no thread ids" empty reply.
    return multi ? format("QC%x", g_hart_ + 1) : "";
  }
  if (payload == "qfThreadInfo") {
    if (!multi) return "";
    std::string reply = "m";
    for (unsigned h = 0; h < target_.num_harts(); ++h) {
      if (h != 0) reply += ',';
      reply += format("%x", h + 1);
    }
    return reply;
  }
  if (payload == "qsThreadInfo") return multi ? "l" : "";
  if (starts_with(payload, "qXfer:features:read:target.xml:")) {
    std::string_view range = payload.substr(payload.rfind(':') + 1);
    u32 offset = 0;
    u32 length = 0;
    if (!parse_addr_len(range, offset, length)) return "E01";
    const std::string_view xml = target_xml();
    if (offset >= xml.size()) return "l";
    const std::string_view chunk = xml.substr(offset, length);
    const char prefix = (offset + chunk.size() < xml.size()) ? 'm' : 'l';
    return prefix + std::string(chunk);
  }
  return "";  // unsupported query → empty reply per the protocol
}

bool RspServer::handle_resume(bool step) {
  if (program_exited_) {
    // Nothing left to run; repeat the exit status.
    return send_packet(stop_reply());
  }
  if (step) {
    last_stop_ = target_.step();
  } else {
    last_stop_ = target_.resume([this] {
      const std::string bytes = channel_.read_poll();
      if (bytes.empty()) return false;
      decoder_.feed(bytes);
      bool interrupt = false;
      while (decoder_.has_event()) {
        PacketDecoder::Event event = decoder_.next_event();
        if (event.kind == PacketDecoder::EventKind::kInterrupt) {
          interrupt = true;
        } else {
          pending_.push_back(std::move(event));
        }
      }
      return interrupt;
    });
  }
  if (!last_stop_.debug_stop()) program_exited_ = true;
  return send_packet(stop_reply());
}

bool RspServer::handle_packet(std::string_view payload, ServeResult& done,
                              bool& ended) {
  ended = false;
  if (payload.empty()) return send_packet("");
  switch (payload[0]) {
    case '?':
      return send_packet(stop_reply());
    case 'g':
      return send_packet(target_.read_registers(g_hart_));
    case 'G':
      return send_packet(
          target_.write_registers(g_hart_, payload.substr(1)) ? "OK" : "E01");
    case 'p': {
      const auto regnum = parse_hex(payload.substr(1));
      if (!regnum) return send_packet("E01");
      const std::string value =
          target_.read_register(g_hart_, static_cast<unsigned>(*regnum));
      return send_packet(value.empty() ? "E01" : value);
    }
    case 'P': {
      const std::size_t eq = payload.find('=');
      if (eq == std::string_view::npos) return send_packet("E01");
      const auto regnum = parse_hex(payload.substr(1, eq - 1));
      const auto value = parse_hex32_le(payload.substr(eq + 1));
      if (!regnum || !value) return send_packet("E01");
      return send_packet(
          target_.write_register(g_hart_, static_cast<unsigned>(*regnum),
                                 *value)
              ? "OK"
              : "E01");
    }
    case 'm': {
      u32 address = 0;
      u32 length = 0;
      if (!parse_addr_len(payload.substr(1), address, length)) {
        return send_packet("E01");
      }
      std::string hex;
      if (!target_.read_memory(address, length, hex).ok()) {
        return send_packet("E02");
      }
      return send_packet(hex);
    }
    case 'M': {
      const std::size_t colon = payload.find(':');
      if (colon == std::string_view::npos) return send_packet("E01");
      u32 address = 0;
      u32 length = 0;
      if (!parse_addr_len(payload.substr(1, colon - 1), address, length)) {
        return send_packet("E01");
      }
      const auto bytes = from_hex(payload.substr(colon + 1));
      if (!bytes || bytes->size() != length) return send_packet("E01");
      return send_packet(target_.write_memory(address, *bytes).ok() ? "OK"
                                                                    : "E02");
    }
    case 'Z':
    case 'z': {
      // Z<type>,<addr>,<kind>
      if (payload.size() < 2) return send_packet("E01");
      const auto type = parse_hex(payload.substr(1, 1));
      u32 address = 0;
      u32 kind = 0;
      if (!type || payload.size() < 3 ||
          !parse_addr_len(payload.substr(3), address, kind)) {
        return send_packet("E01");
      }
      const unsigned t = static_cast<unsigned>(*type);
      if (t > 4) return send_packet("");  // unsupported point type
      const bool ok = payload[0] == 'Z'
                          ? target_.insert_point(t, address, kind)
                          : target_.remove_point(t, address, kind);
      return send_packet(ok ? "OK" : "E01");
    }
    case 'c':
      return handle_resume(/*step=*/false);
    case 's':
      return handle_resume(/*step=*/true);
    case 'D':
      // The detached program must free-run: drop every debugger-owned stop
      // condition (GDB usually z's them first, but not all clients do).
      target_.machine().clear_breakpoints();
      target_.machine().clear_watchpoints();
      if (!send_packet("OK")) return false;
      done = ServeResult::kDetached;
      ended = true;
      return true;
    case 'k':
      // No reply is expected for k; the session just ends.
      target_.machine().clear_breakpoints();
      target_.machine().clear_watchpoints();
      done = ServeResult::kKilled;
      ended = true;
      return true;
    case 'H': {
      // H<op><tid>: select the thread for subsequent operations. tid 0 and
      // -1 mean "any/all" (fall back to the active hart); a positive tid
      // names one hart (tid = hart + 1). `Hc` selection is accepted but
      // resume always runs the whole machine (all-stop semantics).
      if (payload.size() < 2) return send_packet("E01");
      const std::string_view tid_text = payload.substr(2);
      if (tid_text.empty() || tid_text == "0" || tid_text == "-1") {
        if (payload[1] == 'g') g_hart_ = target_.active_hart();
        return send_packet("OK");
      }
      const auto tid = parse_hex(tid_text);
      if (!tid || *tid == 0 || *tid > target_.num_harts()) {
        return send_packet("E01");
      }
      if (payload[1] == 'g') g_hart_ = static_cast<unsigned>(*tid) - 1;
      return send_packet("OK");
    }
    case 'T': {
      // Thread alive: every hart id stays valid for the machine's lifetime.
      if (target_.num_harts() == 1) return send_packet("OK");  // legacy stub
      const auto tid = parse_hex(payload.substr(1));
      const bool alive = tid && *tid >= 1 && *tid <= target_.num_harts();
      return send_packet(alive ? "OK" : "E01");
    }
    case 'q':
      return send_packet(handle_query(payload));
    case 'Q':
      if (payload == "QStartNoAckMode") {
        if (!send_packet("OK")) return false;
        no_ack_mode_ = true;
        return true;
      }
      return send_packet("");
    case 'v':
      // vMustReplyEmpty and the unsupported vCont family → empty reply.
      return send_packet("");
    default:
      return send_packet("");
  }
}

RspServer::ServeResult RspServer::serve() {
  // The machine is halted at entry; GDB opens with an ack-mode handshake.
  ServeResult done = ServeResult::kChannelClosed;
  for (;;) {
    PacketDecoder::Event event;
    if (!pending_.empty()) {
      event = std::move(pending_.front());
      pending_.erase(pending_.begin());
    } else if (decoder_.has_event()) {
      event = decoder_.next_event();
    } else {
      const std::string bytes = channel_.read_blocking();
      if (bytes.empty()) return ServeResult::kChannelClosed;
      decoder_.feed(bytes);
      continue;
    }
    switch (event.kind) {
      case PacketDecoder::EventKind::kPacket: {
        if (!no_ack_mode_ && !channel_.write_all("+")) {
          return ServeResult::kChannelClosed;
        }
        bool ended = false;
        if (!handle_packet(event.payload, done, ended)) {
          return ServeResult::kChannelClosed;
        }
        if (ended) {
          return program_exited_ && done == ServeResult::kDetached
                     ? ServeResult::kExited
                     : done;
        }
        break;
      }
      case PacketDecoder::EventKind::kBadPacket:
        if (!no_ack_mode_ && !channel_.write_all("-")) {
          return ServeResult::kChannelClosed;
        }
        break;
      case PacketDecoder::EventKind::kInterrupt:
        // Ctrl-C while halted: the machine is already stopped; report it.
        last_stop_.reason = vp::StopReason::kDebugInterrupt;
        if (!send_packet(stop_reply())) return ServeResult::kChannelClosed;
        break;
      case PacketDecoder::EventKind::kAck:
      case PacketDecoder::EventKind::kNak:
        break;  // stray acks between commands are harmless
    }
  }
}

}  // namespace s4e::debug
