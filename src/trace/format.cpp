#include "trace/format.hpp"

#include <cstdio>
#include <string_view>

#include "asm/program.hpp"
#include "common/file.hpp"
#include "common/fnv1a.hpp"
#include "common/strings.hpp"
#include "isa/opcode.hpp"

namespace s4e::trace {

namespace {

// Fixed-size chunk layout. The header and footer are plain little-endian
// u32/u64 fields — no varints, so a truncated file is length-checkable
// before any field is read.
constexpr std::size_t kHeaderBytes = 80;
constexpr std::size_t kFooterBytes = 64;

void put_u32(std::vector<u8>& out, u32 value) {
  for (unsigned i = 0; i < 4; ++i) {
    out.push_back(static_cast<u8>(value >> (8 * i)));
  }
}

void put_u64(std::vector<u8>& out, u64 value) {
  put_u32(out, static_cast<u32>(value));
  put_u32(out, static_cast<u32>(value >> 32));
}

u32 get_u32(const u8* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

u64 get_u64(const u8* p) {
  return static_cast<u64>(get_u32(p)) |
         (static_cast<u64>(get_u32(p + 4)) << 32);
}

void put_params(std::vector<u8>& out, const vp::TimingParams& params) {
  put_u32(out, params.base_cycles);
  put_u32(out, params.ram_access_cycles);
  put_u32(out, params.mmio_access_cycles);
  put_u32(out, params.mul_cycles);
  put_u32(out, params.div_min_cycles);
  put_u32(out, params.div_max_cycles);
  put_u32(out, params.redirect_penalty);
  put_u32(out, params.csr_cycles);
  put_u32(out, params.trap_cycles);
  put_u32(out, params.icache_miss_cycles);
  put_u32(out, params.icache_lines);
  put_u32(out, params.icache_line_bytes);
  put_u32(out, params.branch_predictor ? 1 : 0);
}

vp::TimingParams get_params(const u8* p) {
  vp::TimingParams params;
  params.base_cycles = get_u32(p);
  params.ram_access_cycles = get_u32(p + 4);
  params.mmio_access_cycles = get_u32(p + 8);
  params.mul_cycles = get_u32(p + 12);
  params.div_min_cycles = get_u32(p + 16);
  params.div_max_cycles = get_u32(p + 20);
  params.redirect_penalty = get_u32(p + 24);
  params.csr_cycles = get_u32(p + 28);
  params.trap_cycles = get_u32(p + 32);
  params.icache_miss_cycles = get_u32(p + 36);
  params.icache_lines = get_u32(p + 40);
  params.icache_line_bytes = get_u32(p + 44);
  params.branch_predictor = get_u32(p + 48) != 0;
  return params;
}

Error parse_error(const std::string& message) {
  return Error(ErrorCode::kParseError, message);
}

}  // namespace

std::string_view to_string(TaintKind kind) noexcept {
  switch (kind) {
    case TaintKind::kCsrCycleRead: return "cycle-CSR read";
    case TaintKind::kCsrTimeRead: return "time-CSR read";
    case TaintKind::kCsrMipRead: return "mip-CSR read";
    case TaintKind::kClintLoad: return "CLINT load";
    case TaintKind::kGpioLoad: return "GPIO load";
    case TaintKind::kClintStore: return "CLINT store";
    case TaintKind::kWfiSleep: return "non-final wfi";
    case TaintKind::kInterrupt: return "interrupt";
    case TaintKind::kCursorResync: return "control-flow resync";
    case TaintKind::kCount: break;
  }
  return "unknown";
}

u64 program_fingerprint(const assembler::Program& program) {
  u64 hash = kFnv1aOffsetBasis;
  const auto mix32 = [&hash](u32 value) {  // little-endian bytes
    const u8 bytes[4] = {static_cast<u8>(value), static_cast<u8>(value >> 8),
                         static_cast<u8>(value >> 16),
                         static_cast<u8>(value >> 24)};
    hash = fnv1a(bytes, sizeof bytes, hash);
  };
  for (const assembler::Section& section : program.sections) {
    mix32(section.base);
    mix32(static_cast<u32>(section.bytes.size()));
    hash = fnv1a(section.bytes.data(), section.bytes.size(), hash);
  }
  mix32(program.entry);
  return hash;
}

std::vector<u8> Writer::finish(Footer footer) {
  footer.stream_checksum = fnv1a(stream_.data(), stream_.size());

  std::vector<u8> out;
  out.reserve(kHeaderBytes + stream_.size() + 1 + kFooterBytes);
  const auto put_magic = [&out](const char (&magic)[8]) {
    for (const char c : magic) out.push_back(static_cast<u8>(c));
  };
  put_magic(kTraceMagic);
  put_u32(out, header_.version);
  put_u32(out, header_.flags);
  put_u64(out, header_.fingerprint);
  put_u32(out, header_.entry_pc);
  put_params(out, header_.recorded);

  out.insert(out.end(), stream_.begin(), stream_.end());
  out.push_back(static_cast<u8>(Tag::kEnd));

  put_magic(kFooterMagic);
  put_u32(out, footer.stop_reason);
  put_u32(out, static_cast<u32>(footer.exit_code));
  put_u64(out, footer.instructions);
  put_u64(out, footer.blocks);
  put_u64(out, footer.mem_accesses);
  put_u64(out, footer.taints);
  put_u64(out, footer.recorded_cycles);
  put_u64(out, footer.stream_checksum);
  return out;
}

Status Writer::save(const std::string& path, Footer footer) {
  const std::vector<u8> bytes = finish(footer);
  // A crashed or interrupted recording leaves either nothing at `path` or
  // the previous complete trace, never a truncated file that happens to
  // start with the right magic.
  return write_file_atomic(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
}

Result<Trace> Trace::load(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Error(ErrorCode::kIoError, "cannot open trace '" + path + "'");
  }
  std::vector<u8> bytes;
  u8 chunk[1u << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Error(ErrorCode::kIoError, "read error on trace '" + path + "'");
  }
  auto trace = parse(std::move(bytes));
  if (!trace.ok()) {
    return parse_error("trace '" + path + "': " + trace.error().message());
  }
  return trace;
}

Result<Trace> Trace::parse(std::vector<u8> bytes) {
  Trace trace;
  trace.bytes_ = std::move(bytes);
  const std::vector<u8>& raw = trace.bytes_;

  // Header: sized, magicked, versioned — each failure names its site.
  if (raw.size() < kHeaderBytes) {
    return parse_error(format("file is %zu bytes, smaller than the %zu-byte "
                              "header — not a trace or torn at creation",
                              raw.size(), kHeaderBytes));
  }
  if (!std::equal(kTraceMagic, kTraceMagic + 8, raw.data())) {
    return parse_error("bad magic: not an s4e binary trace");
  }
  trace.header_.version = get_u32(raw.data() + 8);
  if (trace.header_.version != kTraceVersion) {
    return parse_error(format("unsupported trace version %u (this build "
                              "reads version %u)",
                              trace.header_.version, kTraceVersion));
  }
  trace.header_.flags = get_u32(raw.data() + 12);
  trace.header_.fingerprint = get_u64(raw.data() + 16);
  trace.header_.entry_pc = get_u32(raw.data() + 24);
  trace.header_.recorded = get_params(raw.data() + 28);

  // Footer: present, magicked, and self-consistent with the stream. A
  // recorder that died mid-run fails here (the footer is written last).
  if (raw.size() < kHeaderBytes + 1 + kFooterBytes) {
    return parse_error("missing footer: trace is truncated (recorder did "
                       "not finish)");
  }
  const u8* footer_p = raw.data() + raw.size() - kFooterBytes;
  if (!std::equal(kFooterMagic, kFooterMagic + 8, footer_p)) {
    return parse_error("bad footer magic: trace is truncated or torn "
                       "(recorder did not finish)");
  }
  Footer& footer = trace.footer_;
  footer.stop_reason = static_cast<u8>(get_u32(footer_p + 8));
  footer.exit_code = static_cast<int>(get_u32(footer_p + 12));
  footer.instructions = get_u64(footer_p + 16);
  footer.blocks = get_u64(footer_p + 24);
  footer.mem_accesses = get_u64(footer_p + 32);
  footer.taints = get_u64(footer_p + 40);
  footer.recorded_cycles = get_u64(footer_p + 48);
  footer.stream_checksum = get_u64(footer_p + 56);

  trace.stream_off_ = kHeaderBytes;
  trace.stream_len_ = raw.size() - kHeaderBytes - 1 - kFooterBytes;
  if (raw[kHeaderBytes + trace.stream_len_] != static_cast<u8>(Tag::kEnd)) {
    return parse_error("event stream is not kEnd-terminated: trace is torn");
  }

  const u64 checksum = fnv1a(trace.stream_data(), trace.stream_size());
  if (checksum != footer.stream_checksum) {
    return parse_error(format("stream checksum mismatch (stored %016llx, "
                              "computed %016llx): trace bytes are corrupt",
                              static_cast<unsigned long long>(
                                  footer.stream_checksum),
                              static_cast<unsigned long long>(checksum)));
  }

  // Pre-walk: decode every event once, so replay can trust the stream, and
  // cross-check the footer's counts (a wrong count means the footer belongs
  // to different stream bytes — a spliced or mis-rewritten file).
  u64 insns = 0, blocks = 0, mems = 0, taints = 0;
  Cursor cursor(trace);
  Event event;
  while (cursor.next(event)) {
    switch (event.tag) {
      case Tag::kBlock:
      case Tag::kBlockAt:
        ++blocks;
        break;
      case Tag::kRun4:
      case Tag::kRun2:
        insns += event.count;
        break;
      case Tag::kTaint:
        ++taints;
        trace.taints_.push_back(TaintSite{event.taint, event.pc});
        break;
      case Tag::kTrapFetch:
        break;
      case Tag::kLoad4: case Tag::kLoad2:
      case Tag::kStore4: case Tag::kStore2:
      case Tag::kLoadMmio4: case Tag::kLoadMmio2:
      case Tag::kStoreMmio4: case Tag::kStoreMmio2:
      case Tag::kAmoLoad: case Tag::kAmoStore:
        ++insns;
        ++mems;
        break;
      case Tag::kAmoRmw:
        ++insns;
        mems += 2;
        break;
      default:
        ++insns;
        break;
    }
  }
  if (!cursor.ok()) {
    return parse_error(format("event stream decode failed at byte %zu: %s",
                              cursor.offset(), cursor.error().c_str()));
  }
  if (insns != footer.instructions || blocks != footer.blocks ||
      mems != footer.mem_accesses || taints != footer.taints) {
    return parse_error(format(
        "footer counts disagree with the stream (insns %llu/%llu, blocks "
        "%llu/%llu, mems %llu/%llu, taints %llu/%llu): spliced trace",
        static_cast<unsigned long long>(insns),
        static_cast<unsigned long long>(footer.instructions),
        static_cast<unsigned long long>(blocks),
        static_cast<unsigned long long>(footer.blocks),
        static_cast<unsigned long long>(mems),
        static_cast<unsigned long long>(footer.mem_accesses),
        static_cast<unsigned long long>(taints),
        static_cast<unsigned long long>(footer.taints)));
  }
  return trace;
}

bool Cursor::get_varint(u64& out) {
  out = 0;
  unsigned shift = 0;
  while (p_ != end_) {
    const u8 byte = *p_++;
    if (shift >= 63 && byte > 1) return fail("varint overflows 64 bits");
    out |= static_cast<u64>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return fail("varint runs past the end of the stream");
}

bool Cursor::next(Event& out) {
  if (!error_.empty()) return false;
  if (p_ == end_) return false;  // clean end of stream
  event_off_ = static_cast<std::size_t>(p_ - begin_);
  const u8 tag_byte = *p_++;
  if (tag_byte >= static_cast<u8>(Tag::kCount)) {
    return fail(format("unknown event tag 0x%02x", tag_byte));
  }
  out = Event{};
  out.tag = static_cast<Tag>(tag_byte);
  out.pc = pc_;
  u64 value = 0;
  switch (out.tag) {
    case Tag::kEnd:
      return fail("embedded kEnd before the stream terminator");
    case Tag::kBlock:
      break;
    case Tag::kBlockAt:
      if (!get_varint(value)) return false;
      pc_ += static_cast<u32>(unzigzag(value));
      out.pc = pc_;
      break;
    case Tag::kRun4:
    case Tag::kRun2:
      if (!get_varint(value)) return false;
      out.count = static_cast<u32>(value);
      out.length = out.tag == Tag::kRun4 ? 4 : 2;
      pc_ += out.count * out.length;
      break;
    case Tag::kJump:
    case Tag::kBranchT:
    case Tag::kMret:
      if (!get_varint(value)) return false;
      out.target = pc_ + static_cast<u32>(unzigzag(value));
      pc_ = out.target;
      break;
    case Tag::kBranchN4:
    case Tag::kBranchN2:
      out.length = out.tag == Tag::kBranchN4 ? 4 : 2;
      pc_ += out.length;
      break;
    case Tag::kLoad4: case Tag::kLoad2:
    case Tag::kStore4: case Tag::kStore2:
    case Tag::kLoadMmio4: case Tag::kLoadMmio2:
    case Tag::kStoreMmio4: case Tag::kStoreMmio2: {
      if (!get_varint(value)) return false;
      out.mem_size = static_cast<u8>(1u << (value & 3));
      prev_addr_ += static_cast<u32>(unzigzag(value >> 2));
      out.mem_addr = prev_addr_;
      const u8 kind = tag_byte - static_cast<u8>(Tag::kLoad4);
      out.mem_store = (kind & 2) != 0;
      out.mem_mmio = (kind & 4) != 0;
      out.length = (kind & 1) != 0 ? 2 : 4;
      pc_ += out.length;
      break;
    }
    case Tag::kAmoLoad:
    case Tag::kAmoStore:
    case Tag::kAmoRmw:
      if (!get_varint(value)) return false;
      out.mem_size = static_cast<u8>(1u << (value & 3));
      prev_addr_ += static_cast<u32>(unzigzag(value >> 2));
      out.mem_addr = prev_addr_;
      out.mem_store = out.tag != Tag::kAmoLoad;
      out.length = 4;
      pc_ += 4;
      break;
    case Tag::kAmoFail:
      out.length = 4;
      pc_ += 4;
      break;
    case Tag::kMul4: case Tag::kMul2:
      out.length = out.tag == Tag::kMul4 ? 4 : 2;
      pc_ += out.length;
      break;
    case Tag::kDiv4: case Tag::kDiv2:
      if (!get_varint(value)) return false;
      out.dividend = static_cast<u32>(value);
      out.length = out.tag == Tag::kDiv4 ? 4 : 2;
      pc_ += out.length;
      break;
    case Tag::kCsr4: case Tag::kCsr2:
      out.length = out.tag == Tag::kCsr4 ? 4 : 2;
      pc_ += out.length;
      break;
    case Tag::kSysExit:
      out.length = 4;
      pc_ += 4;
      break;
    case Tag::kWfiHalt:
    case Tag::kWfiSleep:
      out.length = 4;
      pc_ += 4;
      break;
    case Tag::kTrapInsn: {
      if (p_ == end_) return fail("kTrapInsn missing its info byte");
      const u8 info = *p_++;
      out.op_class = info & kTrapClassMask;
      if (out.op_class >= isa::kOpClassCount) {
        return fail(format("kTrapInsn names instruction class %u, but there "
                           "are only %u classes",
                           static_cast<unsigned>(out.op_class),
                           isa::kOpClassCount));
      }
      out.length = (info & kTrapLen4) != 0 ? 4 : 2;
      out.handled = (info & kTrapHandled) != 0;
      if (!get_varint(value)) return false;
      out.cause = static_cast<u32>(value);
      if (out.handled) {
        if (!get_varint(value)) return false;
        out.target = pc_ + static_cast<u32>(unzigzag(value));
        pc_ = out.target;
      }
      break;
    }
    case Tag::kTrapFetch: {
      if (p_ == end_) return fail("kTrapFetch missing its info byte");
      const u8 info = *p_++;
      out.handled = (info & kTrapHandled) != 0;
      if (!get_varint(value)) return false;
      out.cause = static_cast<u32>(value);
      if (out.handled) {
        if (!get_varint(value)) return false;
        out.target = pc_ + static_cast<u32>(unzigzag(value));
        pc_ = out.target;
      }
      break;
    }
    case Tag::kTaint:
      if (!get_varint(value)) return false;
      if (value >= static_cast<u64>(TaintKind::kCount)) {
        return fail(format("unknown taint kind %llu",
                           static_cast<unsigned long long>(value)));
      }
      out.taint = static_cast<TaintKind>(value);
      break;
    case Tag::kCount:
      return fail("unreachable tag");
  }
  return true;
}

}  // namespace s4e::trace
