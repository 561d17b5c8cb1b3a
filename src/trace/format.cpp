#include "trace/format.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string_view>

#include "asm/program.hpp"
#include "common/file.hpp"
#include "common/strings.hpp"

namespace s4e::trace {

namespace {

// The writer's buffer reserves address space for this many bytes up front
// and is sized (zero-filled, so its pages are touched) in steps of
// kWriterStep as the stream grows: a trace up to the reservation is never
// copied, and no page is touched before the stream reaches it.
constexpr std::size_t kWriterReserve = 1u << 20;
constexpr std::size_t kWriterStep = 1u << 14;

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

// Builds the span list for the walk. The span being extended stays in
// locals until one does not continue it: the walk appends once per retired
// instruction event, and a span kept in the vector would put a load-modify-
// store chain on every one.
class SpanBuilder {
 public:
  explicit SpanBuilder(std::vector<InsnSpan>& spans) : spans_(spans) {}

  // Appends instructions to the PC sequence, extending the open span when
  // they continue it at its stride.
  void append(u32 pc, u32 count, u32 stride) {
    if (open_ && pc == end_ && (count == 1 || stride == span_.stride) &&
        count <= ~u32{0} - span_.count) {
      span_.count += count;
      end_ += count * span_.stride;
      return;
    }
    finish();
    open_ = true;
    span_ = {pc, count, stride};
    end_ = pc + count * stride;
  }

  void finish() {
    if (open_) spans_.push_back(span_);
    open_ = false;
  }

 private:
  std::vector<InsnSpan>& spans_;
  bool open_ = false;
  InsnSpan span_;
  u32 end_ = 0;  // the PC that continues span_
};

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

Status check_icache_geometry(const vp::TimingParams& params) {
  const auto refuse = [](const std::string& message) {
    return Error(ErrorCode::kInvalidArgument, message);
  };
  if (!std::has_single_bit(params.icache_lines)) {
    return refuse(format("icache_lines = %u is not a nonzero power of two",
                         params.icache_lines));
  }
  if (!std::has_single_bit(params.icache_line_bytes)) {
    return refuse(format("icache_line_bytes = %u is not a nonzero power of "
                         "two",
                         params.icache_line_bytes));
  }
  if (params.icache_lines > kMaxIcacheLines) {
    return refuse(format("icache_lines = %u exceeds the cap of %u lines",
                         params.icache_lines, kMaxIcacheLines));
  }
  return Status();
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

Writer::Writer(const Header& header) : header_(header) {
  buffer_.reserve(kWriterReserve);
  const auto put_magic = [this](const char (&magic)[8]) {
    for (const char c : magic) buffer_.push_back(static_cast<u8>(c));
  };
  put_magic(kTraceMagic);
  put_u32(buffer_, header_.version);
  put_u32(buffer_, header_.flags);
  put_u64(buffer_, header_.fingerprint);
  put_u32(buffer_, header_.entry_pc);
  put_params(buffer_, header_.recorded);
  end_ = buffer_.data() + buffer_.size();
  grow(0);
}

void Writer::grow(std::size_t size) {
  const std::size_t used = static_cast<std::size_t>(end_ - buffer_.data());
  buffer_.resize(used + std::max(size, kWriterStep));
  end_ = buffer_.data() + used;
  limit_ = buffer_.data() + buffer_.size();
}

std::vector<u8> Writer::finish(Footer footer) {
  hash_appended();
  footer.stream_checksum = checksum_;
  finished_size_ = stream_size();
  std::vector<u8> out = std::move(buffer_);
  out.resize(static_cast<std::size_t>(end_ - out.data()));
  end_ = limit_ = nullptr;
  out.reserve(out.size() + 1 + kFooterBytes);
  out.push_back(static_cast<u8>(Tag::kEnd));
  for (const char c : kFooterMagic) out.push_back(static_cast<u8>(c));
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
  auto body = std::make_shared<Body>();
  body->bytes = std::move(bytes);
  const std::vector<u8>& raw = body->bytes;

  // Header: sized, magicked, versioned — each failure names its site.
  if (raw.size() < kHeaderBytes) {
    return parse_error(format("file is %zu bytes, smaller than the %zu-byte "
                              "header — not a trace or torn at creation",
                              raw.size(), kHeaderBytes));
  }
  if (!std::equal(kTraceMagic, kTraceMagic + 8, raw.data())) {
    return parse_error("bad magic: not an s4e binary trace");
  }
  Header& header = body->header;
  header.version = get_u32(raw.data() + 8);
  if (header.version != kTraceVersion) {
    return parse_error(format("unsupported trace version %u (this build "
                              "reads version %u)",
                              header.version, kTraceVersion));
  }
  header.flags = get_u32(raw.data() + 12);
  header.fingerprint = get_u64(raw.data() + 16);
  header.entry_pc = get_u32(raw.data() + 24);
  header.recorded = get_params(raw.data() + 28);
  // The recorded geometry sizes the icache walk decode() makes and indexes
  // its tag array.
  const Status geometry = check_icache_geometry(header.recorded);
  if (!geometry.ok()) {
    return parse_error("header's recorded " + geometry.error().message());
  }

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
  Footer& footer = body->footer;
  footer.stop_reason = static_cast<u8>(get_u32(footer_p + 8));
  footer.exit_code = static_cast<int>(get_u32(footer_p + 12));
  footer.instructions = get_u64(footer_p + 16);
  footer.blocks = get_u64(footer_p + 24);
  footer.mem_accesses = get_u64(footer_p + 32);
  footer.taints = get_u64(footer_p + 40);
  footer.recorded_cycles = get_u64(footer_p + 48);
  footer.stream_checksum = get_u64(footer_p + 56);

  body->stream_off = kHeaderBytes;
  body->stream_len = raw.size() - kHeaderBytes - 1 - kFooterBytes;
  const u8* stream = raw.data() + kHeaderBytes;
  const std::size_t stream_len = body->stream_len;
  if (stream[stream_len] != static_cast<u8>(Tag::kEnd)) {
    return parse_error("event stream is not kEnd-terminated: trace is torn");
  }

  // The one walk of the stream: hash and decode every byte, collect the
  // taint sites, and build what replay charges — the profile, the block PCs
  // and the instruction spans. Every tag that breaks out of the switch
  // retires `retired` instructions; the others continue. The checksum is
  // judged first, as if it had been checked before the walk: corrupt bytes
  // are reported as such, not as whatever decode error they happen to
  // cause. A block takes at least one stream byte, which bounds the
  // reservation whatever the (unchecked) footer says.
  //
  // The cursor and the instruction and access counts are locals that never
  // have their address taken, so the loop keeps them in registers; and a
  // branch's direction is counted without branching on it, as it is data
  // the host cannot predict.
  Profile profile;
  u64 insns = 0, mems = 0;
  std::vector<u32>& block_pcs = body->block_pcs;
  block_pcs.reserve(std::min<u64>(footer.blocks, stream_len));
  SpanBuilder spans(body->insn_spans);
  // The predictor's table is fixed-size and takes no TimingParams input, so
  // its mispredict sequence is the same under every configuration.
  vp::BimodalPredictor bimodal;
  Cursor cursor(stream, stream_len, header.entry_pc);
  Event event;
  while (cursor.next(event)) {
    u32 retired = 1;
    switch (event.tag) {
      case Tag::kBlock:
      case Tag::kBlockAt:
        block_pcs.push_back(event.pc);
        continue;
      case Tag::kTaint:
        body->taints.push_back(TaintSite{event.taint, event.pc});
        continue;
      case Tag::kTrapFetch:
        // Fetch/decode fault at a block head: no instruction executed, no
        // class cost — only trap entry if handled.
        if (event.handled) ++profile.fetch_traps_handled;
        continue;
      case Tag::kRun4:
      case Tag::kRun2:
        profile.plain += event.count;
        retired = event.count;
        break;
      case Tag::kJump:
        ++profile.jumps;
        break;
      case Tag::kBranchT:
      case Tag::kBranchN4:
      case Tag::kBranchN2: {
        const bool taken = event.tag == Tag::kBranchT;
        profile.branches_taken += taken ? 1 : 0;
        profile.branches_not_taken += taken ? 0 : 1;
        profile.mispredicts += bimodal.mispredict(event.pc, taken) ? 1 : 0;
        break;
      }
      case Tag::kLoad4: case Tag::kLoad2:
      case Tag::kStore4: case Tag::kStore2:
      case Tag::kLoadMmio4: case Tag::kLoadMmio2:
      case Tag::kStoreMmio4: case Tag::kStoreMmio2:
        ++profile.mem[(event.mem_store ? 1 : 0) | (event.mem_mmio ? 2 : 0)];
        ++mems;
        break;
      case Tag::kAmoRmw:  // read and write: two accesses
        ++mems;
        [[fallthrough]];
      case Tag::kAmoLoad:
      case Tag::kAmoStore:
        ++mems;
        [[fallthrough]];
      case Tag::kAmoFail:
        ++profile.amos;
        break;
      case Tag::kMul4: case Tag::kMul2:
        ++profile.muls;
        break;
      case Tag::kDiv4: case Tag::kDiv2:
        ++profile.divides[vp::TimingModel::divide_bits(event.dividend) - 1];
        break;
      case Tag::kCsr4: case Tag::kCsr2:
        ++profile.csrs;
        break;
      case Tag::kSysExit:
        ++profile.sys_exits;
        break;
      case Tag::kMret:
      case Tag::kWfiHalt:
        ++profile.sys_redirects;
        break;
      case Tag::kWfiSleep:
        ++profile.wfi_sleeps;
        break;
      case Tag::kTrapInsn:
        ++profile.traps[event.op_class][event.handled ? 1 : 0];
        break;
      case Tag::kEnd:
      case Tag::kCount:
        continue;  // Cursor refuses both
    }
    insns += retired;
    spans.append(event.pc, retired, event.length);
  }
  spans.finish();
  profile.instructions = insns;
  body->profile = profile;
  if (cursor.checksum() != footer.stream_checksum) {
    return parse_error(format("stream checksum mismatch (stored %016llx, "
                              "computed %016llx): trace bytes are corrupt",
                              static_cast<unsigned long long>(
                                  footer.stream_checksum),
                              static_cast<unsigned long long>(
                                  cursor.checksum())));
  }
  if (!cursor.ok()) {
    return parse_error(format("event stream decode failed at byte %zu: %s",
                              cursor.offset(), cursor.error().c_str()));
  }
  // A wrong count means the footer belongs to different stream bytes — a
  // spliced or mis-rewritten file.
  const u64 blocks = block_pcs.size();
  const u64 taints = body->taints.size();
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
  return Trace(std::move(body));
}

std::string Cursor::describe(Failure failure, u64 detail_value) {
  const auto detail = static_cast<unsigned long long>(detail_value);
  switch (failure) {
    case Failure::kNone: return "";
    case Failure::kUnknownTag:
      return format("unknown event tag 0x%02llx", detail);
    case Failure::kEmbeddedEnd:
      return "embedded kEnd before the stream terminator";
    case Failure::kVarintOverflow: return "varint overflows 64 bits";
    case Failure::kVarintPastEnd:
      return "varint runs past the end of the stream";
    case Failure::kTrapInfoMissing: return "kTrapInsn missing its info byte";
    case Failure::kTrapClass:
      return format("kTrapInsn names instruction class %llu, but there are "
                    "only %u classes",
                    detail, isa::kOpClassCount);
    case Failure::kFetchInfoMissing:
      return "kTrapFetch missing its info byte";
    case Failure::kTaintKind:
      return format("unknown taint kind %llu", detail);
  }
  return "";
}

}  // namespace s4e::trace
