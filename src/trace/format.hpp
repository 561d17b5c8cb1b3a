// Binary execution-trace format — the capture side of the capture-once /
// replay-many differential timing engine (Hsu et al.: record one
// instruction-level trace, evaluate arbitrarily many timing models offline).
//
// The format is a delta-encoded event stream, not an instruction log: the
// reader maintains a PC cursor, plain straight-line instructions are
// run-length encoded (one tag + varint count for a whole basic block of
// ALU ops), control transfers carry a zigzag PC delta, and memory accesses a
// zigzag address delta against the previous access. Everything the timing
// models of vp/timing.hpp can charge for is preserved exactly:
//
//   header   magic "S4ETRACE", version, program fingerprint (FNV-1a, the
//            fleet scheme), entry PC, and the TimingParams the recording
//            run used (replaying them must land on the footer's cycle
//            count — the trace's built-in self check).
//   events   tag byte + varint payloads, terminated by kEnd:
//              kBlock        block dispatch at the cursor (== one icache
//                            probe and one tb_exec callback)
//              kRun4/kRun2   n plain base-cost instructions (RLE)
//              kJump/kBranchT/kBranchN*  control transfers (taken bit is
//                            explicit: a taken branch to the fall-through
//                            address is indistinguishable from not-taken in
//                            the bare PC stream, but trains the predictor
//                            differently)
//              kLoad*/kStore*/kAmo*      data accesses, RAM vs MMIO
//              kMul/kDiv/kCsr            latency classes (kDiv carries the
//                            dividend: the iterative divider's cost is
//                            operand-dependent)
//              kTrapInsn/kTrapFetch      synchronous traps with cause and
//                            handler target
//              kTaint        a timing-path-sensitive site (cycle CSR read,
//                            CLINT/GPIO load, interrupt, non-final wfi):
//                            the executed path could differ under another
//                            timing configuration, so replay REJECTS the
//                            whole trace, per site, loudly
//   footer   magic "S4ETFOOT", stop reason, exit code, instruction/block/
//            event counts, the recorded-configuration cycle count, and an
//            FNV-1a checksum of the event bytes. The footer is written
//            last (after an fsync-able temp file), so a truncated or
//            crashed recording is detected by its absence, not by UB.
//
// Who walks the stream: the Writer checksums the bytes appended since the
// last block dispatch at each dispatch, so finish() hashes only the last
// block's. Trace::parse() reads the stream exactly once, through Cursor,
// which hashes each byte as it decodes it; that one validating walk checks
// the checksum, cross-checks the footer, collects the taint sites, and
// builds the replay Profile, the block-PC sequence and the instruction
// spans, which the Trace keeps in one immutable shared body.
// DecodedTrace::decode (replay.hpp) walks no events: it refuses taints,
// shares that body and counts the icache misses over the block PCs once.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/fnv1a.hpp"
#include "common/status.hpp"
#include "isa/opcode.hpp"
#include "vp/timing.hpp"

namespace s4e::assembler {
struct Program;
}

namespace s4e::trace {

inline constexpr char kTraceMagic[8] = {'S', '4', 'E', 'T',
                                        'R', 'A', 'C', 'E'};
inline constexpr char kFooterMagic[8] = {'S', '4', 'E', 'T',
                                         'F', 'O', 'O', 'T'};
inline constexpr u32 kTraceVersion = 1;

// Event stream tags. The *4/*2 suffix is the instruction length (the cursor
// must advance by it); redirecting events carry the target delta instead.
enum class Tag : u8 {
  kEnd = 0x00,
  kBlock = 0x01,       // block dispatched at cursor (icache probe point)
  kRun4 = 0x02,        // varint n: n plain 4-byte base-cost instructions
  kRun2 = 0x03,        // varint n: 2-byte forms
  kJump = 0x04,        // varint zz(target - pc): jal/jalr
  kBranchT = 0x05,     // varint zz(target - pc): taken conditional branch
  kBranchN4 = 0x06,    // not-taken conditional branch, 4-byte form
  kBranchN2 = 0x07,    // not-taken conditional branch, 2-byte form
  kLoad4 = 0x08,       // RAM load + mem payload
  kLoad2 = 0x09,
  kStore4 = 0x0a,      // RAM store + mem payload
  kStore2 = 0x0b,
  kLoadMmio4 = 0x0c,   // MMIO load + mem payload
  kLoadMmio2 = 0x0d,
  kStoreMmio4 = 0x0e,  // MMIO store + mem payload
  kStoreMmio2 = 0x0f,
  kAmoLoad = 0x10,     // lr.w: one read access + mem payload
  kAmoStore = 0x11,    // sc.w success: one write access + mem payload
  kAmoRmw = 0x12,      // amo*.w: read-modify-write, one mem payload
  kAmoFail = 0x13,     // sc.w failure: no memory access modelled
  kMul4 = 0x14,
  kMul2 = 0x15,
  kDiv4 = 0x16,        // varint dividend (rs1 at issue)
  kDiv2 = 0x17,
  kCsr4 = 0x18,        // counter-free CSR access
  kCsr2 = 0x19,
  kSysExit = 0x1a,     // ecall exit convention (a7 = 93); trace ends
  kMret = 0x1b,        // varint zz(target - pc)
  kWfiHalt = 0x1c,     // final wfi (timer interrupts disabled); trace ends
  kTrapInsn = 0x1d,    // executed instruction ended in a synchronous trap:
                       //   u8 info (class | kTrapLen4 | kTrapHandled),
                       //   varint cause, varint zz(handler - pc) if handled
  kTrapFetch = 0x1e,   // block-head fetch/decode trap, no instruction
                       //   executed: u8 info, varint cause,
                       //   varint zz(handler - cursor) if handled
  kTaint = 0x1f,       // varint kind: timing-path-sensitive site at cursor
  kBlockAt = 0x20,     // varint zz(pc - cursor): block dispatch resync
                       //   (only follows taints — e.g. an interrupt moved
                       //   the PC somewhere the event stream cannot derive)
  kWfiSleep = 0x21,    // non-final wfi (always preceded by its kTaint:
                       //   modelled time fast-forwarded, replay refuses)
  kCount,
};

// kTrapInsn / kTrapFetch info-byte layout.
inline constexpr u8 kTrapClassMask = 0x0f;  // isa::OpClass of the insn
inline constexpr u8 kTrapLen4 = 0x20;       // 4-byte instruction form
inline constexpr u8 kTrapHandled = 0x40;    // mtvec != 0: handler entered

// Why replay must refuse a trace: the recorded path went through a site
// whose outcome depends on the timing configuration, so the same program
// could execute a *different* path under another TimingParams — replaying
// this trace under it would be fiction, not analysis.
enum class TaintKind : u8 {
  kCsrCycleRead = 0,  // rdcycle/mcycle: value is the config's cycle count
  kCsrTimeRead = 1,   // rdtime: mtime mirrors cycles
  kCsrMipRead = 2,    // MTIP is a function of cycles vs mtimecmp
  kClintLoad = 3,     // mtime/mtimecmp/msip MMIO read
  kGpioLoad = 4,      // GPIO input state is sampled at `now` (cycles)
  kClintStore = 5,    // arms timer/software interrupts (delivery is
                      // cycle-dependent)
  kWfiSleep = 6,      // non-final wfi fast-forwards modelled time
  kInterrupt = 7,     // asynchronous trap: delivery point is cycle-exact
  kCursorResync = 8,  // control flow diverged from the event stream
  kCount,
};

std::string_view to_string(TaintKind kind) noexcept;

// --- Varint codec (LEB128 + zigzag), shared by writer, reader and tests.

// A u64 takes at most 10 varint bytes.
inline constexpr std::size_t kMaxVarintBytes = 10;

// Writes `value` at `out`, which has room for kMaxVarintBytes; returns the
// byte after it.
inline u8* put_varint(u8* out, u64 value) noexcept {
  while (value >= 0x80) {
    *out++ = static_cast<u8>(value) | 0x80;
    value >>= 7;
  }
  *out++ = static_cast<u8>(value);
  return out;
}

inline void put_varint(std::vector<u8>& out, u64 value) {
  u8 bytes[kMaxVarintBytes];
  out.insert(out.end(), bytes, put_varint(bytes, value));
}

inline u64 zigzag(i64 value) noexcept {
  return (static_cast<u64>(value) << 1) ^ static_cast<u64>(value >> 63);
}

inline i64 unzigzag(u64 value) noexcept {
  return static_cast<i64>(value >> 1) ^ -static_cast<i64>(value & 1);
}

// The one decoded-event shape the reader yields. Fields are valid per tag:
// Cursor::next() writes `tag`, `pc` and the fields its tag documents, and
// leaves the rest as the previous event left them.
struct Event {
  Tag tag = Tag::kEnd;
  u32 pc = 0;        // instruction / block address (cursor at decode time)
  u32 target = 0;    // redirect target / trap handler entry (if handled)
  u32 count = 0;     // kRun*: run length
  u32 length = 0;    // instruction byte length (0 for redirects); not
                     // written for kBlock*, kTrapFetch and kTaint
  u32 dividend = 0;  // kDiv*
  u32 cause = 0;     // kTrap*
  u32 mem_addr = 0;  // data access address
  u8 mem_size = 0;   // data access size (1/2/4)
  u8 op_class = 0;   // kTrapInsn: isa::OpClass of the trapped instruction
  bool handled = false;    // kTrap*: handler entered (vs. run stopped)
  bool mem_store = false;  // data access direction
  bool mem_mmio = false;   // data access hit a device window
  TaintKind taint = TaintKind::kCsrCycleRead;
};

// Largest icache a trace header or a replay may name: an icache walk sizes
// its tag array from the line count.
inline constexpr u32 kMaxIcacheLines = 1u << 20;

// Refuses (kInvalidArgument, naming the field) an icache geometry the model
// cannot hold: a line count or line size that is not a nonzero power of
// two, or more than kMaxIcacheLines lines. parse() applies it to the
// header's recorded configuration, replay() to every configuration that
// turns the icache on.
Status check_icache_geometry(const vp::TimingParams& params);

// Fixed-size chunk layout: the header and the footer are plain
// little-endian u32/u64 fields — no varints, so a truncated file is
// length-checkable before any field is read.
inline constexpr std::size_t kHeaderBytes = 80;
inline constexpr std::size_t kFooterBytes = 64;

// Trace header: everything replay needs to refuse the wrong workload and to
// self-check against the recording run.
struct Header {
  u32 version = kTraceVersion;
  u32 flags = 0;
  u64 fingerprint = 0;  // program fingerprint (see program_fingerprint)
  u32 entry_pc = 0;
  vp::TimingParams recorded;  // the recording run's timing configuration
};

// Trace footer: counted so truncation is detected, checksummed so torn
// writes are detected.
struct Footer {
  u8 stop_reason = 0;        // vp::StopReason of the recording run
  int exit_code = 0;
  u64 instructions = 0;      // executed instructions (== replayed count)
  u64 blocks = 0;            // block dispatches (== icache probes)
  u64 mem_accesses = 0;      // data access records
  u64 taints = 0;            // taint sites (replay refuses when != 0)
  u64 recorded_cycles = 0;   // cycle count under `Header::recorded`
  u64 stream_checksum = 0;   // FNV-1a over the event-stream bytes
};

// FNV-1a (the fleet campaign-fingerprint scheme) over a program's loadable
// identity: section bases + bytes + entry PC. Used to bind a trace to the
// workload it was recorded from.
u64 program_fingerprint(const assembler::Program& program);

// --- Writer -----------------------------------------------------------------
//
// Append-only in-memory encoder. Its buffer holds the serialized header from
// the start, so finish() appends the terminator and the footer and hands the
// buffer over without copying the stream; save() writes it via a temp file +
// rename, so a crashed recorder never leaves a well-formed-looking partial
// trace behind. Appends write through a raw pointer, checking the room left
// once per event or pre-encoded chunk, and the stream's FNV-1a checksum is
// kept current block by block.
class Writer {
 public:
  explicit Writer(const Header& header);
  // Appends write through pointers into the writer's own buffer.
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  const Header& header() const noexcept { return header_; }

  void block() {
    hash_appended();
    put(Tag::kBlock);
  }
  void block_at(u32 pc, u32 cursor) {
    hash_appended();
    put(Tag::kBlockAt, zigzag(static_cast<i64>(pc) - cursor));
  }
  void run(u32 length, u32 count) {
    put(length == 4 ? Tag::kRun4 : Tag::kRun2, count);
  }
  void jump(u32 pc, u32 target) { redirect(Tag::kJump, pc, target); }
  void branch_taken(u32 pc, u32 target) { redirect(Tag::kBranchT, pc, target); }
  void branch_not_taken(u32 length) {
    put(length == 4 ? Tag::kBranchN4 : Tag::kBranchN2);
  }
  void mret(u32 pc, u32 target) { redirect(Tag::kMret, pc, target); }
  void mem(Tag tag, u32 addr, u8 size) {
    const u32 log2_size = size == 4 ? 2 : (size == 2 ? 1 : 0);
    put(tag, (zigzag(static_cast<i64>(addr) - prev_addr_) << 2) | log2_size);
    prev_addr_ = addr;
  }
  void amo_fail() { put(Tag::kAmoFail); }
  void mul(u32 length) { put(length == 4 ? Tag::kMul4 : Tag::kMul2); }
  void div(u32 length, u32 dividend) {
    put(length == 4 ? Tag::kDiv4 : Tag::kDiv2, dividend);
  }
  void csr(u32 length) { put(length == 4 ? Tag::kCsr4 : Tag::kCsr2); }
  void sys_exit() { put(Tag::kSysExit); }
  void wfi_halt() { put(Tag::kWfiHalt); }
  void wfi_sleep() { put(Tag::kWfiSleep); }
  void trap_insn(u8 op_class, u32 length, bool handled, u32 cause, u32 pc,
                 u32 handler) {
    trap(Tag::kTrapInsn,
         static_cast<u8>((op_class & kTrapClassMask) |
                         (length == 4 ? kTrapLen4 : 0) |
                         (handled ? kTrapHandled : 0)),
         handled, cause, zigzag(static_cast<i64>(handler) - pc));
  }
  void trap_fetch(bool handled, u32 cause, u32 cursor, u32 handler) {
    trap(Tag::kTrapFetch, handled ? kTrapHandled : 0, handled, cause,
         zigzag(static_cast<i64>(handler) - cursor));
  }
  void taint(TaintKind kind) { put(Tag::kTaint, static_cast<u64>(kind)); }

  // Appends `size` pre-encoded event bytes (a recorder's block template).
  // The copy moves whole 16-byte grains, so `bytes` must stay readable
  // kAppendSlack bytes past its end.
  static constexpr std::size_t kAppendSlack = 15;
  void append(const u8* bytes, std::size_t size) {
    u8* out = room(size + kAppendSlack);
    for (std::size_t i = 0; i < size; i += 16) {
      std::memcpy(out + i, bytes + i, 16);
    }
    end_ = out + size;
  }

  // Stream bytes appended so far; after finish(), the whole stream's.
  std::size_t stream_size() const noexcept {
    return end_ != nullptr
               ? static_cast<std::size_t>(end_ - buffer_.data()) - kHeaderBytes
               : finished_size_;
  }

  // Serialize header + stream + kEnd + footer, with `footer.stream_checksum`
  // computed here; the caller fills the run facts. Ends the writer: its
  // buffer becomes the result.
  std::vector<u8> finish(Footer footer);

  // finish() + atomic write (temp + fsync + rename).
  Status save(const std::string& path, Footer footer);

 private:
  // The longest event: tag, trap info byte and two varints.
  static constexpr std::size_t kMaxEventBytes = 2 + 2 * kMaxVarintBytes;

  // Where the next `size` bytes go; the buffer grows to hold them.
  u8* room(std::size_t size) {
    if (static_cast<std::size_t>(limit_ - end_) < size) [[unlikely]] {
      grow(size);
    }
    return end_;
  }
  void grow(std::size_t size);
  // Mixes the bytes appended since the last call into the checksum: once
  // per block, so the hash's serial chain overlaps the run instead of
  // adding to it.
  void hash_appended() {
    const u8* from = buffer_.data() + hashed_;
    checksum_ = fnv1a(from, static_cast<std::size_t>(end_ - from), checksum_);
    hashed_ = static_cast<std::size_t>(end_ - buffer_.data());
  }
  void put(Tag tag) {
    u8* out = room(1);
    *out = static_cast<u8>(tag);
    end_ = out + 1;
  }
  void put(Tag tag, u64 value) {
    u8* out = room(1 + kMaxVarintBytes);
    *out = static_cast<u8>(tag);
    end_ = put_varint(out + 1, value);
  }
  void redirect(Tag tag, u32 pc, u32 target) {
    put(tag, zigzag(static_cast<i64>(target) - pc));
  }
  void trap(Tag tag, u8 info, bool handled, u32 cause, u64 handler_delta) {
    u8* out = room(kMaxEventBytes);
    out[0] = static_cast<u8>(tag);
    out[1] = info;
    out = put_varint(out + 2, cause);
    end_ = handled ? put_varint(out, handler_delta) : out;
  }

  Header header_;
  // The header, then the stream up to end_; sized to its capacity, limit_.
  std::vector<u8> buffer_;
  u8* end_ = nullptr;
  u8* limit_ = nullptr;
  std::size_t hashed_ = kHeaderBytes;  // buffer_ offset the checksum covers
  std::size_t finished_size_ = 0;     // stream_size() once finish() ran
  u64 checksum_ = kFnv1aOffsetBasis;
  u32 prev_addr_ = 0;
};

// --- Reader -----------------------------------------------------------------

// One taint occurrence with enough context for a per-site diagnostic.
struct TaintSite {
  TaintKind kind = TaintKind::kCsrCycleRead;
  u32 pc = 0;  // cursor at the taint event
};

// Event counts by what a timing configuration charges them: how many
// instructions of each latency class ran (plain, jump, taken / not-taken
// branch, RAM / MMIO load and store, AMO, mul, CSR, exit, mret / final wfi),
// divides bucketed by the dividend's significant-bit count, trapped
// instructions by (class, handled), handled fetch traps, and the bimodal
// predictor's mispredict count (its 256-entry table takes no TimingParams
// input, so the sequence is the same under every configuration). Indexed
// tables are sized by the decoder's own validation: divide bit counts are
// 1..32, and Cursor refuses a trap class outside isa::OpClass.
struct Profile {
  u64 instructions = 0;
  u64 plain = 0;               // kRun*: base-cost instructions
  u64 jumps = 0;
  u64 branches_taken = 0;
  u64 branches_not_taken = 0;
  u64 mem[4] = {};             // [store | mmio << 1]
  u64 amos = 0;
  u64 muls = 0;
  u64 csrs = 0;
  u64 sys_exits = 0;
  u64 sys_redirects = 0;       // mret and final wfi
  u64 wfi_sleeps = 0;          // non-final wfi: replay refuses the trace
  u64 divides[32] = {};        // [dividend significant bits - 1]
  u64 traps[isa::kOpClassCount][2] = {};  // [class][handled]
  u64 fetch_traps_handled = 0;
  u64 mispredicts = 0;         // bimodal, over every conditional branch
};

// `count` instructions from `pc`, `stride` bytes apart. The retired-PC
// sequence of a trace is a list of these straight-line stretches.
struct InsnSpan {
  u32 pc = 0;
  u32 count = 0;
  u32 stride = 0;
};

// A fully validated trace: load() refuses bad magic, bad version, a header
// icache geometry no model can size, missing or torn footers and checksum
// mismatches with a per-site diagnostic, and walks the stream once so counts
// are verified against the footer before any replay trusts them. The same
// walk derives what replay charges (profile(), block_pcs(), insn_spans()).
// A Trace is an immutable handle: copies share one body.
class Trace {
 public:
  static Result<Trace> load(const std::string& path);
  static Result<Trace> parse(std::vector<u8> bytes);

  const Header& header() const noexcept { return body_->header; }
  const Footer& footer() const noexcept { return body_->footer; }
  const std::vector<TaintSite>& taints() const noexcept {
    return body_->taints;
  }

  // Raw event-stream bytes (excluding the kEnd terminator).
  const u8* stream_data() const noexcept {
    return body_->bytes.data() + body_->stream_off;
  }
  std::size_t stream_size() const noexcept { return body_->stream_len; }

  // The replay profile of the whole stream (see Profile).
  const Profile& profile() const noexcept { return body_->profile; }
  // One PC per block dispatch, in order: the icache model's input.
  const std::vector<u32>& block_pcs() const noexcept {
    return body_->block_pcs;
  }
  // The retired-instruction PC sequence, RLE runs kept as spans.
  const std::vector<InsnSpan>& insn_spans() const noexcept {
    return body_->insn_spans;
  }

 private:
  struct Body {
    std::vector<u8> bytes;
    std::size_t stream_off = 0;
    std::size_t stream_len = 0;
    Header header;
    Footer footer;
    std::vector<TaintSite> taints;
    Profile profile;
    std::vector<u32> block_pcs;
    std::vector<InsnSpan> insn_spans;
  };
  explicit Trace(std::shared_ptr<const Body> body) : body_(std::move(body)) {}

  std::shared_ptr<const Body> body_;
};

// Streaming decoder over a trace's event bytes — the only one: parse()'s
// walk runs every event through next(), which is defined below and always
// inlined (left to its size heuristics the compiler calls it, and the
// cursor's state round-trips through memory on every event), so that walk
// compiles to one loop. Maintains the PC cursor and the mem-address delta
// state; next() yields one event (kRun* events carry their full count —
// the caller expands them). Returns false at stream end. Decode errors
// (unknown tag, varint overrun, a trap class outside isa::OpClass) end the
// stream and are reported via error().
class Cursor {
 public:
  Cursor(const u8* data, std::size_t size, u32 entry_pc)
      : p_(data), end_(data + size), pc_(entry_pc) {}
  explicit Cursor(const Trace& trace)
      : Cursor(trace.stream_data(), trace.stream_size(),
               trace.header().entry_pc) {}

  bool next(Event& out);

  bool ok() const noexcept { return failure_ == Failure::kNone; }
  // The decode error's diagnostic ("" while ok()).
  std::string error() const { return describe(failure_, detail_); }
  // FNV-1a over the stream bytes read so far — over the whole stream once
  // next() has returned false, a failed decode included (the bytes it did
  // not read are hashed here) — so a walk checks the footer's checksum
  // without a second pass over the bytes.
  u64 checksum() const noexcept {
    return fnv1a(stop_, static_cast<std::size_t>(end_ - stop_), checksum_);
  }
  // Byte offset of the *last decoded* event (for diagnostics).
  std::size_t offset() const noexcept { return event_off_; }

 private:
  // What stopped the decode; error() words it. The cursor keeps no string,
  // and none of its members is called out of line, so a walk that inlines
  // next() can hold the whole decoder state in registers.
  enum class Failure : u8 {
    kNone,
    kUnknownTag,        // detail: the tag byte
    kEmbeddedEnd,
    kVarintOverflow,
    kVarintPastEnd,
    kTrapInfoMissing,
    kTrapClass,         // detail: the class
    kFetchInfoMissing,
    kTaintKind,         // detail: the kind
  };
  static std::string describe(Failure failure, u64 detail);
  // Records the failure and skips the rest of the stream, so next() needs
  // no error test of its own.
  bool fail(Failure failure, u64 detail = 0) {
    failure_ = failure;
    detail_ = detail;
    stop_ = p_;
    p_ = end_;
    return false;
  }
  // Every stream byte is read through take(), which hashes it.
  u8 take() {
    const u8 byte = *p_++;
    checksum_ = fnv1a_byte(checksum_, byte);
    return byte;
  }
  [[gnu::always_inline]] bool get_varint(u64& out) {
    if (p_ != end_ && *p_ < 0x80) [[likely]] {  // one-byte form
      out = take();
      return true;
    }
    out = 0;
    unsigned shift = 0;
    while (p_ != end_) {
      const u8 byte = take();
      if (shift >= 63 && byte > 1) return fail(Failure::kVarintOverflow);
      out |= static_cast<u64>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
      shift += 7;
    }
    return fail(Failure::kVarintPastEnd);
  }

  const u8* p_;
  const u8* end_;
  const u8* begin_ = p_;
  const u8* stop_ = end_;  // where a failed decode stopped reading
  u32 pc_;
  u32 prev_addr_ = 0;
  std::size_t event_off_ = 0;
  Failure failure_ = Failure::kNone;
  u64 detail_ = 0;
  u64 checksum_ = kFnv1aOffsetBasis;
};

[[gnu::always_inline]] inline bool Cursor::next(Event& out) {
  if (p_ == end_) return false;  // clean end of stream, or a failed decode
  event_off_ = static_cast<std::size_t>(p_ - begin_);
  const u8 tag_byte = take();
  if (tag_byte >= static_cast<u8>(Tag::kCount)) [[unlikely]] {
    return fail(Failure::kUnknownTag, tag_byte);
  }
  out.tag = static_cast<Tag>(tag_byte);
  out.pc = pc_;
  u64 value = 0;
  switch (out.tag) {
    case Tag::kEnd:
    case Tag::kCount:  // refused above
      return fail(Failure::kEmbeddedEnd);
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
      out.length = 0;
      pc_ = out.target;
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
      out.mem_mmio = false;
      out.length = 4;
      pc_ += 4;
      break;
    case Tag::kDiv4: case Tag::kDiv2:
      if (!get_varint(value)) return false;
      out.dividend = static_cast<u32>(value);
      out.length = out.tag == Tag::kDiv4 ? 4 : 2;
      pc_ += out.length;
      break;
    case Tag::kBranchN4: case Tag::kBranchN2:
    case Tag::kMul4: case Tag::kMul2:
    case Tag::kCsr4: case Tag::kCsr2:
      // Paired tags: the 4-byte form is the even one.
      out.length = (tag_byte & 1) != 0 ? 2 : 4;
      pc_ += out.length;
      break;
    case Tag::kAmoFail:
    case Tag::kSysExit:
    case Tag::kWfiHalt:
    case Tag::kWfiSleep:
      out.length = 4;
      pc_ += 4;
      break;
    case Tag::kTrapInsn: {
      if (p_ == end_) return fail(Failure::kTrapInfoMissing);
      const u8 info = take();
      out.op_class = info & kTrapClassMask;
      if (out.op_class >= isa::kOpClassCount) {
        return fail(Failure::kTrapClass, out.op_class);
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
      if (p_ == end_) return fail(Failure::kFetchInfoMissing);
      const u8 info = take();
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
        return fail(Failure::kTaintKind, value);
      }
      out.taint = static_cast<TaintKind>(value);
      break;
  }
  return true;
}

}  // namespace s4e::trace
