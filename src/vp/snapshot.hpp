// Machine snapshot/restore layer — the VP's savevm/loadvm analogue.
//
// A Snapshot captures complete machine state: hart (GPRs/PC/CSRs), cycle
// and instret counters, microarchitectural model state (icache tags, branch
// predictor), an image of the bus's one RAM, and one opaque blob per mapped
// device. Both directions cost what the program touched, not the configured
// RAM size: the bus maintains a per-page dirty bitmap on its RAM write path,
// folded into a `populated` bitmap (every page written since construction)
// at each capture and restore. A capture copies only the populated pages
// into a lazily zeroed image (vp/page_buffer.hpp) — every other page is
// known to be zero — and a restore copies back only the dirty pages.
// Campaign engines snapshot once per worker and restore per mutant, keeping
// the translation-block cache warm across runs.
//
// A *rung* (Machine::save_rung) is a snapshot taken later on the same run
// as a full one, its `base`: it holds only the pages written since the base
// (RamDelta), and reads every other page from the base's image. A worker
// keeps a ladder of rungs along the golden run, so a transient fault starts
// at the rung below its trigger instead of re-running the golden prefix. A
// restore to a different snapshot than the last one copies every page that
// either snapshot's delta, or the run since, has dirtied.
//
// Invariants:
//   * After a restore every translation block holds the translation of the
//     snapshot's bytes. The restore applies pending TB maintenance, then
//     compares the dirty pages that overlap translated code with the image
//     and passes the bytes that differ to Machine::code_changed, which
//     re-lowers the blocks over them in place, or drops those whose shape
//     the bytes change. A block whose source bytes (its instructions, plus
//     the parcel it was cut before, if any) are unchanged is not touched.
//   * A run on a restored machine is bit-identical — RunResult, UART
//     output, memory hash, cycle counts — to the same run on a freshly
//     constructed machine (property-tested over generated programs). For a
//     rung this holds because rungs sit at quiet block heads: the dispatch
//     the restored run starts with changes nothing a run through that point
//     would not, and the icache model probes once per dispatched block.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "vp/cpu.hpp"
#include "vp/page_buffer.hpp"
#include "vp/timing.hpp"  // kBimodalEntries

namespace s4e::vp {

// Dirty-tracking granule of the bus RAM. Small enough that a short
// mutant run touching a few stack/data words restores in a handful of page
// copies, large enough to keep the bitmap negligible (4 MiB -> 4096 bits).
inline constexpr u32 kRamPageBytes = 1024;

// Little-endian byte-stream writer for device state blobs. Devices append
// their complete state in save_state() and read it back, in the same order,
// in restore_state().
class StateWriter {
 public:
  void put_u8(u8 value) { bytes_.push_back(value); }
  void put_u32(u32 value) {
    const u8 bytes[4] = {static_cast<u8>(value), static_cast<u8>(value >> 8),
                         static_cast<u8>(value >> 16),
                         static_cast<u8>(value >> 24)};
    put_bytes(bytes, 4);
  }
  void put_u64(u64 value) {
    put_u32(static_cast<u32>(value));
    put_u32(static_cast<u32>(value >> 32));
  }
  void put_bytes(const void* data, std::size_t size) {
    const u8* bytes = static_cast<const u8*>(data);
    bytes_.insert(bytes_.end(), bytes, bytes + size);
  }
  // Length-prefixed convenience for strings / byte containers.
  void put_blob(const void* data, std::size_t size) {
    put_u64(size);
    put_bytes(data, size);
  }

  std::vector<u8> take() { return std::move(bytes_); }

 private:
  std::vector<u8> bytes_;
};

// Reader over a blob produced by StateWriter. Underflow means the device's
// save/restore pair went out of sync — a programming error, checked hard.
class StateReader {
 public:
  explicit StateReader(const std::vector<u8>& bytes) : bytes_(&bytes) {}

  u8 get_u8() {
    S4E_CHECK_MSG(pos_ + 1 <= bytes_->size(), "device state blob underflow");
    return (*bytes_)[pos_++];
  }
  u32 get_u32() {
    S4E_CHECK_MSG(pos_ + 4 <= bytes_->size(), "device state blob underflow");
    const u8* p = bytes_->data() + pos_;
    pos_ += 4;
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
  }
  u64 get_u64() {
    const u64 lo = get_u32();
    return lo | (static_cast<u64>(get_u32()) << 32);
  }
  void get_bytes(void* data, std::size_t size) {
    S4E_CHECK_MSG(pos_ + size <= bytes_->size(),
                  "device state blob underflow");
    std::copy(bytes_->begin() + static_cast<std::ptrdiff_t>(pos_),
              bytes_->begin() + static_cast<std::ptrdiff_t>(pos_ + size),
              static_cast<u8*>(data));
    pos_ += size;
  }
  u64 get_blob_size() { return get_u64(); }

  bool exhausted() const noexcept { return pos_ == bytes_->size(); }

 private:
  const std::vector<u8>* bytes_;
  std::size_t pos_ = 0;
};

// Image of the bus RAM at snapshot time: its populated pages are copied
// in, every other page reads as zero.
struct RamImage {
  PageBuffer bytes;
};

// The RAM pages a rung holds: those written since its base snapshot, as a
// bitmap (one bit per kRamPageBytes page) and as their contents,
// kRamPageBytes per page in page order.
struct RamDelta {
  std::vector<u64> bitmap;
  std::vector<u32> pages;
  std::vector<u8> bytes;
};

// Complete machine state captured by Machine::save_state() (`ram` holds
// the full image) or Machine::save_rung() (`ram_delta` holds the pages
// written since `base`, which supplies the rest and must outlive the
// rung).
struct Snapshot {
  u64 icount = 0;
  u64 cycles = 0;
  u64 icache_misses = 0;
  std::vector<u32> icache_tags;
  std::array<u8, kBimodalEntries> bimodal{};
  RamImage ram;
  const Snapshot* base = nullptr;
  RamDelta ram_delta;
  std::vector<std::vector<u8>> device_state;  // one blob per mapped device
  // Every hart (architectural state + LR/SC reservation; the active hart's
  // is `harts[active_hart]`) and the round-robin scheduler position.
  std::vector<Hart> harts;
  u32 active_hart = 0;
  u64 slice_end = 0;
  u64 slice_start_icount = 0;
  std::vector<u64> hart_icount;
  bool valid = false;
};

// Cumulative snapshot/restore cost accounting (the --snapshot-stats
// output). Plain counters so per-worker instances sum deterministically.
struct SnapshotStats {
  u64 snapshots = 0;
  u64 restores = 0;
  u64 pages_saved = 0;    // populated pages copied in across all captures
  u64 pages_copied = 0;   // dirty pages written back across all restores
  u64 pages_total = 0;    // pages a full-RAM restore would copy, summed
  // Translation blocks over source bytes a restore changed: dropped, or
  // re-lowered in place (Machine::code_changed). Pending TB maintenance a
  // restore applies is not counted here.
  u64 tb_blocks_invalidated = 0;
  u64 tb_blocks_relowered = 0;
  // The golden checkpoint ladder: rungs captured, and the pages they copied.
  u64 rungs = 0;
  u64 rung_pages = 0;
  // The campaign driver's exact shortcuts. Items reported from the golden
  // recording without a run (dead faults), and the instructions those
  // reports carry; restores to a rung, and the golden instructions they did
  // not re-execute; runs stopped at a repeated state, and the instructions
  // between that stop and the budget they report.
  u64 dead_skipped = 0;
  u64 dead_insns = 0;
  u64 fast_forwards = 0;
  u64 prefix_insns = 0;
  u64 hangs_stopped = 0;
  u64 hang_insns = 0;
  // Instructions the items report, and those their runs executed.
  u64 insns_reported = 0;
  u64 insns_executed = 0;

  SnapshotStats& operator+=(const SnapshotStats& other) noexcept {
    snapshots += other.snapshots;
    restores += other.restores;
    pages_saved += other.pages_saved;
    pages_copied += other.pages_copied;
    pages_total += other.pages_total;
    tb_blocks_invalidated += other.tb_blocks_invalidated;
    tb_blocks_relowered += other.tb_blocks_relowered;
    rungs += other.rungs;
    rung_pages += other.rung_pages;
    dead_skipped += other.dead_skipped;
    dead_insns += other.dead_insns;
    fast_forwards += other.fast_forwards;
    prefix_insns += other.prefix_insns;
    hangs_stopped += other.hangs_stopped;
    hang_insns += other.hang_insns;
    insns_reported += other.insns_reported;
    insns_executed += other.insns_executed;
    return *this;
  }

  std::string to_string() const;
};

}  // namespace s4e::vp
