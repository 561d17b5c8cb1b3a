// Translation-block cache: the VP's analogue of QEMU's TCG code cache.
//
// Guest code is decoded once per basic block, lowered to the threaded
// DecodedInsn form (see exec_engine.hpp), and reused on every re-execution.
// A change of translated code bytes (a self-modifying store, a code fault
// injected through the plugin API, a mutant patch, a snapshot restore that
// changes code bytes, a debugger write) goes through
// Machine::code_changed: a block whose re-decoded instructions keep their
// lengths and block-ending roles is re-lowered in place, every other
// overlapping block is dropped. The E1 experiment ablates this cache
// against per-instruction re-decoding.
//
// Chaining model: blocks carry direct successor pointers (fall-through and
// static-branch edges) plus a 2-entry jump cache per indirect exit, patched
// lazily by the execution engine. Links are severed *logically*, not by
// walking back-pointers: every slot records the cache's chain epoch at patch
// time, and any drop of a block (flush, invalidate_range, a code change
// that drops one, re-insert) bumps the epoch, making every outstanding link
// stale in O(1). A stale link is never dereferenced — the epoch is checked
// first — so block destruction needs no unlinking pass. A block re-lowered
// in place stays the same object, so links into it stay valid; only its
// own taken edge is cleared when its static target changed. A run that
// drops no block severs no chain.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vp/exec_engine.hpp"

namespace s4e::vp {

struct TranslationBlock;

// True if [lo, hi) intersects one of `ranges`: [address, address + size)
// pairs, sorted by address and disjoint. 64-bit bounds, so a range or a
// block ending at 2^32 is compared exactly.
inline bool overlaps_any(std::span<const std::pair<u32, u32>> ranges, u64 lo,
                         u64 hi) noexcept {
  // Sorted and disjoint, so range ends ascend too: the first range ending
  // past `lo` is the only candidate for overlapping [lo, hi).
  const auto it = std::partition_point(
      ranges.begin(), ranges.end(), [lo](const std::pair<u32, u32>& r) {
        return u64{r.first} + r.second <= lo;
      });
  return it != ranges.end() && it->first < hi;
}

// A direct chain edge: valid iff `epoch` matches the cache's current chain
// epoch.
struct ChainSlot {
  TranslationBlock* target = nullptr;
  u64 epoch = 0;
};

struct TranslationBlock {
  u32 start = 0;
  u32 byte_size = 0;
  // Bytes of the parcel the block was cut before because it could not be
  // fetched or decoded. They decided where the block ends, so invalidation
  // and the code watermark cover [start, source_end()).
  u32 cut_bytes = 0;
  // The lowered threaded form the execution engine actually runs, one entry
  // per instruction in address order.
  std::vector<DecodedInsn> code;
  // Times the block was dispatched (chained or careful): an exact
  // per-basic-block execution count.
  u64 exec_count = 0;

  // --- Chaining metadata (engine-owned, see machine.cpp run_chain). ---
  u32 fall_pc = 0;   // pc after the last instruction (fall-through edge)
  u32 taken_pc = 0;  // static target of a terminating branch/jal, else 0
  ChainSlot chain_fall;   // fall-through successor
  ChainSlot chain_taken;  // taken-branch / jal successor
  // 2-entry jump cache for an indirect terminator (jalr/mret), most
  // recently used first.
  struct JumpCacheEntry {
    u32 pc = 0;
    TranslationBlock* target = nullptr;
    u64 epoch = 0;
  };
  std::array<JumpCacheEntry, 2> jc{};

  // One past the last instruction byte and one past the last source byte,
  // 64-bit: a block may end exactly at 2^32.
  u64 end() const noexcept { return u64{start} + byte_size; }
  u64 source_end() const noexcept { return end() + cut_bytes; }
};

class TbCache {
 public:
  // Max instructions per block (QEMU uses a similar translation bound).
  static constexpr unsigned kMaxBlockInsns = 64;
  // Most source bytes one block covers: 64 4-byte instructions and the
  // parcel it was cut before. A block overlapping an address starts at
  // most this far below it.
  static constexpr u32 kMaxSourceBytes = kMaxBlockInsns * 4 + 4;
  // Direct-mapped front cache in front of the hash map: the block-dispatch
  // loop hits lookup() once per executed block, and campaign workloads
  // re-execute a handful of hot blocks millions of times. Power of two.
  static constexpr std::size_t kFrontEntries = 1024;

  TranslationBlock* lookup(u32 pc) noexcept {
    FrontEntry& front = front_[front_slot(pc)];
    if (front.block != nullptr && front.pc == pc) {
      ++front_hits_;
      return front.block;
    }
    auto it = blocks_.find(pc);
    if (it == blocks_.end()) {
      ++lookup_misses_;
      return nullptr;
    }
    ++deep_hits_;
    front = {pc, it->second.get()};
    return front.block;
  }

  TranslationBlock* insert(std::unique_ptr<TranslationBlock> block) {
    TranslationBlock* raw = block.get();
    code_lo_ = std::min(code_lo_, raw->start);
    code_hi_ = std::max(code_hi_, raw->source_end());
    auto& slot = blocks_[raw->start];
    if (slot != nullptr) {
      // Re-inserting at a live pc destroys the old block: sever every link
      // that may point at it. (The normal paths invalidate first, so this is
      // a defensive rarity.)
      sever_chains();
    }
    slot = std::move(block);
    front_[front_slot(raw->start)] = {raw->start, raw};
    index_stale_ = true;
    return raw;
  }

  // Drop every block. Counted as a flush, and severing every chain, only
  // when there was a block to drop: an empty cache holds no link.
  void flush() noexcept {
    const bool dropped = !blocks_.empty();
    blocks_.clear();
    front_.fill(FrontEntry{});
    by_start_.clear();
    index_stale_ = false;
    code_lo_ = ~u32{0};
    code_hi_ = 0;
    if (dropped) {
      ++flush_count_;
      sever_chains();
    }
  }

  // What a code change did to the blocks over the changed bytes.
  struct CodeChange {
    u64 relowered = 0;
    u64 dropped = 0;
  };

  // Code bytes in `ranges` ([address, size) pairs, sorted by address and
  // disjoint) changed. Calls `relower(block)` on every block whose source
  // bytes [start, source_end()) overlap a range, in address order: a block
  // it re-lowered in place (returning true) stays, every other is dropped,
  // and a drop severs every chain. The blocks are found through an
  // address-ordered index, rebuilt here when blocks were translated or
  // dropped since it was last built, so translating pays nothing for it
  // and a change costs the blocks near the ranges, not the whole cache.
  // The code watermarks stay (conservative: they may only over-approximate
  // translated code).
  template <typename Relower>
  CodeChange rewrite(std::span<const std::pair<u32, u32>> ranges,
                     Relower&& relower) {
    CodeChange change;
    if (ranges.empty()) return change;
    const u32 lo = ranges.front().first;
    const u64 hi = u64{ranges.back().first} + ranges.back().second;
    if (lo >= code_hi_ || hi <= code_lo_) return change;
    if (index_stale_) rebuild_index();
    const u32 from = lo > kMaxSourceBytes ? lo - kMaxSourceBytes : 0;
    std::vector<TranslationBlock*> doomed;
    for (auto it = std::partition_point(
             by_start_.begin(), by_start_.end(),
             [from](const TranslationBlock* b) { return b->start < from; });
         it != by_start_.end() && (*it)->start < hi; ++it) {
      TranslationBlock* block = *it;
      if (!overlaps_any(ranges, block->start, block->source_end())) continue;
      if (relower(*block)) {
        ++change.relowered;
      } else {
        doomed.push_back(block);
      }
    }
    relowered_blocks_ += change.relowered;
    change.dropped = drop(doomed);
    return change;
  }

  // Drop the blocks overlapping [address, address+size): the rewrite that
  // re-lowers nothing. Returns the number of blocks dropped.
  u64 invalidate_range(u32 address, u32 size) {
    const std::pair<u32, u32> range{address, size};
    return rewrite({&range, 1}, [](TranslationBlock&) { return false; })
        .dropped;
  }

  // Visit every live block (the engine re-lowers their exec-callback hooks
  // in place when plugin subscriptions change).
  template <typename Visit>
  void for_each_block(Visit&& visit) {
    for (auto& entry : blocks_) visit(*entry.second);
  }

  // Conservative self-modification check: true if [address, address+size)
  // intersects the watermark range of translated code.
  bool overlaps_code(u32 address, u32 size) const noexcept {
    return address < code_hi_ && u64{address} + size > code_lo_;
  }
  // The watermark range [lo, hi) itself; empty (lo > hi) when nothing was
  // translated since the last flush. `hi` is 2^32 for code ending there.
  std::pair<u32, u64> code_extent() const noexcept {
    return {code_lo_, code_hi_};
  }

  // Invalidate every outstanding chain link and jump-cache entry in O(1):
  // slots stamped with an older epoch fail validation and are re-patched.
  void sever_chains() noexcept {
    ++chain_epoch_;
    ++chain_severs_;
  }
  u64 chain_epoch() const noexcept { return chain_epoch_; }

  std::size_t size() const noexcept { return blocks_.size(); }
  u64 flush_count() const noexcept { return flush_count_; }
  u64 invalidated_blocks() const noexcept { return invalidated_blocks_; }
  u64 relowered_blocks() const noexcept { return relowered_blocks_; }
  u64 chain_severs() const noexcept { return chain_severs_; }
  u64 front_hits() const noexcept { return front_hits_; }
  u64 deep_hits() const noexcept { return deep_hits_; }
  u64 lookup_misses() const noexcept { return lookup_misses_; }

 private:
  struct FrontEntry {
    u32 pc = 0;
    TranslationBlock* block = nullptr;  // nullptr = invalid entry
  };

  // Block starts are at least 2-byte aligned (RVC), so drop the LSB before
  // indexing to use all slots.
  static std::size_t front_slot(u32 pc) noexcept {
    return (pc >> 1) & (kFrontEntries - 1);
  }

  // Drop `blocks`, live blocks of this cache each listed once, severing
  // every chain when there is one. Returns the number dropped.
  u64 drop(std::span<TranslationBlock* const> blocks) noexcept {
    if (blocks.empty()) return 0;
    for (TranslationBlock* block : blocks) {
      FrontEntry& front = front_[front_slot(block->start)];
      if (front.block == block) front = FrontEntry{};
      blocks_.erase(block->start);
    }
    index_stale_ = true;
    sever_chains();
    invalidated_blocks_ += blocks.size();
    return blocks.size();
  }

  void rebuild_index() {
    by_start_.clear();
    by_start_.reserve(blocks_.size());
    for (const auto& entry : blocks_) by_start_.push_back(entry.second.get());
    std::sort(by_start_.begin(), by_start_.end(),
              [](const TranslationBlock* a, const TranslationBlock* b) {
                return a->start < b->start;
              });
    index_stale_ = false;
  }

  std::unordered_map<u32, std::unique_ptr<TranslationBlock>> blocks_;
  std::array<FrontEntry, kFrontEntries> front_{};
  u32 code_lo_ = ~u32{0};
  // Set by an insert or a drop: `by_start_` is rebuilt before its next use.
  bool index_stale_ = false;
  u64 code_hi_ = 0;
  u64 flush_count_ = 0;
  u64 invalidated_blocks_ = 0;
  u64 relowered_blocks_ = 0;
  // Chain epoch starts at 1 so a default-constructed ChainSlot (epoch 0)
  // can never validate.
  u64 chain_epoch_ = 1;
  u64 chain_severs_ = 0;
  u64 front_hits_ = 0;
  u64 deep_hits_ = 0;
  u64 lookup_misses_ = 0;
  // Every block, ordered by start (rewrite's index).
  std::vector<TranslationBlock*> by_start_;
};

}  // namespace s4e::vp
