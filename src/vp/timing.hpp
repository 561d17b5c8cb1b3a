// Microarchitectural timing model shared between the VP's cycle counter
// (dynamic, operand-dependent latencies) and the static WCET analyzer
// (per-class worst-case latencies).
//
// The model is a classic in-order 5-stage pipeline abstraction:
//   - every instruction costs `base_cycles`,
//   - loads/stores add memory latency (RAM wait states; MMIO is slower),
//   - multiplies add a fixed multiplier latency,
//   - divides are iterative with early-out: the dynamic cost depends on the
//     dividend magnitude, the static cost is the full iteration count,
//   - taken branches and jumps flush the front-end (`redirect_penalty`).
//
// The invariant the E3 experiment checks — static bound >= observed cycles —
// holds *by construction*: worst_case_cycles() dominates the dynamic cost,
// class_cycles() plus divide_cycles() for divides, for every instruction
// and context (asserted in tests over random operands).
#pragma once

#include <array>
#include <bit>
#include <vector>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "isa/instr.hpp"

namespace s4e::vp {

// Bimodal branch-predictor table entries (shared between Machine, Snapshot
// and the trace replay engine so the three can never disagree on the size).
inline constexpr std::size_t kBimodalEntries = 256;

struct TimingParams {
  u32 base_cycles = 1;        // issue cost of any instruction
  u32 ram_access_cycles = 1;  // extra cycles for a RAM data access
  u32 mmio_access_cycles = 8; // extra cycles for a device access
  u32 mul_cycles = 2;         // extra cycles for RV32M multiplies
  u32 div_min_cycles = 3;     // early-out divide, best case (extra)
  u32 div_max_cycles = 33;    // full 32-bit iterative divide (extra)
  u32 redirect_penalty = 2;   // taken branch / jump front-end flush
  u32 csr_cycles = 2;         // CSR access serialization (extra)
  u32 trap_cycles = 5;        // trap entry/exit cost

  // --- Optional microarchitectural features (ablation candidates). ---

  // Instruction cache: direct-mapped, probed once per executed translation
  // block; a miss costs `icache_miss_cycles` (0 disables the model). The
  // static analyzer charges the miss on *every* block execution (it cannot
  // prove hits without a persistence analysis), so enabling the icache
  // widens the static-dynamic gap — the classic aiT-vs-hardware effect.
  u32 icache_miss_cycles = 0;
  u32 icache_lines = 64;       // power of two
  u32 icache_line_bytes = 32;  // power of two

  // Bimodal (2-bit) branch predictor: a correctly-predicted conditional
  // branch pays no redirect penalty; a mispredict pays it in *either*
  // direction. The static side must then assume a possible mispredict on
  // both edges of every conditional branch.
  bool branch_predictor = false;
};

class TimingModel {
 public:
  TimingModel() = default;
  explicit TimingModel(const TimingParams& params) : params_(params) {}

  const TimingParams& params() const noexcept { return params_; }

  // Context-free worst case for one instruction, *excluding* any redirect
  // penalty (that is accounted on CFG edges: the static analyzer adds
  // edge_cycles() on taken edges, matching the aiT-report structure where
  // time sits on control-flow edges).
  u32 worst_case_cycles(const isa::Instr& instr) const noexcept;

  // Worst-case penalty attached to a taken (non-fall-through) CFG edge.
  u32 edge_cycles() const noexcept { return params_.redirect_penalty; }

  // Dynamic cost of an iterative divide by operand value: the radix-2
  // divider exits early on the dividend's leading zeros, so the cost is a
  // function of its significant-bit count alone. The live VP charges
  // through this; trace replay tallies divides by divide_bits() once and
  // charges each bucket through cycles_for_bits().
  u32 divide_cycles(u32 dividend) const noexcept {
    return cycles_for_bits(divide_bits(dividend));
  }

  // Significant-bit count of a dividend, 1..32 (zero counts as one bit).
  static unsigned divide_bits(u32 dividend) noexcept {
    const auto bits = static_cast<unsigned>(std::bit_width(dividend));
    return bits == 0 ? 1u : bits;
  }

  // Extra divide cycles for a dividend of `bits` (1..32) significant bits.
  u32 cycles_for_bits(unsigned bits) const noexcept {
    const u32 span = params_.div_max_cycles - params_.div_min_cycles;
    return params_.div_min_cycles + (span * bits) / 32;
  }

  // Per-class cost exactly as the exec engine's lowering precomputes it into
  // DecodedInsn::{c_fall, c_taken, c_mmio}: `redirect` selects the taken
  // variant, `mmio` the device-access variant. The operand-dependent divide
  // cost is *excluded* (kDiv lowers to base_cycles and the handler adds
  // divide_cycles(dividend) at run time) — trace replay adds it back per
  // recorded dividend bit count. This is the single source of truth both the
  // live cycle counter and the VP-free replay engine charge from.
  u32 class_cycles(isa::OpClass op, bool redirect, bool mmio) const noexcept;

 private:
  TimingParams params_;
};

// Direct-mapped instruction-cache state machine, probed once per dispatched
// translation block. Extracted from Machine so trace replay can run the
// identical model against a recorded block stream without a VP: same tag
// layout, same reset state, same miss accounting — bit-identical miss
// sequences by construction.
class IcacheSim {
 public:
  IcacheSim() = default;
  explicit IcacheSim(const TimingParams& params) { reset(params); }

  // Sizes (or clears) the tag array for `params`; a zero miss cost disables
  // the model entirely, matching Machine::reset(). The line size and count
  // must be powers of two: probe() indexes by shift and mask.
  void reset(const TimingParams& params) {
    misses_ = 0;
    if (params.icache_miss_cycles == 0) {
      tags_.clear();
      return;
    }
    S4E_CHECK(std::has_single_bit(params.icache_lines) &&
              std::has_single_bit(params.icache_line_bytes));
    line_shift_ = static_cast<u32>(std::countr_zero(params.icache_line_bytes));
    index_mask_ = params.icache_lines - 1;
    tags_.assign(params.icache_lines, ~u32{0});
  }

  bool enabled() const noexcept { return !tags_.empty(); }

  // Probes the line holding `block_pc`; returns true on a miss (the caller
  // charges icache_miss_cycles). Must only be called when enabled().
  bool probe(u32 block_pc) noexcept {
    const u32 line = block_pc >> line_shift_;
    u32& tag = tags_[line & index_mask_];
    if (tag != line) {
      tag = line;
      ++misses_;
      return true;
    }
    return false;
  }

  u64 misses() const noexcept { return misses_; }

  // Snapshot plumbing: Machine::save_state/restore_state copy the raw state.
  const std::vector<u32>& tags() const noexcept { return tags_; }
  void restore(const std::vector<u32>& tags, u64 misses) {
    tags_ = tags;
    misses_ = misses;
  }

 private:
  std::vector<u32> tags_;
  u64 misses_ = 0;
  u32 line_shift_ = 0;  // log2(icache_line_bytes)
  u32 index_mask_ = 0;  // icache_lines - 1
};

// Bimodal (2-bit saturating counter) branch predictor, indexed by branch PC.
// Extracted from the exec engine's branch handler for the same reason as
// IcacheSim: replay feeds it the recorded (pc, taken) stream and gets the
// identical mispredict sequence the live run charged.
class BimodalPredictor {
 public:
  // Consults and updates the counter for one executed conditional branch;
  // returns true when the branch mispredicted (the caller charges the
  // redirect penalty, in either direction).
  // The update is a table lookup, not a branch on `taken`: replay feeds
  // outcomes no branch predictor of the host can guess.
  bool mispredict(u32 pc, bool taken) noexcept {
    // Next counter state by [counter][taken]: saturate at 0 and 3.
    static constexpr u8 kNext[4][2] = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
    u8& counter = table_[(pc >> 2) & (table_.size() - 1)];
    const bool predicted_taken = counter >= 2;
    counter = kNext[counter & 3][taken ? 1 : 0];
    return predicted_taken != taken;
  }

  void reset() noexcept { table_.fill(0); }

  // Snapshot plumbing.
  std::array<u8, kBimodalEntries>& table() noexcept { return table_; }
  const std::array<u8, kBimodalEntries>& table() const noexcept {
    return table_;
  }

 private:
  std::array<u8, kBimodalEntries> table_{};
};

}  // namespace s4e::vp
