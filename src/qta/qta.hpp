// QTA — the QEMU Timing Analyzer reproduction.
//
// The tool-demo flow (MBMV'21): a static WCET analysis (aiT; here
// s4e::wcet) produces a WCET-annotated CFG; the emulator loads the binary
// *and* the annotated graph and simulates them together. While the program
// runs, QTA accumulates the worst-case time of the *executed path*: on entry
// to an annotated block it adds the block's WCET, plus the transition
// penalty whenever control did not simply fall through.
//
// Three timelines therefore exist for one run, ordered by construction:
//     observed cycles  <=  WC time of executed path  <=  static WCET bound
// The E3 experiment checks exactly this chain.
//
// The accumulation itself is a pure function of the retired-PC sequence, so
// it is split out as PathAccumulator: the trace replay engine feeds it every
// retired PC of a recorded trace, and the live co-simulation plugin feeds it
// the PCs where a step can change its state — at translation time it
// requests insn_exec callbacks only at block heads and where execution may
// leave the current annotated block, so the co-simulated run keeps the
// VP's chained fast path. Same chain either way.
#pragma once

#include <string>
#include <vector>

#include "vp/plugin.hpp"
#include "wcet/annotated_cfg.hpp"

namespace s4e::qta {

struct QtaReport {
  u64 observed_cycles = 0;     // VP timing-model cycles for the run
  u64 wc_path_cycles = 0;      // WCET-annotated time of the executed path
  u64 static_bound = 0;        // whole-program static WCET
  u64 blocks_entered = 0;      // annotated block entries
  u64 unknown_blocks = 0;      // executed blocks missing from the annotation
  bool bound_violated = false; // wc_path > static_bound (analysis bug!)

  // Pessimism ratios (>= 1.0 when everything is consistent).
  double path_over_observed() const {
    return observed_cycles ? static_cast<double>(wc_path_cycles) /
                                 static_cast<double>(observed_cycles)
                           : 0.0;
  }
  double bound_over_path() const {
    return wc_path_cycles ? static_cast<double>(static_bound) /
                                static_cast<double>(wc_path_cycles)
                          : 0.0;
  }

  // The E3 chain: observed <= WC path <= bound, with every executed block
  // annotated.
  bool chain_ok() const noexcept {
    return observed_cycles <= wc_path_cycles &&
           wc_path_cycles <= static_bound && unknown_blocks == 0;
  }

  std::string to_string() const;
};

// Worst-case path-time accumulator over a retired-PC sequence. The annotated
// CFG must outlive the accumulator and must already be reindex()ed.
class PathAccumulator {
 public:
  explicit PathAccumulator(const wcet::AnnotatedCfg& annotated);

  // Account one retired instruction at `pc`.
  void step(u32 pc);

  // False when step(pc) cannot change the accumulator, given that the
  // instruction retired just before it was at `prev_pc` (the previous
  // instruction of the same translation block): pc is no annotated block
  // head and lies in the block holding prev_pc, or prev_pc lies in none.
  bool step_matters_after(u32 prev_pc, u32 pc) const;

  u64 wc_path_cycles() const noexcept { return wc_path_cycles_; }
  u64 blocks_entered() const noexcept { return blocks_entered_; }
  u64 unknown_blocks() const noexcept { return unknown_blocks_; }

  QtaReport report(u64 observed_cycles) const;

  void reset() noexcept;

 private:
  struct Edge {
    u32 target = 0;
    u32 penalty = 0;
  };
  // One annotated block with its outgoing intra-function edges,
  // edges_[edges_begin, edges_end) sorted by target; transitions without
  // an edge (calls, returns) fall back to the contiguity rule.
  struct Block {
    u32 start = 0;
    u32 end = 0;
    u32 wcet = 0;
    u32 edges_begin = 0;
    u32 edges_end = 0;
  };
  // The block starting at `pc`, or nullptr.
  const Block* block_at(u32 pc) const noexcept;

  const wcet::AnnotatedCfg* annotated_;
  std::vector<Block> blocks_;  // sorted by start, one per start address
  std::vector<Edge> edges_;
  // Some blocks overlap: no PC can be ruled out as a block change.
  bool overlapping_ = false;
  u32 prev_edges_begin_ = 0;
  u32 prev_edges_end_ = 0;
  u64 wc_path_cycles_ = 0;
  u64 blocks_entered_ = 0;
  u64 unknown_blocks_ = 0;
  u32 prev_block_start_ = 0;
  u32 prev_block_end_ = 0;
  bool in_flight_ = false;  // at least one block entered
};

// The co-simulation plugin. Attach to a VP, run the workload, then collect
// the report (pass the machine's final cycle count for `observed`).
class QtaPlugin final : public vp::PluginBase {
 public:
  explicit QtaPlugin(wcet::AnnotatedCfg annotated);

  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.insn_requests = true;
    return subs;
  }

  void on_tb_trans(const s4e_tb_info& tb) override;
  void on_insn_exec(const s4e_insn_info& insn) override {
    path_.step(insn.address);
  }

  u64 wc_path_cycles() const noexcept { return path_.wc_path_cycles(); }
  u64 blocks_entered() const noexcept { return path_.blocks_entered(); }
  u64 unknown_blocks() const noexcept { return path_.unknown_blocks(); }
  const wcet::AnnotatedCfg& annotated() const noexcept { return annotated_; }

  QtaReport report(u64 observed_cycles) const {
    return path_.report(observed_cycles);
  }

  // Reset path accumulation (for re-running the same machine).
  void reset() noexcept { path_.reset(); }

 private:
  wcet::AnnotatedCfg annotated_;
  PathAccumulator path_;
};

}  // namespace s4e::qta
