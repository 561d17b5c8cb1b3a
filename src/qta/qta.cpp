#include "qta/qta.hpp"

#include <algorithm>
#include <map>

#include "common/strings.hpp"

namespace s4e::qta {

namespace {
wcet::AnnotatedCfg reindexed(wcet::AnnotatedCfg cfg) {
  cfg.reindex();
  return cfg;
}
}  // namespace

PathAccumulator::PathAccumulator(const wcet::AnnotatedCfg& annotated)
    : annotated_(&annotated) {
  // One block per start address and one penalty per (source, target), the
  // last listed winning (as in AnnotatedCfg::block_at).
  std::map<u32, const wcet::AnnotatedBlock*> by_start;
  for (const wcet::AnnotatedBlock& block : annotated.blocks) {
    by_start[block.start] = &block;
  }
  std::map<std::pair<u32, u32>, u32> penalties;
  for (const wcet::AnnotatedEdge& edge : annotated.edges) {
    penalties[{edge.source, edge.target}] = edge.penalty;
  }
  auto edge = penalties.begin();
  for (const auto& [start, block] : by_start) {
    while (edge != penalties.end() && edge->first.first < start) ++edge;
    const u32 edges_begin = static_cast<u32>(edges_.size());
    for (; edge != penalties.end() && edge->first.first == start; ++edge) {
      edges_.push_back({edge->first.second, edge->second});
    }
    if (!blocks_.empty() && blocks_.back().end > start) overlapping_ = true;
    blocks_.push_back({start, block->end, block->wcet, edges_begin,
                       static_cast<u32>(edges_.size())});
  }
}

const PathAccumulator::Block* PathAccumulator::block_at(
    u32 pc) const noexcept {
  const auto it = std::partition_point(
      blocks_.begin(), blocks_.end(),
      [pc](const Block& b) { return b.start < pc; });
  return it != blocks_.end() && it->start == pc ? &*it : nullptr;
}

bool PathAccumulator::step_matters_after(u32 prev_pc, u32 pc) const {
  if (overlapping_ || block_at(pc) != nullptr) return true;
  // Blocks do not overlap: the one holding prev_pc is the last starting at
  // or before it. After a step at prev_pc the accumulator is either out
  // of flight or inside that block.
  const auto it = std::partition_point(
      blocks_.begin(), blocks_.end(),
      [prev_pc](const Block& b) { return b.start <= prev_pc; });
  if (it == blocks_.begin()) return false;
  const Block& block = *std::prev(it);
  if (prev_pc != block.start && prev_pc >= block.end) return false;
  return pc >= block.end;
}

void PathAccumulator::step(u32 pc) {
  // Strictly inside the current block no other block starts (unless
  // blocks overlap): nothing to account.
  if (in_flight_ && pc > prev_block_start_ && pc < prev_block_end_ &&
      !overlapping_) {
    return;
  }
  const Block* block = block_at(pc);
  if (block == nullptr) {
    // Not a block head — either mid-block (normal) or genuinely unannotated
    // code. Only the latter is worth counting: detect it by checking that
    // the address lies inside the block we are currently traversing.
    if (in_flight_ && (pc < prev_block_start_ || pc >= prev_block_end_)) {
      // Execution left the annotated region, above or below the current
      // block (e.g. a trap handler the static analysis never saw).
      ++unknown_blocks_;
      in_flight_ = false;
    }
    return;
  }
  ++blocks_entered_;
  wc_path_cycles_ += block->wcet;
  // Transition cost. Intra-function transitions carry the exact worst-case
  // penalty the static analyzer put on the corresponding CFG edge (0 on
  // plain fall-throughs, the redirect penalty on taken edges, and — with a
  // branch predictor — on both directions of a conditional branch).
  // Cross-function transitions (call, return) are not in the edge table;
  // they are always front-end redirects, matched by the 2x penalty the
  // analyzer folds into each call site's weight.
  if (in_flight_) {
    const auto first = edges_.begin() + prev_edges_begin_;
    const auto last = edges_.begin() + prev_edges_end_;
    const auto edge = std::partition_point(
        first, last, [pc](const Edge& e) { return e.target < pc; });
    if (edge != last && edge->target == pc) {
      wc_path_cycles_ += edge->penalty;
    } else if (annotated_->penalize_all_transitions ||
               pc != prev_block_end_) {
      wc_path_cycles_ += annotated_->redirect_penalty;
    }
  }
  prev_block_start_ = block->start;
  prev_block_end_ = block->end;
  prev_edges_begin_ = block->edges_begin;
  prev_edges_end_ = block->edges_end;
  in_flight_ = true;
}

QtaReport PathAccumulator::report(u64 observed_cycles) const {
  QtaReport report;
  report.observed_cycles = observed_cycles;
  report.wc_path_cycles = wc_path_cycles_;
  report.static_bound = annotated_->total_wcet;
  report.blocks_entered = blocks_entered_;
  report.unknown_blocks = unknown_blocks_;
  report.bound_violated = wc_path_cycles_ > annotated_->total_wcet;
  return report;
}

void PathAccumulator::reset() noexcept {
  wc_path_cycles_ = 0;
  blocks_entered_ = 0;
  unknown_blocks_ = 0;
  prev_block_start_ = 0;
  prev_block_end_ = 0;
  prev_edges_begin_ = 0;
  prev_edges_end_ = 0;
  in_flight_ = false;
}

void QtaPlugin::on_tb_trans(const s4e_tb_info& tb) {
  // Within a translation block execution runs in sequence, so only the
  // block head and the PCs step_matters_after() names need a callback.
  for (u32 i = 0; i < tb.n_insns; ++i) {
    if (i == 0 || path_.step_matters_after(tb.insns[i - 1].address,
                                           tb.insns[i].address)) {
      request_insn_exec(i);
    }
  }
}

QtaPlugin::QtaPlugin(wcet::AnnotatedCfg annotated)
    : annotated_(reindexed(std::move(annotated))), path_(annotated_) {}

std::string QtaReport::to_string() const {
  std::string out;
  out += format("QTA report\n");
  out += format("  observed cycles        : %llu\n",
                static_cast<unsigned long long>(observed_cycles));
  out += format("  WC time, executed path : %llu  (%.2fx observed)\n",
                static_cast<unsigned long long>(wc_path_cycles),
                path_over_observed());
  out += format("  static WCET bound      : %llu  (%.2fx WC path)\n",
                static_cast<unsigned long long>(static_bound),
                bound_over_path());
  out += format("  annotated blocks hit   : %llu\n",
                static_cast<unsigned long long>(blocks_entered));
  if (unknown_blocks != 0) {
    out += format("  UNANNOTATED regions    : %llu\n",
                  static_cast<unsigned long long>(unknown_blocks));
  }
  if (bound_violated) {
    out += "  *** BOUND VIOLATED: executed path exceeds static WCET ***\n";
  }
  return out;
}

}  // namespace s4e::qta
