#include "qta/qta.hpp"

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
  for (const wcet::AnnotatedEdge& edge : annotated_->edges) {
    edge_penalty_[(u64{edge.source} << 32) | edge.target] = edge.penalty;
  }
}

void PathAccumulator::step(u32 pc) {
  const wcet::AnnotatedBlock* block = annotated_->block_at(pc);
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
    auto it = edge_penalty_.find((u64{prev_block_start_} << 32) | pc);
    if (it != edge_penalty_.end()) {
      wc_path_cycles_ += it->second;
    } else if (annotated_->penalize_all_transitions ||
               pc != prev_block_end_) {
      wc_path_cycles_ += annotated_->redirect_penalty;
    }
  }
  prev_block_start_ = block->start;
  prev_block_end_ = block->end;
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
  in_flight_ = false;
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
