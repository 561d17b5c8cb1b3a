// Natural-loop detection and loop-bound analysis.
//
// Bounds come from two channels, exactly as in the aiT flow the QTA paper
// describes: automatic detection of simple counted loops, and user
// `.loopbound` annotations for everything the patterns cannot prove.
#pragma once

#include <optional>
#include <vector>

#include "cfg/cfg.hpp"
#include "cfg/dominators.hpp"

namespace s4e::cfg {

struct Loop {
  BlockId header = kNoBlock;
  std::vector<BlockId> blocks;       // includes the header
  std::vector<BlockId> back_sources; // sources of back edges into the header
  std::optional<u32> bound;          // max iterations per entry from outside
  int parent = -1;                   // index of the innermost enclosing loop
  u32 depth = 1;                     // nesting depth (1 = outermost)

  bool contains(BlockId block) const {
    for (BlockId b : blocks) {
      if (b == block) return true;
    }
    return false;
  }
};

struct LoopForest {
  std::vector<Loop> loops;  // sorted innermost-first (deepest depth first)
};

// Find natural loops (back edge = edge whose target dominates its source),
// merge loops sharing a header, establish nesting, and resolve bounds:
//   1. `.loopbound` annotations whose address falls inside the header block;
//   2. the counted-loop patterns (see detect_counted_loop_bound);
// Loops that end up without a bound keep bound == nullopt; the WCET analyzer
// reports them as an error (aiT would likewise demand an annotation).
Result<LoopForest> find_loops(const Function& fn, const Dominators& dom,
                              const std::vector<assembler::LoopBound>& bounds);

// Pattern analysis for simple counted loops. Recognizes, within `loop`:
//   - decrement-to-zero: a single in-loop `addi r, r, -c` with the back
//     edge guarded by `bne r, x0` / `bgt r, x0` / `bgez`-style tests, where
//     `r` is set by `li r, N` (lui+addi or addi) in a block dominating the
//     header and not inside the loop  ->  bound = ceil(N / c);
//   - increment-to-limit: `addi r, r, c` with back edge `blt r, rl` where
//     `rl` is similarly a dominating constant L and r starts at constant S
//     ->  bound = ceil((L - S) / c).
// Returns nullopt when the pattern does not apply (annotation needed).
std::optional<u32> detect_counted_loop_bound(const Function& fn,
                                             const Dominators& dom,
                                             const Loop& loop);

}  // namespace s4e::cfg
