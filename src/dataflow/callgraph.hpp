// Whole-program call graph over the reconstructed CFG.
//
// Nodes are the functions of a cfg::ProgramCfg; edges come from direct
// `jal ra` call sites. Indirect *jumps* that PR 2's data-flow resolution
// folded to a finite target set are already inlined into the caller's CFG
// (discover() explores the resolved targets as ordinary blocks), so they
// need no graph edges — the caller's summary sees that code directly.
// Reachable indirect sites that stayed unresolved (jalr with an unknown
// target, with or without linkage) *poison* the enclosing function: its
// callee set is unknown, so its summary — and, transitively, the summary of
// everything that calls it — must fall back to the conservative ABI
// assumptions.
//
// The graph also carries the SCC condensation: `bottom_up` lists function
// indices callees-first (Tarjan order), and `recursive` marks members of a
// call-graph cycle (self-recursion included). Both drive the bottom-up
// summary computation in summaries.cpp and the lint recursion check.
#pragma once

#include <vector>

#include "cfg/cfg.hpp"

namespace s4e::dataflow {

struct CallGraph {
  // All parallel to cfg.functions.
  std::vector<std::vector<u32>> callees;  // sorted, deduplicated
  std::vector<std::vector<u32>> callers;  // sorted, deduplicated
  std::vector<bool> poisoned;        // has a reachable unresolved indirect
  std::vector<bool> tainted;         // poisoned, or calls a tainted function
  std::vector<bool> recursive;       // member of a call-graph cycle
  std::vector<u32> scc_id;           // Tarjan SCC index per function
  std::vector<u32> bottom_up;        // function indices, callees before callers
};

// Build the call graph. `block_reachable` (parallel to functions/blocks)
// restricts edges and poisoning to statically reachable blocks; nullptr
// treats every block as reachable.
CallGraph build_call_graph(
    const cfg::ProgramCfg& cfg,
    const std::vector<std::vector<bool>>* block_reachable = nullptr);

}  // namespace s4e::dataflow
