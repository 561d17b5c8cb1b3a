// Static WCET analysis — the ecosystem's aiT substitute.
//
// Pipeline: binary -> CFG reconstruction -> per-block worst-case timing
// (shared TimingModel) -> loop bounds (annotations + counted-loop patterns)
// -> structural IPET: longest path over the loop-nest tree, collapsing each
// loop (innermost first) into a supernode weighted
//     (bound-1) * maxBackPath + maxExitPrefix,
// then a topological longest-path over the resulting DAG. Calls are
// summarized callee-first over an acyclic call graph.
//
// The output is both a numeric bound and the WCET-annotated CFG the QTA
// co-simulation loads (the ait2qta artefact).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "cfg/cfg.hpp"
#include "common/status.hpp"
#include "vp/timing.hpp"
#include "wcet/annotated_cfg.hpp"

namespace s4e::wcet {

struct FunctionWcet {
  std::string name;
  u32 entry = 0;
  u64 wcet = 0;           // cycles per invocation, callees included
  u32 block_count = 0;
  u32 loop_count = 0;
  u32 bounded_loops = 0;  // loops with a usable bound

  bool operator==(const FunctionWcet&) const = default;
};

struct AnalysisResult {
  u64 total_wcet = 0;  // bound for one run from the program entry
  std::vector<FunctionWcet> functions;  // entry function first
  AnnotatedCfg annotated;  // for QTA
};

struct AnalyzerOptions {
  vp::TimingParams timing;
  std::string program_name = "program";
  // Drop statically unreachable blocks and infeasible branch edges before
  // the IPET pass. Sound (the pruned graph is a sub-graph, so the bound can
  // only tighten) but off by default: benchmarks guarded by constant-folded
  // self checks would otherwise lose their deliberately-heavy arms.
  bool prune_infeasible = false;
};

class Analyzer {
 public:
  explicit Analyzer(const AnalyzerOptions& options = {}) : options_(options) {}

  // Analyze a loaded program. The CFG is built strictly first; only when
  // that fails (an indirect jump other than `ret`) or pruning is on does the
  // data-flow analysis run, resolving jump-table / `la`+`jr` targets into
  // explicit edges. Fails when an indirect jump stays unresolved, when a
  // loop has no derivable/annotated bound, or when the call graph is
  // recursive — the same rejection classes aiT has.
  Result<AnalysisResult> analyze(const assembler::Program& program) const;

  // Analyze a prebuilt CFG (used by tests and by ablation benches).
  Result<AnalysisResult> analyze(const cfg::ProgramCfg& program_cfg) const;

 private:
  Result<u64> function_wcet(const cfg::Function& fn,
                            const std::vector<assembler::LoopBound>& bounds,
                            const std::map<u32, u64>& callee_wcet,
                            AnalysisResult& out) const;

  AnalyzerOptions options_;
};

}  // namespace s4e::wcet
