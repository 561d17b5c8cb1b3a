#include "wcet/analyzer.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "dataflow/analyze.hpp"

#include "cfg/dominators.hpp"
#include "cfg/loops.hpp"
#include "common/strings.hpp"

namespace s4e::wcet {

namespace {

constexpr u64 kUnreachable = 0;
constexpr i64 kMinusInf = std::numeric_limits<i64>::min() / 4;

// Work-graph node used during loop condensation. Edge targets stay
// expressed as original BlockIds and are resolved through the `rep` map, so
// collapsing never has to rewrite third-party edge lists.
struct WorkEdge {
  cfg::BlockId target_block;
  u32 penalty;
};

struct WorkNode {
  u64 weight = 0;
  std::vector<WorkEdge> edges;
  bool alive = true;
};

}  // namespace

Result<u64> Analyzer::function_wcet(
    const cfg::Function& fn, const std::vector<assembler::LoopBound>& bounds,
    const std::map<u32, u64>& callee_wcet, AnalysisResult& out) const {
  const vp::TimingModel timing(options_.timing);
  const u32 penalty = timing.edge_cycles();

  cfg::Dominators dom(fn);
  S4E_TRY(loops, cfg::find_loops(fn, dom, bounds));

  FunctionWcet summary;
  summary.name = fn.name;
  summary.entry = fn.entry;
  summary.block_count = static_cast<u32>(fn.blocks.size());
  summary.loop_count = static_cast<u32>(loops.loops.size());

  // --- Per-block worst-case weight (+ callee summaries at call sites).
  std::vector<WorkNode> nodes(fn.blocks.size());
  std::vector<cfg::BlockId> rep(fn.blocks.size());
  for (const cfg::BasicBlock& block : fn.blocks) {
    WorkNode& node = nodes[block.id];
    rep[block.id] = block.id;
    u64 weight = 0;
    for (const isa::Instr& instr : block.insns) {
      weight += timing.worst_case_cycles(instr);
    }
    // Instruction-cache model: without a persistence analysis every block
    // execution must be assumed to miss every line it touches. (Charging
    // per line also dominates the dynamic side when a long CFG block spans
    // several translation blocks, each of which probes the cache once.)
    const u32 block_lines =
        (block.end - block.start + options_.timing.icache_line_bytes - 1) /
        options_.timing.icache_line_bytes;
    weight += u64{options_.timing.icache_miss_cycles} * block_lines;
    if (block.terminator == cfg::Terminator::kCall) {
      auto it = callee_wcet.find(block.call_target);
      S4E_CHECK_MSG(it != callee_wcet.end(),
                    "call graph not processed callee-first");
      // Callee body + the two control transfers (call, return).
      weight += it->second + 2ull * penalty;
    }
    node.weight = weight;
    // Edge penalties: taken edges always flush; with a branch predictor the
    // fall-through of a conditional branch can mispredict too.
    const bool branch_fallthrough_pays =
        options_.timing.branch_predictor &&
        block.terminator == cfg::Terminator::kBranch;
    for (const cfg::Edge& edge : block.successors) {
      u32 edge_penalty = edge.kind == cfg::EdgeKind::kTaken ? penalty : 0;
      if (edge.kind == cfg::EdgeKind::kFallThrough && branch_fallthrough_pays) {
        edge_penalty = penalty;
      }
      node.edges.push_back(WorkEdge{edge.target, edge_penalty});
    }

    // Emit the annotation record (own instructions only — QTA walks callee
    // blocks itself).
    AnnotatedBlock annotated;
    annotated.start = block.start;
    annotated.end = block.end;
    annotated.function_entry = fn.entry;
    u32 own = options_.timing.icache_miss_cycles * block_lines;
    for (const isa::Instr& instr : block.insns) {
      own += timing.worst_case_cycles(instr);
    }
    annotated.wcet = own;
    out.annotated.blocks.push_back(annotated);
    for (const cfg::Edge& edge : block.successors) {
      AnnotatedEdge ae;
      ae.source = block.start;
      ae.target = fn.blocks[edge.target].start;
      ae.penalty = edge.kind == cfg::EdgeKind::kTaken ? penalty : 0;
      if (edge.kind == cfg::EdgeKind::kFallThrough && branch_fallthrough_pays) {
        ae.penalty = penalty;
      }
      ae.is_back_edge = dom.dominates(edge.target, block.id);
      out.annotated.edges.push_back(ae);
    }
  }

  auto resolve = [&](cfg::BlockId block) {
    // rep chains stay short (one hop per enclosing loop); follow to fixpoint.
    cfg::BlockId r = rep[block];
    while (rep[r] != r) r = rep[r];
    rep[block] = r;
    return r;
  };

  // --- Collapse loops innermost-first.
  for (const cfg::Loop& loop : loops.loops) {
    if (!loop.bound.has_value()) {
      return Error(
          ErrorCode::kAnalysisError,
          format("%s: loop headed at 0x%08x has no derivable bound — add a "
                 ".loopbound annotation",
                 fn.name.c_str(), fn.blocks[loop.header].start));
    }
    ++summary.bounded_loops;
    const u64 bound = std::max<u32>(*loop.bound, 1);

    const cfg::BlockId header = resolve(loop.header);
    std::set<cfg::BlockId> members;
    for (cfg::BlockId block : loop.blocks) members.insert(resolve(block));

    // Topological order of the member subgraph (back edges to the header
    // excluded). DFS from the header.
    std::vector<cfg::BlockId> topo;
    std::set<cfg::BlockId> visited;
    std::vector<std::pair<cfg::BlockId, std::size_t>> stack{{header, 0}};
    visited.insert(header);
    while (!stack.empty()) {
      auto& [node, edge_index] = stack.back();
      if (edge_index < nodes[node].edges.size()) {
        const cfg::BlockId target = resolve(nodes[node].edges[edge_index].target_block);
        ++edge_index;
        if (members.count(target) != 0 && target != header &&
            visited.insert(target).second) {
          stack.push_back({target, 0});
        }
      } else {
        topo.push_back(node);
        stack.pop_back();
      }
    }
    std::reverse(topo.begin(), topo.end());  // header first

    // Longest path from the header within the loop body.
    std::map<cfg::BlockId, i64> dist;
    for (cfg::BlockId member : members) dist[member] = kMinusInf;
    dist[header] = static_cast<i64>(nodes[header].weight);
    i64 max_back = kMinusInf;
    i64 max_exit = kMinusInf;
    for (cfg::BlockId node_id : topo) {
      if (dist[node_id] == kMinusInf) continue;
      max_exit = std::max(max_exit, dist[node_id]);
      for (const WorkEdge& edge : nodes[node_id].edges) {
        const cfg::BlockId target = resolve(edge.target_block);
        if (target == header) {
          max_back = std::max(max_back,
                              dist[node_id] + static_cast<i64>(edge.penalty));
        } else if (members.count(target) != 0) {
          dist[target] = std::max(
              dist[target], dist[node_id] + static_cast<i64>(edge.penalty) +
                                static_cast<i64>(nodes[target].weight));
        }
      }
    }
    S4E_CHECK_MSG(max_back != kMinusInf, "loop without reachable back edge");
    if (max_exit == kMinusInf) max_exit = dist[header];

    // Build the supernode in place of the header.
    WorkNode supernode;
    supernode.weight = (bound - 1) * static_cast<u64>(max_back) +
                       static_cast<u64>(max_exit);
    for (cfg::BlockId member : members) {
      for (const WorkEdge& edge : nodes[member].edges) {
        const cfg::BlockId target = resolve(edge.target_block);
        if (members.count(target) == 0) {
          supernode.edges.push_back(edge);
        }
      }
    }
    // Irreducibility check: no edge from outside may enter a non-header
    // member.
    for (cfg::BlockId id = 0; id < nodes.size(); ++id) {
      if (!nodes[id].alive || members.count(resolve(id)) != 0) continue;
      for (const WorkEdge& edge : nodes[id].edges) {
        const cfg::BlockId target = resolve(edge.target_block);
        if (members.count(target) != 0 && target != header) {
          return Error(ErrorCode::kAnalysisError,
                       format("%s: irreducible entry into loop at 0x%08x",
                              fn.name.c_str(), fn.blocks[loop.header].start));
        }
      }
    }
    for (cfg::BlockId member : members) {
      if (member != header) nodes[member].alive = false;
      rep[member] = header;
    }
    rep[header] = header;
    nodes[header] = std::move(supernode);

    // Record the bound for the annotation.
    out.annotated.loop_bounds[fn.blocks[loop.header].start] =
        static_cast<u32>(bound);
  }

  // --- Longest path over the residual DAG from the entry representative.
  std::map<cfg::BlockId, u64> memo;
  std::set<cfg::BlockId> on_stack;
  // Iterative DFS with explicit post-processing.
  struct Frame {
    cfg::BlockId node;
    std::size_t edge_index;
  };
  const cfg::BlockId entry_rep = resolve(0);
  std::vector<Frame> frames{{entry_rep, 0}};
  std::set<cfg::BlockId> opened{entry_rep};
  while (!frames.empty()) {
    Frame& frame = frames.back();
    const WorkNode& node = nodes[frame.node];
    if (frame.edge_index < node.edges.size()) {
      const cfg::BlockId target = resolve(node.edges[frame.edge_index].target_block);
      ++frame.edge_index;
      if (memo.count(target) == 0) {
        if (!opened.insert(target).second) {
          // Opened but not finished: `target` is on the DFS stack, i.e.
          // the residual graph still has a cycle that loop detection did
          // not cover (a cycle without a dominating header — irreducible).
          // Continuing would silently drop the cycle from the bound.
          return Error(
              ErrorCode::kAnalysisError,
              format("%s: irreducible cycle through 0x%08x — control flow "
                     "is not analyzable",
                     fn.name.c_str(), fn.blocks[target].start));
        }
        frames.push_back(Frame{target, 0});
      }
      continue;
    }
    u64 best = 0;
    for (const WorkEdge& edge : node.edges) {
      const cfg::BlockId target = resolve(edge.target_block);
      auto it = memo.find(target);
      if (it != memo.end()) {
        best = std::max(best, static_cast<u64>(edge.penalty) + it->second);
      }
    }
    memo[frame.node] = node.weight + best;
    frames.pop_back();
  }

  summary.wcet = memo[entry_rep];
  out.functions.push_back(summary);
  (void)kUnreachable;
  return summary.wcet;
}

Result<AnalysisResult> Analyzer::analyze(
    const assembler::Program& program) const {
  if (!options_.prune_infeasible) {
    // A strict build that succeeds has no indirect jump to resolve, so the
    // data-flow path would analyze the same graph.
    if (auto strict = cfg::build_cfg(program); strict.ok()) {
      return analyze(*strict);
    }
  }
  S4E_TRY(analysis, dataflow::analyze_program(program));
  // The aiT-style contract still holds after resolution: every *reachable*
  // indirect jump must have an explicit target set.
  if (!analysis.unresolved.empty()) {
    const dataflow::UnresolvedSite& site = analysis.unresolved.front();
    return Error(
        ErrorCode::kAnalysisError,
        format("indirect %s at 0x%08x in function '%s' is not analyzable "
               "(target value: %s; %zu unresolved site(s) total)",
               site.is_call ? "call" : "jump", site.pc, site.function.c_str(),
               site.target.c_str(), analysis.unresolved.size()));
  }
  if (options_.prune_infeasible) {
    S4E_TRY(pruned, dataflow::prune_cfg(analysis));
    return analyze(pruned);
  }
  return analyze(analysis.cfg);
}

Result<AnalysisResult> Analyzer::analyze(
    const cfg::ProgramCfg& program_cfg) const {
  // Callee-first order over the call graph; recursion is rejected.
  const std::size_t n = program_cfg.functions.size();
  std::vector<std::vector<u32>> callees(n);
  for (u32 i = 0; i < n; ++i) {
    for (const cfg::BasicBlock& block : program_cfg.functions[i].blocks) {
      if (block.terminator == cfg::Terminator::kCall) {
        S4E_TRY(callee, program_cfg.function_at(block.call_target));
        callees[i].push_back(callee);
      }
    }
  }
  std::vector<int> state(n, 0);  // 0 unvisited, 1 in progress, 2 done
  std::vector<u32> order;
  // Recursive lambda via explicit stack.
  {
    std::vector<std::pair<u32, std::size_t>> stack{{0u, 0u}};
    state[0] = 1;
    while (!stack.empty()) {
      auto& [fn_index, child] = stack.back();
      if (child < callees[fn_index].size()) {
        const u32 callee = callees[fn_index][child];
        ++child;
        if (state[callee] == 1) {
          return Error(ErrorCode::kAnalysisError,
                       "recursive call graph is not analyzable (as in aiT, "
                       "recursion needs manual bounds — unsupported)");
        }
        if (state[callee] == 0) {
          state[callee] = 1;
          stack.push_back({callee, 0});
        }
        continue;
      }
      state[fn_index] = 2;
      order.push_back(fn_index);
      stack.pop_back();
    }
  }

  AnalysisResult result;
  const vp::TimingModel timing(options_.timing);
  result.annotated.program_name = options_.program_name;
  result.annotated.entry = program_cfg.entry_function().entry;
  result.annotated.redirect_penalty = timing.edge_cycles();
  result.annotated.penalize_all_transitions = options_.timing.branch_predictor;

  std::map<u32, u64> wcet_by_entry;
  for (u32 fn_index : order) {
    const cfg::Function& fn = program_cfg.functions[fn_index];
    S4E_TRY(wcet, function_wcet(fn, program_cfg.loop_bounds, wcet_by_entry,
                                result));
    wcet_by_entry[fn.entry] = wcet;
  }
  result.total_wcet = wcet_by_entry[program_cfg.entry_function().entry];
  result.annotated.total_wcet = result.total_wcet;
  result.annotated.reindex();

  // Entry function first in the summary list.
  std::stable_sort(result.functions.begin(), result.functions.end(),
                   [&](const FunctionWcet& a, const FunctionWcet& b) {
                     const u32 entry = program_cfg.entry_function().entry;
                     return (a.entry == entry) > (b.entry == entry);
                   });
  return result;
}

}  // namespace s4e::wcet
