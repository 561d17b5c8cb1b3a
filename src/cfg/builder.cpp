#include <algorithm>
#include <set>

#include "cfg/cfg.hpp"
#include "common/strings.hpp"
#include "isa/rvc.hpp"
#include "isa/disasm.hpp"

namespace s4e::cfg {

namespace {

using isa::Instr;
using isa::Op;

// Classify the control-flow role of an instruction.
Terminator classify(const Instr& instr) {
  switch (instr.op) {
    case Op::kJal:
      return instr.rd == 0 ? Terminator::kJump : Terminator::kCall;
    case Op::kJalr:
      if (instr.rd == 0 && instr.rs1 == 1 && instr.imm == 0) {
        return Terminator::kReturn;
      }
      return Terminator::kIndirect;
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kMret:
      return Terminator::kExit;
    default:
      return instr.is_branch() ? Terminator::kBranch
                               : Terminator::kFallThrough;
  }
}

// Fetch and decode the (possibly compressed) instruction at `address`.
Result<Instr> fetch_instr(const assembler::Program& program, u32 address) {
  S4E_TRY(half, program.read_half(address));
  u32 bits = half;
  if (!isa::is_compressed(static_cast<u16>(half))) {
    S4E_TRY(word, program.read_word(address));
    bits = word;
  }
  return isa::decode_parcel(bits);
}

// Per-function discovery state.
struct Discovery {
  std::map<u32, Instr> insns;
  std::set<u32> leaders;
  std::set<u32> callees;  // call targets found in this function
};

// Resolved targets for the jalr at `address`, or nullptr.
const std::vector<u32>* targets_at(const BuildOptions& options, u32 address) {
  if (options.indirect_targets == nullptr) return nullptr;
  auto it = options.indirect_targets->find(address);
  return it == options.indirect_targets->end() ? nullptr : &it->second;
}

// Decode and explore all paths of one function. `name` is the enclosing
// function's symbol (for diagnostics).
Result<Discovery> discover(const assembler::Program& program, u32 entry,
                           const std::string& name,
                           const BuildOptions& options) {
  Discovery d;
  d.leaders.insert(entry);
  std::vector<u32> worklist{entry};
  while (!worklist.empty()) {
    u32 address = worklist.back();
    worklist.pop_back();
    while (d.insns.find(address) == d.insns.end()) {
      S4E_TRY(instr, fetch_instr(program, address));
      d.insns.emplace(address, instr);
      const Terminator term = classify(instr);
      switch (term) {
        case Terminator::kFallThrough:
          address += instr.length;
          continue;
        case Terminator::kBranch: {
          const u32 taken = address + static_cast<u32>(instr.imm);
          d.leaders.insert(taken);
          d.leaders.insert(address + instr.length);
          worklist.push_back(taken);
          address += instr.length;
          continue;
        }
        case Terminator::kJump: {
          const u32 target = address + static_cast<u32>(instr.imm);
          d.leaders.insert(target);
          worklist.push_back(target);
          break;
        }
        case Terminator::kCall: {
          const u32 callee = address + static_cast<u32>(instr.imm);
          d.callees.insert(callee);
          d.leaders.insert(address + instr.length);
          address += instr.length;  // continue at the return point
          continue;
        }
        case Terminator::kReturn:
        case Terminator::kExit:
          break;
        case Terminator::kIndirect: {
          if (const std::vector<u32>* targets = targets_at(options, address)) {
            for (u32 target : *targets) {
              d.leaders.insert(target);
              worklist.push_back(target);
            }
            break;  // path continues only at the resolved targets
          }
          if (options.tolerate_unresolved) break;  // successor-less terminator
          return Error(
              ErrorCode::kAnalysisError,
              format("indirect jump at 0x%08x (%s) in function '%s' — not "
                     "analyzable; only 'ret' (jalr zero, 0(ra)) and "
                     "dataflow-resolved targets are supported",
                     address, isa::disassemble(instr).c_str(), name.c_str()));
        }
      }
      break;  // path ended (jump handled via worklist)
    }
  }
  return d;
}

// Split the discovered instruction stream into basic blocks and wire edges.
Result<Function> build_function(const assembler::Program& program, u32 entry,
                                const BuildOptions& options) {
  Function fn;
  fn.entry = entry;
  fn.name = format("fn_%08x", entry);
  for (const auto& [name, value] : program.symbols) {
    if (value == entry) {
      fn.name = name;
      break;
    }
  }
  S4E_TRY(d, discover(program, entry, fn.name, options));

  // Block formation: walk from each leader until a terminator or the next
  // leader. (Leaders outside the discovered set — e.g. the fall-through of
  // a terminal path — are skipped.)
  for (u32 leader : d.leaders) {
    if (d.insns.find(leader) == d.insns.end()) continue;
    BasicBlock block;
    block.id = static_cast<BlockId>(fn.blocks.size());
    block.start = leader;
    u32 address = leader;
    while (true) {
      auto it = d.insns.find(address);
      S4E_CHECK_MSG(it != d.insns.end(), "instruction stream has a hole");
      block.insns.push_back(it->second);
      const Terminator term = classify(it->second);
      address += it->second.length;
      if (term != Terminator::kFallThrough) {
        block.terminator = term;
        break;
      }
      if (d.leaders.count(address) != 0) {
        block.terminator = Terminator::kFallThrough;
        break;
      }
      if (d.insns.find(address) == d.insns.end()) {
        return Error(ErrorCode::kAnalysisError,
                     format("code at 0x%08x falls through into undecoded "
                            "memory", address - 4));
      }
    }
    block.end = address;
    fn.blocks.push_back(std::move(block));
  }

  // The entry block must be blocks[0] (leaders iterate in address order and
  // the entry is the lowest *reachable* leader only by convention; enforce
  // explicitly).
  auto entry_it = std::find_if(fn.blocks.begin(), fn.blocks.end(),
                               [&](const BasicBlock& b) { return b.start == entry; });
  S4E_CHECK(entry_it != fn.blocks.end());
  if (entry_it != fn.blocks.begin()) {
    std::iter_swap(fn.blocks.begin(), entry_it);
  }
  for (BlockId id = 0; id < fn.blocks.size(); ++id) {
    fn.blocks[id].id = id;
    fn.block_by_start[fn.blocks[id].start] = id;
  }

  // Edges.
  auto add_edge = [&](BlockId from, u32 target_addr, EdgeKind kind) -> Status {
    auto it = fn.block_by_start.find(target_addr);
    if (it == fn.block_by_start.end()) {
      return Error(ErrorCode::kAnalysisError,
                   format("edge target 0x%08x is not a block head",
                          target_addr));
    }
    fn.blocks[from].successors.push_back(Edge{it->second, kind});
    fn.blocks[it->second].predecessors.push_back(from);
    return Status();
  };

  for (BasicBlock& block : fn.blocks) {
    const Instr& last = block.insns.back();
    const u32 last_addr = block.end - last.length;
    switch (block.terminator) {
      case Terminator::kFallThrough:
        S4E_TRY_STATUS(add_edge(block.id, block.end, EdgeKind::kFallThrough));
        break;
      case Terminator::kBranch:
        S4E_TRY_STATUS(add_edge(block.id,
                                last_addr + static_cast<u32>(last.imm),
                                EdgeKind::kTaken));
        S4E_TRY_STATUS(add_edge(block.id, block.end, EdgeKind::kFallThrough));
        break;
      case Terminator::kJump:
        S4E_TRY_STATUS(add_edge(block.id,
                                last_addr + static_cast<u32>(last.imm),
                                EdgeKind::kTaken));
        break;
      case Terminator::kCall:
        block.call_target = last_addr + static_cast<u32>(last.imm);
        S4E_TRY_STATUS(add_edge(block.id, block.end, EdgeKind::kCallReturn));
        break;
      case Terminator::kReturn:
      case Terminator::kExit:
        break;
      case Terminator::kIndirect: {
        if (const std::vector<u32>* targets = targets_at(options, last_addr)) {
          for (u32 target : *targets) {
            S4E_TRY_STATUS(add_edge(block.id, target, EdgeKind::kTaken));
          }
          block.indirect_targets = *targets;
          break;
        }
        if (options.tolerate_unresolved) break;  // no successors
        return Error(ErrorCode::kAnalysisError,
                     format("indirect terminator at 0x%08x in function '%s'",
                            last_addr, fn.name.c_str()));
      }
    }
  }
  return fn;
}

}  // namespace

Result<ProgramCfg> build_cfg(const assembler::Program& program) {
  return build_cfg(program, BuildOptions{});
}

Result<ProgramCfg> build_cfg(const assembler::Program& program,
                             const BuildOptions& options) {
  ProgramCfg cfg;
  cfg.loop_bounds = program.loop_bounds;

  std::vector<u32> worklist{program.entry};
  std::set<u32> seen{program.entry};
  while (!worklist.empty()) {
    const u32 entry = worklist.back();
    worklist.pop_back();
    S4E_TRY(fn, build_function(program, entry, options));
    // Queue newly discovered callees.
    for (const BasicBlock& block : fn.blocks) {
      if (block.terminator == Terminator::kCall &&
          seen.insert(block.call_target).second) {
        worklist.push_back(block.call_target);
      }
    }
    cfg.function_by_entry[fn.entry] = static_cast<u32>(cfg.functions.size());
    cfg.functions.push_back(std::move(fn));
  }
  // functions[0] must be the program entry (worklist starts there, so it is).
  S4E_CHECK(cfg.functions[0].entry == program.entry);
  return cfg;
}

std::string to_dot(const ProgramCfg& cfg) {
  std::string out = "digraph cfg {\n  node [shape=box, fontname=monospace];\n";
  for (const Function& fn : cfg.functions) {
    out += format("  subgraph cluster_%08x {\n    label=\"%s\";\n", fn.entry,
                  fn.name.c_str());
    for (const BasicBlock& block : fn.blocks) {
      std::string label = format("B%u [0x%08x, 0x%08x)", block.id,
                                 block.start, block.end);
      out += format("    n%08x [label=\"%s\"];\n", block.start, label.c_str());
    }
    for (const BasicBlock& block : fn.blocks) {
      for (const Edge& edge : block.successors) {
        const char* style = edge.kind == EdgeKind::kTaken ? "solid"
                            : edge.kind == EdgeKind::kFallThrough ? "dashed"
                                                                  : "dotted";
        out += format("    n%08x -> n%08x [style=%s];\n", block.start,
                      fn.blocks[edge.target].start, style);
      }
      if (block.terminator == Terminator::kCall) {
        out += format("    n%08x -> n%08x [color=blue, label=call];\n",
                      block.start, block.call_target);
      }
    }
    out += "  }\n";
  }
  out += "}\n";
  return out;
}

}  // namespace s4e::cfg
