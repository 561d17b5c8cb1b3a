// Static campaign triage: classify fault-injection sites and mutation
// candidates before execution, so campaigns skip runs whose outcome is
// statically provable. Built on the interprocedural analysis (callgraph +
// summaries + refined solutions).
//
// Soundness contract: a pruned verdict is only ever emitted when the
// abstract semantics prove the faulty run indistinguishable from the golden
// run under the campaign's own observation model (exit code, UART stream,
// final .data hash; GPRs and .text are NOT part of the comparison). The
// classes:
//
//   dead-register     GPR fault: no statically reachable instruction (nor
//                     the exit ecall) ever reads the register
//   unreachable-code  code fault / mutant: the patched bytes intersect no
//                     reachable instruction and no may-read data window
//   stuck-at-nop      stuck-at fault: the forced bit already holds the
//                     stuck value and no store may rewrite the word
//   identical         mutant encoding equals the original
//   value-equivalent  both pure-ALU, same rd, and the abstract results are
//                     the same single value at every reachable occurrence
//   branch-equivalent both branches with a statically decided, identical
//                     successor at every reachable occurrence
//   dead-write        both pure-ALU and every written register is dead
//                     after the site at every reachable occurrence
//
// `--triage=verify` (campaign layer) still executes pruned candidates and
// asserts the dynamic outcome matches — the regression harness for this
// contract.
//
// Mutant decisions split into a per-address part and a per-mutant part.
// site() computes what every mutant of one address shares once: the
// address-level verdict, or, for each reachable occurrence of a pure-ALU
// or branch original, the abstract state before it, its live-after mask
// and the original's abstract effect. mutant(site, ...) then evaluates only
// the mutated instruction against that context.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "dataflow/analyze.hpp"

namespace s4e::dataflow {

enum class TriageMode : u8 { kOff, kOn, kVerify };

// Maps a `--triage[=...]` flag value: "", "on" -> kOn; "off" -> kOff;
// "verify" -> kVerify; anything else -> nullopt.
std::optional<TriageMode> parse_triage_mode(std::string_view value);

struct TriageOptions {
  // One past the highest stack address (the loader's initial sp). Bounds
  // the window stack-relative accesses can reach; 0 = unknown, which makes
  // every stack access an unbounded read/write and disables code-region
  // pruning for programs that touch the stack.
  u32 stack_top = 0;
};

struct TriageDecision {
  bool pruned = false;
  const char* reason = "";  // stable tag from the class list above
};

class StaticTriage {
 public:
  // Address window in the canonical (sign-extended i32) space the data-flow
  // layer uses throughout; inclusive bounds.
  struct Range {
    i64 lo = 0;
    i64 hi = 0;
  };

  // Runs analyze_program and precomputes the whole-program read/write/code
  // windows and the reachable-instruction index.
  static Result<StaticTriage> build(const assembler::Program& program,
                                    const TriageOptions& options = {});

  // Fault-injection sites (fault::FaultSpec semantics: kGpr by register,
  // kCode by 32-bit word address + bit). kMemory faults are never pruned —
  // the flipped byte lands in the hashed .data image.
  TriageDecision gpr_fault(unsigned reg) const;
  TriageDecision code_fault(u32 address, bool stuck_at, u8 bit,
                            bool stuck_value) const;

  // The context all mutation candidates of `length` bytes at `address`
  // share. Refers into this triage's analysis: it must not outlive it.
  class Site {
   public:
    u32 address() const noexcept { return address_; }
    u8 length() const noexcept { return length_; }

   private:
    friend class StaticTriage;
    // One reachable occurrence of a pure-ALU or branch original.
    struct Context {
      const isa::Instr* original = nullptr;
      u32 pc = 0;
      RegState before;     // abstract state ahead of the instruction
      u32 live_after = 0;  // registers live after it (x0 masked)
      AbsValue value;      // pure-ALU original: its abstract rd value
      std::optional<u32> next;  // branch original: its decided successor
    };

    u32 address_ = 0;
    u8 length_ = 0;
    // Without contexts, the address-level checks decided every
    // non-identical mutant of the site as `verdict_`.
    TriageDecision verdict_;
    std::vector<Context> contexts_;
  };

  Site site(u32 address, u8 length) const;

  // Mutation candidate (mutation::Mutant patch model: `length` bytes at
  // `address` change from `original` to `mutated` encoding), decided
  // against the site of its address.
  TriageDecision mutant(const Site& site, u32 original, u32 mutated) const;
  // One candidate on its own: mutant(site(address, length), ...). Callers
  // with several candidates per address build the site once instead.
  TriageDecision mutant(u32 address, u8 length, u32 original,
                        u32 mutated) const;

  const Analysis& analysis() const { return *analysis_; }

 private:
  struct Occurrence {
    u32 pc = 0;
    u32 function = 0;
    cfg::BlockId block = cfg::kNoBlock;
    u32 index = 0;  // instruction position within the block
  };

  bool overlaps_code(i64 lo, i64 hi) const;
  bool data_readable(i64 lo, i64 hi) const;
  bool data_writable(i64 lo, i64 hi) const;
  std::optional<u32> image_word(u32 address) const;

  std::shared_ptr<const Analysis> analysis_;
  std::vector<assembler::Section> sections_;
  u32 ever_read_ = ~u32{0};
  std::vector<Range> code_ranges_;   // reachable instruction bytes, merged
  std::vector<Range> read_ranges_;   // whole-program may-read windows
  std::vector<Range> write_ranges_;  // whole-program may-write windows
  bool reads_unknown_ = true;
  bool writes_unknown_ = true;
  // Every reachable (function, block, index) decoding, sorted by pc: all
  // decodings of one address are adjacent.
  std::vector<Occurrence> occurrences_;
};

}  // namespace s4e::dataflow
