// Shared campaign-runner plumbing: the golden run (and its recording) that
// fault-effect analysis and binary mutation both start from, final-state
// hashing, and the per-worker reusable VM (snapshot once, restore per
// mutant, optionally from a ladder of golden checkpoints) that both
// campaign engines drive through CampaignExecutor::run_affine().
#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "vp/machine.hpp"
#include "vp/snapshot.hpp"

namespace s4e::vp {

// FNV-1a over the program's final .data contents in `machine`'s RAM — the
// deep-state comparison surface of the campaign engines. 0 when the program
// has no .data section (or it does not lie wholly inside RAM).
u64 data_memory_hash(Machine& machine, const assembler::Program& program);

// Instruction budget for one mutant run: `golden_instructions * factor`
// plus a fixed slack for short goldens, computed with saturating arithmetic
// (a long golden run times a large factor must not wrap to a tiny — or
// zero — budget that disables or corrupts the hang detector), and clamped
// to the machine config's own `max_instructions` cap.
u64 hang_budget(u64 golden_instructions, u64 factor, u64 max_instructions)
    noexcept;

// Golden (fault-free) reference execution of a program.
struct GoldenRun {
  RunResult result;
  std::string uart;
  u64 memory_hash = 0;              // FNV-1a over the final .data contents
  std::vector<u32> executed_code;   // instruction addresses executed (sorted)
  std::vector<u32> touched_memory;  // data addresses accessed (sorted)
};

// What a golden run did to each location, in instruction order: the record
// the campaign driver's exact shortcuts read. A location is a GPR or a RAM
// byte; an access is a read or a write by the instruction with index i
// (i instructions retired before it). GPR accesses follow isa::def_use,
// plus the ecall's implicit a0/a7 reads; a trapping instruction writes
// nothing. RAM accesses are loads, stores and the fetch of every executed
// instruction's bytes. Each location keeps its accesses as runs of one
// kind, which answers "what is the next access at or after i" exactly: an
// access inside a run has the run's kind. Single-hart meaning only: on SMP
// the GPR lists merge the harts (only gprs_read() is used there).
class GoldenRecording {
 public:
  enum class Access : u8 { kNone, kRead, kWrite };

  // The first access to x`reg` / the RAM byte at `address` by an
  // instruction with index >= `from`.
  Access next_gpr_access(unsigned reg, u64 from) const;
  Access next_byte_access(u32 address, u64 from) const;
  // True if an instruction with index >= `from` read time-dependent input:
  // a counter CSR or mip, a CLINT or GPIO load, a wfi, or ran with
  // MTIE/MSIE armed.
  bool reads_time_from(u64 from) const noexcept { return time_end_ > from; }
  // GPRs some instruction reads as an explicit operand (bit i = xi).
  u32 gprs_read() const noexcept { return gprs_read_; }
  // Instructions executed.
  u64 instructions() const noexcept { return instructions_; }

 private:
  friend struct GoldenRecorder;
  struct Run {
    u64 first;
    u64 last;
    bool write;
  };
  struct History {
    std::vector<Run> runs;
    void add(u64 index, bool write);
    Access next(u64 from) const;
  };

  std::array<History, isa::kGprCount> gprs_;
  std::unordered_map<u32, History> bytes_;
  u64 time_end_ = 0;  // 1 + index of the last time-dependent instruction
  u32 gprs_read_ = 0;
  u64 instructions_ = 0;
};

// Load `program` into `machine`, run it to completion and collect the
// golden reference — and, given `recording`, record the run into it. The
// machine is constructed by the caller so extra plugins can be attached
// before the run. Fails unless the run terminates normally.
Result<GoldenRun> run_golden(Machine& machine,
                             const assembler::Program& program,
                             GoldenRecording* recording = nullptr);

// One worker's long-lived VM for a mutant campaign: the machine is built
// and loaded once, a baseline Snapshot is captured, and every subsequent
// prepare() hands back a machine restored to the loaded state — dirty
// pages only, TB cache warm, previous run's plugins dropped.
//
// Given the golden run's length, the worker also runs the program once
// more and captures a ladder of at most kMaxRungs rungs (vp/snapshot.hpp)
// spread evenly along it, at least kMinRungSpacing instructions apart, each
// at a quiet block head (the ladder ends at the first head that is not);
// prepare(start) then restores the highest rung at or below `start`
// instead.
class WorkerVm {
 public:
  static constexpr unsigned kMaxRungs = 32;
  static constexpr u64 kMinRungSpacing = 32;  // golden instructions

  static Result<std::unique_ptr<WorkerVm>> create(
      const MachineConfig& config, const assembler::Program& program,
      u64 ladder_instructions = 0);

  // Machine for the next mutant run, restored to the latest checkpoint at
  // or before instruction `start` (the baseline for 0): a run that equals
  // the golden run up to `start` continues exactly as from the baseline.
  Machine& prepare(u64 start = 0);

  Machine& machine() noexcept { return machine_; }
  const SnapshotStats& stats() const noexcept {
    return machine_.snapshot_stats();
  }

 private:
  explicit WorkerVm(const MachineConfig& config) : machine_(config) {}

  Machine machine_;
  Snapshot baseline_;
  std::vector<Snapshot> rungs_;  // ascending icount, based on baseline_
};

}  // namespace s4e::vp
