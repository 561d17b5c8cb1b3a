// Shared campaign-runner plumbing: the golden-run setup and final-state
// hashing that fault-effect analysis and binary mutation both need, plus
// the per-worker reusable VM (snapshot once, restore per mutant) that both
// campaign engines drive through CampaignExecutor::run_affine().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "vp/machine.hpp"
#include "vp/snapshot.hpp"

namespace s4e::vp {

// FNV-1a over the program's final .data contents in `machine`'s RAM — the
// deep-state comparison surface of the campaign engines. 0 when the program
// has no .data section (or it does not lie wholly inside one RAM region).
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

// Load `program` into `machine`, run it to completion and collect the
// golden reference. The machine is constructed by the caller so extra
// plugins (coverage) can be attached before the run. Fails unless the run
// terminates normally.
Result<GoldenRun> run_golden(Machine& machine,
                             const assembler::Program& program);

// One worker's long-lived VM for a mutant campaign: the machine is built
// and loaded once, a baseline Snapshot is captured, and every subsequent
// prepare() hands back a machine restored to the loaded state — dirty
// pages only, TB cache warm, previous run's plugins dropped.
class WorkerVm {
 public:
  static Result<std::unique_ptr<WorkerVm>> create(
      const MachineConfig& config, const assembler::Program& program);

  // Baseline machine for the next mutant run.
  Machine& prepare();

  Machine& machine() noexcept { return machine_; }
  const SnapshotStats& stats() const noexcept {
    return machine_.snapshot_stats();
  }

 private:
  explicit WorkerVm(const MachineConfig& config) : machine_(config) {}

  Machine machine_;
  Snapshot baseline_;
};

}  // namespace s4e::vp
