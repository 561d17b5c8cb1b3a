// Fault-effect analysis on the VP (MBMV'20): automatic injection of
// permanent and transient bit-flips into registers, data memory and code,
// simulation of every mutant, and classification of the outcomes.
//
// Fault-list generation is coverage-directed by default: a profiling run
// records which registers, memory bytes and code addresses the binary
// actually exercises, and faults are drawn only from that set — the paper's
// key scaling idea (don't simulate mutants the software can never observe).
#pragma once

#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "coverage/coverage.hpp"
#include "dataflow/triage.hpp"
#include "exec/campaign_executor.hpp"
#include "vp/machine.hpp"
#include "vp/plugin.hpp"

namespace s4e::fault {

enum class FaultTarget : u8 { kGpr, kMemory, kCode };
enum class FaultKind : u8 {
  kTransient,  // one bit-flip at a trigger instruction count
  kStuckAt,    // bit permanently forced to `stuck_value`
};

struct FaultSpec {
  FaultTarget target = FaultTarget::kGpr;
  FaultKind kind = FaultKind::kTransient;
  unsigned reg = 0;      // kGpr: architectural register index
  u32 address = 0;       // kMemory: byte address; kCode: word address
  u8 bit = 0;            // bit index (kGpr/kCode: 0..31, kMemory: 0..7)
  bool stuck_value = false;  // kStuckAt: forced bit value
  u64 trigger = 0;       // kTransient: icount at which the flip fires
  unsigned hart = 0;     // kGpr on SMP machines: hart whose register file
                         // takes the fault (always 0 on single-hart runs)

  std::string to_string() const;
};

// Plugin applying one FaultSpec to a running VP. Transient faults and code
// stuck-at faults act once, from the one-shot icount event, so the run stays
// on the VP's chained fast path; GPR and memory stuck-at faults re-force
// their bit from per-instruction (and, for memory, per-store) hooks.
class FaultInjectorPlugin final : public vp::PluginBase {
 public:
  explicit FaultInjectorPlugin(const FaultSpec& spec) : spec_(spec) {}

  Subscriptions subscriptions() const override {
    Subscriptions subs;
    if (spec_.kind == FaultKind::kTransient) {
      subs.icount = spec_.trigger;  // one flip at the trigger point
    } else if (spec_.target == FaultTarget::kCode) {
      subs.icount = 0;  // code bytes don't change on their own: patch once
    } else {
      subs.insn_exec = true;  // per-instruction stuck-at enforcement
      subs.mem = spec_.target == FaultTarget::kMemory;  // re-force after stores
    }
    return subs;
  }

  void on_icount(u64 icount) override;
  void on_insn_exec(const s4e_insn_info& insn) override;
  void on_mem(const s4e_mem_event& event) override;

  // Number of state writes performed (>= 1 once triggered, unless the
  // target was unwritable or a stuck-at bit already held its value).
  u64 applications() const noexcept { return applications_; }

 private:
  void apply_flip();
  void apply_stuck();

  FaultSpec spec_;
  u64 applications_ = 0;
};

// Mutant outcome classes (the MBMV'20 categories).
enum class Outcome : u8 {
  kMasked,    // normal termination, results identical to the golden run
  kSdc,       // normal termination, silently corrupted result
  kCrash,     // trap / breakpoint / halt without normal termination
  kHang,      // instruction budget exhausted
};

std::string_view to_string(Outcome outcome) noexcept;

struct MutantResult {
  FaultSpec spec;
  Outcome outcome = Outcome::kMasked;
  int exit_code = 0;
  u64 instructions = 0;
  // Static triage: true = the outcome was proven (kMasked) without running
  // the VP; `prune_reason` is the triage class tag. In verify mode the
  // mutant still executes and `pruned` marks what *would* have been skipped.
  bool pruned = false;
  std::string prune_reason;
  // Flight-recorder dump (the mutant's last executed instructions, memory
  // accesses and traps) captured for kHang/kCrash mutants when the campaign
  // runs with `post_mortem` enabled; empty otherwise.
  std::string post_mortem;
};

struct CampaignConfig {
  u64 seed = 1;
  unsigned mutant_count = 200;
  bool coverage_directed = true;  // E5 ablation switch
  bool gpr_faults = true;
  bool memory_faults = true;
  bool code_faults = true;
  // Hang budget as a multiple of the golden run's instruction count.
  u64 hang_budget_factor = 8;
  // Deep-state comparison: also compare the final .data contents against
  // the golden run, catching silent corruption that never reaches the exit
  // code or the UART (classified as SDC).
  bool compare_memory = true;
  // Worker threads for the mutant simulations (each worker owns a private
  // vp::Machine, so results are bit-identical to the serial run). 0 =
  // hardware_concurrency, 1 = run inline on the calling thread (the exact
  // serial code path).
  unsigned jobs = 0;
  // Reuse one long-lived machine per worker across its mutants: the loaded
  // state is snapshotted once and restored (dirty pages only, warm TB
  // cache) before every run. Off = build a fresh machine per mutant (the
  // pre-snapshot code path); results are bit-identical either way.
  bool reuse_machines = true;
  // --- Observability (src/obs). Neither switch changes any mutant outcome
  // or the campaign's stdout report — runs are only observed.
  // Collect campaign telemetry into CampaignResult::metrics_json.
  bool collect_metrics = false;
  // Attach a flight recorder to every mutant run and keep a post-mortem of
  // the last `post_mortem_events` events for every kHang/kCrash mutant.
  bool post_mortem = false;
  unsigned post_mortem_events = 16;
  // Static campaign triage (dataflow::StaticTriage). kOn skips mutants whose
  // outcome is statically provable (they report kMasked with zero simulated
  // instructions); kVerify runs them anyway and errors on any mismatch
  // between the static verdict and the dynamic outcome.
  dataflow::TriageMode triage = dataflow::TriageMode::kOff;
  // Shard selection for multi-process fleets (s4e-campaignd): the full
  // fault list is still generated deterministically (same RNG sequence for
  // every shard), then only the contiguous index range
  // [floor(i*M/N), floor((i+1)*M/N)) is simulated, where M is the full
  // list size, i = shard_index and N = shard_count. The union of all N
  // shards' results is exactly the serial campaign; shard_count == 1 is
  // the whole campaign (the default, bit-identical to the pre-shard code).
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  vp::MachineConfig machine;
};

struct CampaignResult {
  // Golden reference.
  int golden_exit_code = 0;
  u64 golden_instructions = 0;
  std::string golden_uart;
  u64 golden_memory_hash = 0;  // FNV-1a over the final .data contents

  std::vector<MutantResult> mutants;
  // Sharded runs: global index of mutants[0] in the full fault list, and
  // the full list's size. Whole-campaign runs have shard_begin == 0 and
  // total_faults == mutants.size().
  u64 shard_begin = 0;
  u64 total_faults = 0;
  u64 outcome_counts[4] = {0, 0, 0, 0};
  u64 pruned_count = 0;  // mutants decided statically (triage)
  double simulated_instructions = 0;  // across all mutants
  // Aggregate snapshot/restore cost over all reused worker machines (zeroed
  // when reuse_machines is off).
  vp::SnapshotStats snapshot_stats;
  // One-line JSON campaign telemetry ("{}" unless collect_metrics). Only
  // partition-invariant values are exported, so the string is
  // byte-identical across `jobs` counts and machine reuse on/off.
  std::string metrics_json = "{}";

  u64 count(Outcome outcome) const {
    return outcome_counts[static_cast<unsigned>(outcome)];
  }
  // Non-masked ("informative") fraction for one fault target class.
  double informative_fraction(FaultTarget target) const;
  std::string to_string() const;
};

class Campaign {
 public:
  Campaign(assembler::Program program, const CampaignConfig& config)
      : program_(std::move(program)), config_(config) {}

  // Golden run + fault-list generation + one simulation per mutant
  // (fanned out over `config.jobs` workers; aggregation is deterministic).
  Result<CampaignResult> run();

  // The generated fault list (valid after run()).
  const std::vector<FaultSpec>& fault_list() const noexcept { return faults_; }

  // Live progress of an in-flight run(): mutants done plus an Outcome
  // histogram snapshot (indexed by static_cast<unsigned>(Outcome)).
  // Safe to read from any thread while run() executes.
  const exec::CampaignProgress& progress() const noexcept { return progress_; }

 private:
  struct Profile {
    coverage::CoverageData coverage;
    std::vector<u32> touched_memory;   // data addresses accessed
    std::vector<u32> executed_code;    // instruction addresses executed
  };

  Result<Profile> profile_run(CampaignResult& result);
  std::vector<FaultSpec> generate_faults(const Profile& profile);
  Outcome classify(const vp::RunResult& run, const std::string& uart,
                   u64 memory_hash, const CampaignResult& golden) const;
  // One mutant simulation on `machine`, which must hold the freshly loaded
  // (or snapshot-restored) program with no plugins attached. Thread-safe:
  // shares only the immutable program and golden reference.
  Result<MutantResult> run_mutant_on(vp::Machine& machine,
                                     const FaultSpec& spec,
                                     const CampaignResult& golden) const;
  // Fresh-machine path (reuse_machines off): build, load, run one mutant.
  Result<MutantResult> run_mutant(const FaultSpec& spec,
                                  const vp::MachineConfig& machine_config,
                                  const CampaignResult& golden) const;

  assembler::Program program_;
  CampaignConfig config_;
  std::vector<FaultSpec> faults_;
  exec::CampaignProgress progress_;
};

}  // namespace s4e::fault
