// Fault-effect analysis on the VP (MBMV'20): automatic injection of
// permanent and transient bit-flips into registers, data memory and code,
// simulation of every mutant, and classification of the outcomes.
//
// Fault-list generation is coverage-directed by default: a profiling run
// records which registers, memory bytes and code addresses the binary
// actually exercises, and faults are drawn only from that set — the paper's
// key scaling idea (don't simulate mutants the software can never observe).
//
// The profiling run is the golden run, recorded once (vp::GoldenRecording):
// it gives the fault list its registers, bytes and code, and the campaign
// driver its exact shortcuts. A transient fault whose target the golden run
// next writes, or never touches again outside the compared .data surface,
// in a run that reads no time-dependent input after its trigger, is dead:
// reported masked with the golden exit code and instruction count, without
// a run (FaultModel::known). Every other
// transient fault starts at the golden checkpoint below its trigger
// (start_icount); hangs that provably cycle stop early and report the
// budget, as a full run would.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "campaign/campaign.hpp"
#include "campaign/spec.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "coverage/coverage.hpp"
#include "dataflow/triage.hpp"
#include "vp/machine.hpp"
#include "vp/plugin.hpp"
#include "vp/runner.hpp"

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

// Plugin applying one FaultSpec to a running VP. Every fault acts once,
// from the one-shot icount event, so the run stays on the VP's chained fast
// path: a transient fault flips its bit at the trigger; a stuck-at fault
// arms at icount 0. A code stuck-at patches its word once (code bytes do
// not change on their own); a GPR or memory stuck-at forces its bit in the
// VP (s4e_force_gpr_bit / s4e_force_mem_bit), which re-applies it on every
// later write of the register or byte.
class FaultInjectorPlugin final : public vp::PluginBase {
 public:
  explicit FaultInjectorPlugin(const FaultSpec& spec) : spec_(spec) {}

  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.icount = spec_.kind == FaultKind::kTransient ? spec_.trigger : 0;
    return subs;
  }

  void on_icount(u64 icount) override;

  // Number of state writes performed: 1 once triggered (a stuck-at fault
  // counts its arming), 0 if the target was unwritable or a code stuck-at
  // bit already held its value.
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

// One mutant's result: the common fields (exit code, instructions, triage,
// post-mortem) plus the fault and its outcome. Pruned mutants are kMasked.
struct MutantResult : campaign::ResultFields {
  FaultSpec spec;
  Outcome outcome = Outcome::kMasked;
};

// The fault model's knobs; the driver-owned ones (jobs, triage, shards,
// hang budget, observability, machine) come from campaign::DriverConfig.
struct CampaignConfig : campaign::DriverConfig {
  u64 seed = 1;
  unsigned mutant_count = 200;
  bool coverage_directed = true;  // E5 ablation switch
  bool gpr_faults = true;
  bool memory_faults = true;
  bool code_faults = true;
  // Deep-state comparison: also compare the final .data contents against
  // the golden run, catching silent corruption that never reaches the exit
  // code or the UART (classified as SDC).
  bool compare_memory = true;
};

struct CampaignResult : campaign::ReportFields {
  // Golden reference.
  int golden_exit_code = 0;
  u64 golden_instructions = 0;
  std::string golden_uart;
  u64 golden_memory_hash = 0;  // FNV-1a over the final .data contents

  std::vector<MutantResult> mutants;
  u64 total_faults = 0;  // the full fault list's size (all shards)
  u64 outcome_counts[4] = {0, 0, 0, 0};
  double simulated_instructions = 0;  // across all mutants

  u64 count(Outcome outcome) const {
    return outcome_counts[static_cast<unsigned>(outcome)];
  }
  // Non-masked ("informative") fraction for one fault target class.
  double informative_fraction(FaultTarget target) const;
  std::string to_string() const;
};

// The fault-effect model of the generic campaign driver
// (campaign/driver.hpp): a coverage-directed fault list, static triage per
// fault site, and one injected run per fault classified against the golden
// run. The static members are the result vocabulary the driver, the tools
// and the fleet merge share.
class FaultModel {
 public:
  using Config = CampaignConfig;
  using Item = FaultSpec;
  using ItemResult = MutantResult;
  using Report = CampaignResult;
  // The model's vocabulary, named once: the campaign's name, then its
  // result classes (FaultTarget order) and buckets (Outcome order).
  // FaultSpec::to_string, to_string(Outcome), the telemetry, the progress
  // line and the fleet wire all print these.
  static constexpr const char* kName = "fault";
  static constexpr const char* kClassNames[] = {"gpr", "mem", "code"};
  static constexpr const char* kBucketNames[] = {"masked", "sdc", "crash",
                                                 "hang"};
  // Telemetry names of the result buckets: the same.
  static constexpr const auto& kBuckets = kBucketNames;
  // The fault campaign's knobs (campaign/spec.hpp).
  static constexpr campaign::Knob<CampaignConfig> kKnobs[] = {
      campaign::field_knob<CampaignConfig, &CampaignConfig::machine,
                           &vp::MachineConfig::num_harts>(
          "--harts", campaign::KnobKind::kInteger, 1, vp::Clint::kMaxHarts),
      campaign::field_knob<CampaignConfig, &CampaignConfig::mutant_count>(
          "--mutants", campaign::KnobKind::kInteger, 0, 0xffffffffLL),
      campaign::field_knob<CampaignConfig, &CampaignConfig::seed>(
          "--seed", campaign::KnobKind::kInteger, 0, 0x7fffffffffffffffLL),
      campaign::field_knob<CampaignConfig, &CampaignConfig::coverage_directed>(
          "--blind", campaign::KnobKind::kSwitch),
      campaign::field_knob<CampaignConfig, &CampaignConfig::gpr_faults>(
          "--no-gpr", campaign::KnobKind::kSwitch),
      campaign::field_knob<CampaignConfig, &CampaignConfig::memory_faults>(
          "--no-mem", campaign::KnobKind::kSwitch),
      campaign::field_knob<CampaignConfig, &CampaignConfig::code_faults>(
          "--no-code", campaign::KnobKind::kSwitch),
  };

  FaultModel(assembler::Program program, const CampaignConfig& config)
      : program_(std::move(program)), config_(config) {}

  const assembler::Program& program() const noexcept { return program_; }
  const CampaignConfig& config() const noexcept { return config_; }

  // Golden (profiling) run into `golden`, recorded into `recording` when
  // given, then the fault list drawn from the registers, memory and code it
  // exercised.
  Result<std::vector<FaultSpec>> enumerate(
      vp::GoldenRun& golden, vp::GoldenRecording* recording = nullptr) const;
  // The result of a transient fault that is dead at its trigger on a
  // single-hart machine (the golden run's next access to its target is a
  // write, or there is none and the target lies outside the compared .data,
  // and it reads no time-dependent input from the trigger on): masked, with
  // the golden run's exit code and instruction count. nullopt when the
  // fault must run.
  std::optional<MutantResult> known(const vp::GoldenRecording& recording,
                                    const FaultSpec& spec,
                                    const vp::GoldenRun& golden) const;
  // Instructions up to which a run of `spec` is the golden run: a transient
  // fault's trigger, 0 for a stuck-at fault (it arms at icount 0).
  static u64 start_icount(const FaultSpec& spec) {
    return spec.kind == FaultKind::kTransient ? spec.trigger : 0;
  }
  // One decision per fault, in order.
  std::vector<dataflow::TriageDecision> decide(
      const dataflow::StaticTriage& triage,
      std::span<const FaultSpec> specs) const;
  // One mutant simulation on `machine`, which must hold the freshly loaded
  // (or snapshot-restored) program with no plugins attached, configured
  // with the campaign's item_machine(). Thread-safe: shares only the
  // immutable program and golden reference.
  Result<MutantResult> run_one(vp::Machine& machine, const FaultSpec& spec,
                               const vp::GoldenRun& golden) const;

  static MutantResult pruned(const FaultSpec& spec);  // statically masked
  static Outcome bucket(const MutantResult& mutant) { return mutant.outcome; }
  static std::string describe(const FaultSpec& spec) {
    return spec.to_string();
  }
  // Fleet records carry a result as (class, bucket): the fault target and
  // the outcome.
  static unsigned klass(const MutantResult& mutant) {
    return static_cast<unsigned>(mutant.spec.target);
  }
  static MutantResult from_class(unsigned klass, unsigned bucket);
  // The report: golden reference and full-list size, then one in-order
  // fold per result (the driver's and the fleet merge's).
  static CampaignResult open(const vp::GoldenRun& golden, u64 total);
  static void fold(CampaignResult& report, MutantResult mutant);
  static std::vector<MutantResult>& results(CampaignResult& report) {
    return report.mutants;
  }

 private:
  assembler::Program program_;
  CampaignConfig config_;
};

class Campaign : public campaign::Campaign<FaultModel> {
 public:
  using campaign::Campaign<FaultModel>::Campaign;

  // The generated fault list (valid after run()).
  const std::vector<FaultSpec>& fault_list() const noexcept { return items(); }
};

}  // namespace s4e::fault
