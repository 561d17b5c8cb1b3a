// Binary mutation testing (the XEMU flow, EMSOFT'12): systematic mutation
// of the software-under-test's *binary* and re-execution to measure how
// many mutants the program's own checks detect ("kill"). Surviving mutants
// are exactly the MBMV'20 "normal termination on faulty hardware" class —
// the subjects for strengthening the verification.
//
// Mutation operators mirror XEMU's binary operators, applied at the decoded
// instruction level so every mutant is a *legal* instruction (no trivial
// illegal-opcode kills):
//   - OSR: opcode substitution within the same format (add<->sub, beq<->bne)
//   - ROR: register operand replacement (rd/rs1/rs2 -> neighbouring reg)
//   - IPR: immediate perturbation (imm+1, imm = 0)
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "campaign/campaign.hpp"
#include "campaign/spec.hpp"
#include "common/status.hpp"
#include "dataflow/triage.hpp"
#include "isa/instr.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"

namespace s4e::mutation {

enum class Operator : u8 {
  kOpcodeSubstitution,
  kRegisterReplacement,
  kImmediatePerturbation,
};

std::string_view to_string(Operator op) noexcept;

struct Mutant {
  u32 address = 0;       // mutated instruction's address
  u32 original = 0;      // original encoding
  u32 mutated = 0;       // replacement encoding (same length)
  u8 length = 4;         // encoding size (RVC mutants are 2)
  Operator op = Operator::kOpcodeSubstitution;
  std::string description;
};

enum class Verdict : u8 {
  kKilledResult,  // different exit code or UART output
  kKilledCrash,   // mutant crashed (trap / breakpoint)
  kKilledHang,    // mutant exceeded the instruction budget
  kSurvived,      // indistinguishable from the golden run
};

std::string_view to_string(Verdict verdict) noexcept;

// One mutant's result: the common fields (exit code, instructions, triage,
// post-mortem) plus the mutant and its verdict. Pruned (proven-equivalent)
// mutants are kSurvived.
struct MutantResult : campaign::ResultFields {
  Mutant mutant;
  Verdict verdict = Verdict::kSurvived;
};

struct MutationScore : campaign::ReportFields {
  std::vector<MutantResult> results;
  u64 total_mutants = 0;  // the full enumeration's size (all shards)
  u64 verdict_counts[4] = {0, 0, 0, 0};

  u64 count(Verdict verdict) const {
    return verdict_counts[static_cast<unsigned>(verdict)];
  }
  u64 killed() const {
    return count(Verdict::kKilledResult) + count(Verdict::kKilledCrash) +
           count(Verdict::kKilledHang);
  }
  double score() const {
    return results.empty() ? 0.0
                           : static_cast<double>(killed()) /
                                 static_cast<double>(results.size());
  }
  // Kill rate restricted to one operator class.
  double score(Operator op) const;

  std::string to_string() const;
};

// The mutation model's knobs; the driver-owned ones (jobs, triage, shards,
// hang budget, observability, machine) come from campaign::DriverConfig.
struct MutationConfig : campaign::DriverConfig {
  // Only mutate instructions the golden run actually executes (everything
  // else trivially survives and would dilute the score meaninglessly).
  bool executed_only = true;
  // Cap on generated mutants (0 = unlimited); selection is deterministic
  // (first-N in address order).
  unsigned max_mutants = 0;
};

// Enumerate all mutants of `program` (deterministic, address-ordered).
// `executed` restricts to the given instruction addresses (empty = all).
std::vector<Mutant> enumerate_mutants(const assembler::Program& program,
                                      const std::vector<u32>& executed);

// The binary-mutation model of the generic campaign driver
// (campaign/driver.hpp): the mutant enumeration over the golden run's
// executed instructions, static equivalence triage, and one patched run
// per mutant judged by the kill criteria (exit code, UART output). The
// static members are the result vocabulary the driver, the tools and the
// fleet merge share.
class MutationModel {
 public:
  using Config = MutationConfig;
  using Item = Mutant;
  using ItemResult = MutantResult;
  using Report = MutationScore;
  // The model's vocabulary, named once: the campaign's name, then its
  // result classes (Operator order) and buckets (Verdict order).
  // to_string(Operator), to_string(Verdict) and the fleet wire print these.
  static constexpr const char* kName = "mutation";
  static constexpr const char* kClassNames[] = {"opcode-subst",
                                                "register-repl",
                                                "imm-perturb"};
  static constexpr const char* kBucketNames[] = {
      "killed-result", "killed-crash", "killed-hang", "SURVIVED"};
  // Telemetry names of the result buckets, in Verdict order.
  static constexpr const char* kBuckets[] = {"killed_result", "killed_crash",
                                             "killed_hang", "survived"};
  // The mutation campaign's knobs (campaign/spec.hpp).
  static constexpr campaign::Knob<MutationConfig> kKnobs[] = {
      campaign::field_knob<MutationConfig, &MutationConfig::max_mutants>(
          "--max", campaign::KnobKind::kInteger, 0, 0xffffffffLL),
      campaign::field_knob<MutationConfig, &MutationConfig::executed_only>(
          "--all-sites", campaign::KnobKind::kSwitch),
  };

  MutationModel(assembler::Program program, const MutationConfig& config)
      : program_(std::move(program)), config_(config) {}

  const assembler::Program& program() const noexcept { return program_; }
  const MutationConfig& config() const noexcept { return config_; }

  // Golden run into `golden`, then the (capped) mutant enumeration. The
  // golden run is not recorded: no mutant result is known without a run.
  Result<std::vector<Mutant>> enumerate(
      vp::GoldenRun& golden, vp::GoldenRecording* recording = nullptr) const;
  // One decision per mutant, in order. The mutants of one address share
  // one StaticTriage::Site (the enumeration is address-ordered, so they
  // are adjacent).
  std::vector<dataflow::TriageDecision> decide(
      const dataflow::StaticTriage& triage,
      std::span<const Mutant> mutants) const;
  // One mutant run on `machine`, which must hold the freshly loaded (or
  // snapshot-restored) unmutated program with no plugins attached,
  // configured with the campaign's item_machine(); the mutated encoding is
  // patched in here and the touched translation blocks invalidated.
  // Thread-safe: shares only the immutable program and golden reference.
  Result<MutantResult> run_one(vp::Machine& machine, const Mutant& mutant,
                               const vp::GoldenRun& golden) const;

  std::optional<MutantResult> known(const vp::GoldenRecording&,
                                    const Mutant&,
                                    const vp::GoldenRun&) const {
    return std::nullopt;
  }
  // A mutant is patched in before its run starts.
  static u64 start_icount(const Mutant&) { return 0; }

  static MutantResult pruned(const Mutant& mutant);  // proven equivalent
  static Verdict bucket(const MutantResult& result) { return result.verdict; }
  static std::string describe(const Mutant& mutant);
  // Fleet records carry a result as (class, bucket): the mutation operator
  // and the verdict.
  static unsigned klass(const MutantResult& result) {
    return static_cast<unsigned>(result.mutant.op);
  }
  static MutantResult from_class(unsigned klass, unsigned bucket);
  // The report: full-list size, then one in-order fold per result (the
  // driver's and the fleet merge's).
  static MutationScore open(const vp::GoldenRun& golden, u64 total);
  static void fold(MutationScore& report, MutantResult result);
  static std::vector<MutantResult>& results(MutationScore& report) {
    return report.results;
  }

 private:
  assembler::Program program_;
  MutationConfig config_;
};

using MutationCampaign = campaign::Campaign<MutationModel>;

}  // namespace s4e::mutation
