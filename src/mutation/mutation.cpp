#include "mutation/mutation.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "campaign/driver.hpp"
#include "common/strings.hpp"
#include "isa/disasm.hpp"
#include "isa/encoder.hpp"
#include "isa/rvc.hpp"
#include "obs/flight_recorder.hpp"
#include "vp/runner.hpp"

namespace s4e::mutation {

namespace {

using isa::Format;
using isa::Instr;
using isa::Op;

// Same-format opcode substitutions (both directions are generated when both
// sides appear in the program).
constexpr std::pair<Op, Op> kSubstitutions[] = {
    {Op::kAdd, Op::kSub},   {Op::kAnd, Op::kOr},    {Op::kOr, Op::kXor},
    {Op::kSlt, Op::kSltu},  {Op::kSll, Op::kSrl},   {Op::kSrl, Op::kSra},
    {Op::kBeq, Op::kBne},   {Op::kBlt, Op::kBge},   {Op::kBltu, Op::kBgeu},
    {Op::kAddi, Op::kXori}, {Op::kOri, Op::kAndi},  {Op::kSlti, Op::kSltiu},
    {Op::kSlli, Op::kSrli}, {Op::kSrli, Op::kSrai}, {Op::kLw, Op::kLh},
    {Op::kLbu, Op::kLhu},   {Op::kSw, Op::kSh},     {Op::kMul, Op::kMulh},
    {Op::kDiv, Op::kRem},   {Op::kDivu, Op::kRemu},
};

// Re-encode `instr` with the same length as the original; nullopt when the
// mutated form has no encoding of that length.
std::optional<u32> encode_same_length(const Instr& instr, u8 length) {
  if (length == 2) {
    const auto half = isa::compress(instr);
    return half.has_value() ? std::optional<u32>(*half) : std::nullopt;
  }
  auto word = isa::encode(instr);
  return word.ok() ? std::optional<u32>(*word) : std::nullopt;
}

void add_mutant(std::vector<Mutant>& out, u32 address, u32 original,
                u8 length, const Instr& mutated_instr, Operator op,
                std::string description) {
  const auto encoding = encode_same_length(mutated_instr, length);
  if (!encoding.has_value() || *encoding == original) return;
  Mutant mutant;
  mutant.address = address;
  mutant.original = original;
  mutant.mutated = *encoding;
  mutant.length = length;
  mutant.op = op;
  mutant.description = std::move(description);
  out.push_back(std::move(mutant));
}

void mutants_for(std::vector<Mutant>& out, u32 address, const Instr& instr) {
  const u32 original = instr.raw;
  const u8 length = instr.length;
  const isa::OpInfo& info = instr.info();

  // --- OSR: opcode substitution.
  for (const auto& [a, b] : kSubstitutions) {
    Op substitute = Op::kCount;
    if (instr.op == a) substitute = b;
    if (instr.op == b) substitute = a;
    if (substitute == Op::kCount) continue;
    Instr mutated = instr;
    mutated.op = substitute;
    add_mutant(out, address, original, length, mutated,
               Operator::kOpcodeSubstitution,
               format("%s -> %s", std::string(isa::mnemonic(instr.op)).c_str(),
                      std::string(isa::mnemonic(substitute)).c_str()));
  }

  // --- ROR: register operand replacement (neighbouring register).
  if (info.writes_rd && instr.rd != 0) {
    Instr mutated = instr;
    mutated.rd = static_cast<u8>((instr.rd % 31) + 1);  // stays in x1..x31
    add_mutant(out, address, original, length, mutated,
               Operator::kRegisterReplacement,
               format("rd x%u -> x%u", instr.rd, mutated.rd));
  }
  if (info.reads_rs1) {
    Instr mutated = instr;
    mutated.rs1 = static_cast<u8>((instr.rs1 + 1) % 32);
    add_mutant(out, address, original, length, mutated,
               Operator::kRegisterReplacement,
               format("rs1 x%u -> x%u", instr.rs1, mutated.rs1));
  }
  if (info.reads_rs2 && info.format != Format::kIShift) {
    Instr mutated = instr;
    mutated.rs2 = static_cast<u8>((instr.rs2 + 1) % 32);
    add_mutant(out, address, original, length, mutated,
               Operator::kRegisterReplacement,
               format("rs2 x%u -> x%u", instr.rs2, mutated.rs2));
  }

  // --- IPR: immediate perturbation.
  switch (info.format) {
    case Format::kI:
    case Format::kS: {
      Instr plus = instr;
      plus.imm = instr.imm + 1;
      add_mutant(out, address, original, length, plus,
                 Operator::kImmediatePerturbation, "imm + 1");
      if (instr.imm != 0) {
        Instr zero = instr;
        zero.imm = 0;
        add_mutant(out, address, original, length, zero,
                   Operator::kImmediatePerturbation, "imm -> 0");
      }
      break;
    }
    case Format::kB:
    case Format::kJ: {
      // Keep 2-byte alignment: offset +- one parcel slot.
      Instr shifted = instr;
      shifted.imm = instr.imm + 4;
      add_mutant(out, address, original, length, shifted,
                 Operator::kImmediatePerturbation, "offset + 4");
      break;
    }
    case Format::kU: {
      Instr plus = instr;
      plus.imm = static_cast<i32>(static_cast<u32>(instr.imm) + 0x1000u);
      add_mutant(out, address, original, length, plus,
                 Operator::kImmediatePerturbation, "imm + 0x1000");
      break;
    }
    case Format::kIShift: {
      Instr plus = instr;
      plus.rs2 = static_cast<u8>((instr.rs2 + 1) % 32);
      plus.imm = plus.rs2;
      add_mutant(out, address, original, length, plus,
                 Operator::kImmediatePerturbation, "shamt + 1");
      break;
    }
    default:
      break;
  }
}

}  // namespace

std::string_view to_string(Operator op) noexcept {
  return MutationModel::kClassNames[static_cast<unsigned>(op)];
}

std::string_view to_string(Verdict verdict) noexcept {
  return MutationModel::kBucketNames[static_cast<unsigned>(verdict)];
}

double MutationScore::score(Operator op) const {
  u64 total = 0;
  u64 killed_count = 0;
  for (const MutantResult& result : results) {
    if (result.mutant.op != op) continue;
    ++total;
    killed_count += result.verdict != Verdict::kSurvived;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(killed_count) /
                          static_cast<double>(total);
}

std::string MutationScore::to_string() const {
  std::string out = "mutation analysis\n";
  out += format("  mutants        : %zu\n", results.size());
  if (pruned_count > 0) {
    out += format("  pruned (static): %llu (%.1f%%)\n",
                  static_cast<unsigned long long>(pruned_count),
                  100.0 * static_cast<double>(pruned_count) /
                      static_cast<double>(
                          std::max<std::size_t>(results.size(), 1)));
  }
  out += format("  killed         : %llu (%.1f%%)\n",
                static_cast<unsigned long long>(killed()), 100.0 * score());
  for (unsigned i = 0; i < 4; ++i) {
    const auto verdict = static_cast<Verdict>(i);
    out += format("    %-14s : %llu\n",
                  std::string(mutation::to_string(verdict)).c_str(),
                  static_cast<unsigned long long>(verdict_counts[i]));
  }
  for (unsigned i = 0; i < 3; ++i) {
    const auto op = static_cast<Operator>(i);
    out += format("  %-15s : %.1f%% killed\n",
                  std::string(mutation::to_string(op)).c_str(),
                  100.0 * score(op));
  }
  return out;
}

std::vector<Mutant> enumerate_mutants(const assembler::Program& program,
                                      const std::vector<u32>& executed) {
  std::set<u32> filter(executed.begin(), executed.end());
  std::vector<Mutant> mutants;
  const assembler::Section* text = program.find_section(".text");
  if (text == nullptr) return mutants;

  u32 address = text->base;
  while (address + 2 <= text->end()) {
    auto half = program.read_half(address);
    if (!half.ok()) break;
    const bool compressed = isa::is_compressed(static_cast<u16>(*half));
    u32 bits = *half;
    if (!compressed) {
      auto word = program.read_word(address);
      if (!word.ok()) break;
      bits = *word;
    }
    auto instr = isa::decode_parcel(bits);
    if (!instr.ok()) {
      address += compressed ? 2 : 4;
      continue;
    }
    if (filter.empty() || filter.count(address) != 0) {
      mutants_for(mutants, address, *instr);
    }
    address += instr->length;
  }
  return mutants;
}

Result<std::vector<Mutant>> MutationModel::enumerate(
    vp::GoldenRun& golden, vp::GoldenRecording*) const {
  vp::Machine machine(config_.machine);
  S4E_TRY(run, vp::run_golden(machine, program_));
  golden = std::move(run);

  std::vector<u32> executed_list;
  if (config_.executed_only) executed_list = std::move(golden.executed_code);
  std::vector<Mutant> mutants = enumerate_mutants(program_, executed_list);
  if (config_.max_mutants != 0 && mutants.size() > config_.max_mutants) {
    mutants.resize(config_.max_mutants);
  }
  return mutants;
}

std::vector<dataflow::TriageDecision> MutationModel::decide(
    const dataflow::StaticTriage& triage,
    std::span<const Mutant> mutants) const {
  std::vector<dataflow::TriageDecision> decisions;
  decisions.reserve(mutants.size());
  std::optional<dataflow::StaticTriage::Site> site;
  for (const Mutant& mutant : mutants) {
    if (!site || site->address() != mutant.address ||
        site->length() != mutant.length) {
      site = triage.site(mutant.address, mutant.length);
    }
    decisions.push_back(triage.mutant(*site, mutant.original, mutant.mutated));
  }
  return decisions;
}

Result<MutantResult> MutationModel::run_one(
    vp::Machine& vm, const Mutant& mutant,
    const vp::GoldenRun& golden) const {
  // Patch the mutated encoding over the original bytes. On a reused
  // machine warm translation blocks cover the patched address, so the
  // change must be reported explicitly (ram_write bypasses the engine's
  // self-modification detection): the blocks over it are re-lowered in
  // place, or dropped when the mutant changes their shape.
  u8 bytes[4];
  for (unsigned i = 0; i < mutant.length; ++i) {
    bytes[i] = static_cast<u8>(mutant.mutated >> (8 * i));
  }
  S4E_TRY_STATUS(vm.bus().ram_write(mutant.address, bytes, mutant.length));
  vm.code_changed(mutant.address, mutant.length);

  // The recorder is passive (it only reads the event structs), so verdicts
  // are bit-identical with and without it.
  std::unique_ptr<obs::FlightRecorderPlugin> recorder;
  if (config_.post_mortem) {
    recorder = std::make_unique<obs::FlightRecorderPlugin>(
        config_.post_mortem_events);
    recorder->attach(vm.vm_handle());
  }
  const vp::RunResult run = vm.run();
  MutantResult result;
  result.mutant = mutant;
  result.exit_code = run.exit_code;
  result.instructions = run.instructions;
  if (run.reason == vp::StopReason::kMaxInstructions) {
    result.verdict = Verdict::kKilledHang;
  } else if (!run.normal_exit()) {
    result.verdict = Verdict::kKilledCrash;
  } else if (run.exit_code != golden.result.exit_code ||
             vm.uart()->tx_log() != golden.uart) {
    result.verdict = Verdict::kKilledResult;
  } else {
    result.verdict = Verdict::kSurvived;
  }
  if (recorder != nullptr && (result.verdict == Verdict::kKilledHang ||
                              result.verdict == Verdict::kKilledCrash)) {
    result.post_mortem = recorder->post_mortem(config_.post_mortem_events);
  }
  return result;
}

MutantResult MutationModel::pruned(const Mutant& mutant) {
  MutantResult result;
  result.mutant = mutant;
  result.verdict = Verdict::kSurvived;
  return result;
}

std::string MutationModel::describe(const Mutant& mutant) {
  return format("mutant 0x%08x (%s)", mutant.address,
                mutant.description.c_str());
}

MutantResult MutationModel::from_class(unsigned klass, unsigned bucket) {
  MutantResult result;
  result.mutant.op = static_cast<Operator>(klass);
  result.verdict = static_cast<Verdict>(bucket);
  return result;
}

// The score reports no golden figures.
MutationScore MutationModel::open(const vp::GoldenRun&, u64 total) {
  MutationScore report;
  report.total_mutants = total;
  return report;
}

void MutationModel::fold(MutationScore& report, MutantResult result) {
  ++report.verdict_counts[static_cast<unsigned>(result.verdict)];
  report.pruned_count += result.pruned ? 1 : 0;
  report.results.push_back(std::move(result));
}

}  // namespace s4e::mutation

// The generic driver (campaign/driver.hpp), instantiated for this model.
template class s4e::campaign::Campaign<s4e::mutation::MutationModel>;
