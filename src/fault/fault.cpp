#include "fault/fault.hpp"

#include <algorithm>
#include <memory>

#include "campaign/driver.hpp"
#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"
#include "vp/runner.hpp"

namespace s4e::fault {

std::string FaultSpec::to_string() const {
  const char* kind_name =
      kind == FaultKind::kTransient ? "transient" : "stuck-at";
  const char* target_name =
      FaultModel::kClassNames[static_cast<unsigned>(target)];
  const char* stuck = kind == FaultKind::kStuckAt
                          ? (stuck_value ? "=1" : "=0")
                          : "";
  switch (target) {
    case FaultTarget::kGpr:
      // hart is printed only when non-zero so single-hart fault lists stay
      // byte-identical to pre-SMP output.
      return format("%s %s%s x%u bit %u%s trigger=%llu", kind_name,
                    target_name,
                    hart != 0 ? format("@hart%u", hart).c_str() : "", reg, bit,
                    stuck, static_cast<unsigned long long>(trigger));
    case FaultTarget::kMemory:
      return format("%s %s 0x%08x bit %u%s trigger=%llu", kind_name,
                    target_name, address, bit, stuck,
                    static_cast<unsigned long long>(trigger));
    case FaultTarget::kCode:
      return format("%s %s 0x%08x bit %u trigger=%llu", kind_name,
                    target_name, address, bit,
                    static_cast<unsigned long long>(trigger));
  }
  return "?";
}

std::string_view to_string(Outcome outcome) noexcept {
  return FaultModel::kBucketNames[static_cast<unsigned>(outcome)];
}

// ---------------------------------------------------------------------------
// Injector plugin.

void FaultInjectorPlugin::apply_flip() {
  switch (spec_.target) {
    case FaultTarget::kGpr: {
      const u32 value = s4e_read_gpr_hart(vm(), spec_.hart, spec_.reg);
      s4e_write_gpr_hart(vm(), spec_.hart, spec_.reg,
                         flip_bit(value, spec_.bit));
      ++applications_;
      break;
    }
    case FaultTarget::kMemory: {
      u8 byte = 0;
      if (s4e_read_mem(vm(), spec_.address, &byte, 1) == 0) {
        byte = static_cast<u8>(byte ^ (1u << (spec_.bit & 7)));
        if (s4e_write_mem(vm(), spec_.address, &byte, 1) == 0) {
          ++applications_;
        }
      }
      break;
    }
    case FaultTarget::kCode: {
      u32 word = 0;
      if (s4e_read_mem(vm(), spec_.address, &word, 4) == 0) {
        word = flip_bit(word, spec_.bit);
        if (s4e_write_mem(vm(), spec_.address, &word, 4) == 0) {
          s4e_invalidate_tb_range(vm(), spec_.address, 4);
          ++applications_;
        }
      }
      break;
    }
  }
}

void FaultInjectorPlugin::apply_stuck() {
  switch (spec_.target) {
    case FaultTarget::kGpr:
      if (s4e_force_gpr_bit(vm(), spec_.hart, spec_.reg, spec_.bit,
                            spec_.stuck_value) == 0) {
        ++applications_;
      }
      break;
    case FaultTarget::kMemory:
      if (s4e_force_mem_bit(vm(), spec_.address, spec_.bit & 7u,
                            spec_.stuck_value) == 0) {
        ++applications_;
      }
      break;
    case FaultTarget::kCode: {
      u32 word = 0;
      if (s4e_read_mem(vm(), spec_.address, &word, 4) == 0) {
        const u32 forced = spec_.stuck_value ? (word | (u32{1} << spec_.bit))
                                             : (word & ~(u32{1} << spec_.bit));
        if (forced != word) {
          s4e_write_mem(vm(), spec_.address, &forced, 4);
          s4e_invalidate_tb_range(vm(), spec_.address, 4);
          ++applications_;
        }
      }
      break;
    }
  }
}

void FaultInjectorPlugin::on_icount(u64 icount) {
  (void)icount;
  if (spec_.kind == FaultKind::kTransient) {
    apply_flip();
  } else {
    apply_stuck();
  }
}

// ---------------------------------------------------------------------------
// Fault model.

namespace {

// The fault list, drawn from what the golden (profiling) run exercised.
std::vector<FaultSpec> generate_faults(const assembler::Program& program,
                                       const CampaignConfig& config,
                                       const vp::GoldenRecording& recording,
                                       const vp::GoldenRun& golden) {
  Rng rng(config.seed);
  std::vector<FaultSpec> faults;

  // Candidate registers: coverage-directed -> registers the binary reads
  // (a fault in a never-read register cannot propagate); blind -> x1..x31.
  std::vector<unsigned> registers;
  for (unsigned reg = 1; reg < isa::kGprCount; ++reg) {
    if (!config.coverage_directed ||
        (recording.gprs_read() & (u32{1} << reg)) != 0) {
      registers.push_back(reg);
    }
  }

  // Candidate memory: touched addresses, or the whole data section.
  std::vector<u32> memory = golden.touched_memory;
  if (!config.coverage_directed || memory.empty()) {
    memory.clear();
    if (const assembler::Section* data = program.find_section(".data")) {
      for (u32 offset = 0; offset < data->bytes.size(); ++offset) {
        memory.push_back(data->base + offset);
      }
    }
  }

  // Candidate code: executed addresses, or the whole text section.
  std::vector<u32> code = golden.executed_code;
  if (!config.coverage_directed || code.empty()) {
    code.clear();
    if (const assembler::Section* text = program.find_section(".text")) {
      for (u32 offset = 0; offset + 4 <= text->bytes.size(); offset += 4) {
        code.push_back(text->base + offset);
      }
    }
  }

  std::vector<FaultTarget> targets;
  if (config.gpr_faults && !registers.empty()) {
    targets.push_back(FaultTarget::kGpr);
  }
  if (config.memory_faults && !memory.empty()) {
    targets.push_back(FaultTarget::kMemory);
  }
  if (config.code_faults && !code.empty()) {
    targets.push_back(FaultTarget::kCode);
  }
  if (targets.empty()) return faults;

  const u64 golden_icount = std::max<u64>(recording.instructions(), 1);
  for (unsigned i = 0; i < config.mutant_count; ++i) {
    FaultSpec spec;
    spec.target = targets[rng.next_below(static_cast<u32>(targets.size()))];
    spec.kind = rng.chance(1, 4) ? FaultKind::kStuckAt : FaultKind::kTransient;
    spec.trigger = rng.next_u64() % golden_icount;
    spec.stuck_value = rng.chance(1, 2);
    switch (spec.target) {
      case FaultTarget::kGpr:
        spec.reg = registers[rng.next_below(static_cast<u32>(registers.size()))];
        spec.bit = static_cast<u8>(rng.next_below(32));
        // The hart draw happens only on SMP machines so single-hart fault
        // lists consume the exact RNG sequence of pre-SMP builds.
        if (config.machine.num_harts > 1) {
          spec.hart = rng.next_below(config.machine.num_harts);
        }
        break;
      case FaultTarget::kMemory:
        spec.address = memory[rng.next_below(static_cast<u32>(memory.size()))];
        spec.bit = static_cast<u8>(rng.next_below(8));
        break;
      case FaultTarget::kCode:
        spec.address = code[rng.next_below(static_cast<u32>(code.size()))];
        spec.bit = static_cast<u8>(rng.next_below(32));
        // Stuck-at code faults behave like load-time mutations.
        break;
    }
    faults.push_back(spec);
  }
  return faults;
}

Outcome classify(const vp::RunResult& run, const std::string& uart,
                 u64 memory_hash, const vp::GoldenRun& golden,
                 bool compare_memory) {
  if (run.reason == vp::StopReason::kMaxInstructions) return Outcome::kHang;
  if (!run.normal_exit()) return Outcome::kCrash;
  if (run.exit_code != golden.result.exit_code || uart != golden.uart) {
    return Outcome::kSdc;
  }
  if (compare_memory && memory_hash != golden.memory_hash) {
    return Outcome::kSdc;  // silent corruption below the output surface
  }
  return Outcome::kMasked;
}

}  // namespace

Result<std::vector<FaultSpec>> FaultModel::enumerate(
    vp::GoldenRun& golden, vp::GoldenRecording* recording) const {
  vp::GoldenRecording local;
  if (recording == nullptr) recording = &local;
  vp::Machine machine(config_.machine);
  S4E_TRY(run, vp::run_golden(machine, program_, recording));
  golden = std::move(run);
  return generate_faults(program_, config_, *recording, golden);
}

std::optional<MutantResult> FaultModel::known(
    const vp::GoldenRecording& recording, const FaultSpec& spec,
    const vp::GoldenRun& golden) const {
  // The flip itself is not quite invisible: its icount event ends a chain
  // run, and a code flip drops the translations over its word and so ends
  // the running block; the extra dispatch refreshes mip. Only
  // time-dependent input can see either.
  if (spec.kind != FaultKind::kTransient || spec.hart != 0 ||
      recording.reads_time_from(spec.trigger)) {
    return std::nullopt;
  }
  using Access = vp::GoldenRecording::Access;
  Access next = Access::kNone;
  u32 byte = 0;
  switch (spec.target) {
    case FaultTarget::kGpr:
      next = recording.next_gpr_access(spec.reg, spec.trigger);
      break;
    case FaultTarget::kMemory:
      byte = spec.address;
      next = recording.next_byte_access(byte, spec.trigger);
      break;
    case FaultTarget::kCode:
      byte = spec.address + spec.bit / 8u;
      next = recording.next_byte_access(byte, spec.trigger);
      break;
  }
  if (next == Access::kRead) return std::nullopt;
  if (next == Access::kNone && spec.target != FaultTarget::kGpr &&
      config_.compare_memory) {
    const assembler::Section* data = program_.find_section(".data");
    if (data != nullptr && byte - data->base < data->bytes.size()) {
      return std::nullopt;  // the flipped byte reaches the memory hash
    }
  }
  MutantResult mutant;
  mutant.spec = spec;
  mutant.exit_code = golden.result.exit_code;
  mutant.instructions = golden.result.instructions;
  return mutant;
}

std::vector<dataflow::TriageDecision> FaultModel::decide(
    const dataflow::StaticTriage& triage,
    std::span<const FaultSpec> specs) const {
  std::vector<dataflow::TriageDecision> decisions(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const FaultSpec& spec = specs[i];
    switch (spec.target) {
      case FaultTarget::kGpr:
        decisions[i] = triage.gpr_fault(spec.reg);
        break;
      case FaultTarget::kMemory:
        break;  // the flipped byte lands in the hashed .data image
      case FaultTarget::kCode:
        decisions[i] = triage.code_fault(
            spec.address, spec.kind == FaultKind::kStuckAt, spec.bit,
            spec.stuck_value);
        break;
    }
  }
  return decisions;
}

Result<MutantResult> FaultModel::run_one(vp::Machine& machine,
                                         const FaultSpec& spec,
                                         const vp::GoldenRun& golden) const {
  FaultInjectorPlugin injector(spec);
  injector.attach(machine.vm_handle());
  // The recorder is passive (it only reads the event structs), so outcomes
  // are bit-identical with and without it.
  std::unique_ptr<obs::FlightRecorderPlugin> recorder;
  if (config_.post_mortem) {
    recorder = std::make_unique<obs::FlightRecorderPlugin>(
        config_.post_mortem_events);
    recorder->attach(machine.vm_handle());
  }
  const vp::RunResult run = machine.run();

  MutantResult mutant;
  mutant.spec = spec;
  mutant.exit_code = run.exit_code;
  mutant.instructions = run.instructions;
  mutant.outcome = classify(
      run, machine.uart()->tx_log(), vp::data_memory_hash(machine, program_),
      golden, config_.compare_memory);
  if (recorder != nullptr && (mutant.outcome == Outcome::kHang ||
                              mutant.outcome == Outcome::kCrash)) {
    mutant.post_mortem = recorder->post_mortem(config_.post_mortem_events);
  }
  return mutant;
}

MutantResult FaultModel::pruned(const FaultSpec& spec) {
  MutantResult mutant;
  mutant.spec = spec;
  mutant.outcome = Outcome::kMasked;
  return mutant;
}

MutantResult FaultModel::from_class(unsigned klass, unsigned bucket) {
  MutantResult mutant;
  mutant.spec.target = static_cast<FaultTarget>(klass);
  mutant.outcome = static_cast<Outcome>(bucket);
  return mutant;
}

CampaignResult FaultModel::open(const vp::GoldenRun& golden, u64 total) {
  CampaignResult report;
  report.golden_exit_code = golden.result.exit_code;
  report.golden_instructions = golden.result.instructions;
  report.golden_uart = golden.uart;
  report.golden_memory_hash = golden.memory_hash;
  report.total_faults = total;
  return report;
}

void FaultModel::fold(CampaignResult& report, MutantResult mutant) {
  ++report.outcome_counts[static_cast<unsigned>(mutant.outcome)];
  report.pruned_count += mutant.pruned ? 1 : 0;
  report.simulated_instructions += static_cast<double>(mutant.instructions);
  report.mutants.push_back(std::move(mutant));
}

double CampaignResult::informative_fraction(FaultTarget target) const {
  u64 total = 0;
  u64 informative = 0;
  for (const MutantResult& mutant : mutants) {
    if (mutant.spec.target != target) continue;
    ++total;
    informative += mutant.outcome != Outcome::kMasked;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(informative) /
                          static_cast<double>(total);
}

std::string CampaignResult::to_string() const {
  std::string out = "fault campaign\n";
  out += format("  golden: exit=%d, %llu instructions\n", golden_exit_code,
                static_cast<unsigned long long>(golden_instructions));
  out += format("  mutants simulated : %zu (%.0f instructions total)\n",
                mutants.size(), simulated_instructions);
  if (pruned_count > 0) {
    out += format("  statically pruned : %llu (%.1f%%)\n",
                  static_cast<unsigned long long>(pruned_count),
                  100.0 * static_cast<double>(pruned_count) /
                      static_cast<double>(std::max<u64>(mutants.size(), 1)));
  }
  const u64 total = std::max<u64>(mutants.size(), 1);
  for (unsigned i = 0; i < 4; ++i) {
    const auto outcome = static_cast<Outcome>(i);
    out += format("  %-7s : %llu  (%.1f%%)\n",
                  std::string(fault::to_string(outcome)).c_str(),
                  static_cast<unsigned long long>(outcome_counts[i]),
                  100.0 * static_cast<double>(outcome_counts[i]) /
                      static_cast<double>(total));
  }
  out += format("  informative by target: gpr %.1f%%, mem %.1f%%, code "
                "%.1f%%\n",
                100.0 * informative_fraction(FaultTarget::kGpr),
                100.0 * informative_fraction(FaultTarget::kMemory),
                100.0 * informative_fraction(FaultTarget::kCode));
  return out;
}

}  // namespace s4e::fault

// The generic driver (campaign/driver.hpp), instantiated for this model.
template class s4e::campaign::Campaign<s4e::fault::FaultModel>;
