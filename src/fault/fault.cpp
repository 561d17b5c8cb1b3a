#include "fault/fault.hpp"

#include <algorithm>
#include <memory>

#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "vp/runner.hpp"

namespace s4e::fault {

std::string FaultSpec::to_string() const {
  const char* kind_name =
      kind == FaultKind::kTransient ? "transient" : "stuck-at";
  switch (target) {
    case FaultTarget::kGpr:
      // hart is printed only when non-zero so single-hart fault lists stay
      // byte-identical to pre-SMP output.
      return format("%s gpr%s x%u bit %u%s trigger=%llu", kind_name,
                    hart != 0 ? format("@hart%u", hart).c_str() : "", reg, bit,
                    kind == FaultKind::kStuckAt ? (stuck_value ? "=1" : "=0")
                                                : "",
                    static_cast<unsigned long long>(trigger));
    case FaultTarget::kMemory:
      return format("%s mem 0x%08x bit %u%s trigger=%llu", kind_name, address,
                    bit,
                    kind == FaultKind::kStuckAt ? (stuck_value ? "=1" : "=0")
                                                : "",
                    static_cast<unsigned long long>(trigger));
    case FaultTarget::kCode:
      return format("%s code 0x%08x bit %u trigger=%llu", kind_name, address,
                    bit, static_cast<unsigned long long>(trigger));
  }
  return "?";
}

std::string_view to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kMasked: return "masked";
    case Outcome::kSdc: return "sdc";
    case Outcome::kCrash: return "crash";
    case Outcome::kHang: return "hang";
  }
  return "?";
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
    case FaultTarget::kGpr: {
      const u32 value = s4e_read_gpr_hart(vm(), spec_.hart, spec_.reg);
      const u32 forced = spec_.stuck_value ? (value | (u32{1} << spec_.bit))
                                           : (value & ~(u32{1} << spec_.bit));
      if (forced != value) {
        s4e_write_gpr_hart(vm(), spec_.hart, spec_.reg, forced);
        ++applications_;
      }
      break;
    }
    case FaultTarget::kMemory: {
      u8 byte = 0;
      if (s4e_read_mem(vm(), spec_.address, &byte, 1) == 0) {
        const u8 forced = spec_.stuck_value
                              ? static_cast<u8>(byte | (1u << (spec_.bit & 7)))
                              : static_cast<u8>(byte & ~(1u << (spec_.bit & 7)));
        if (forced != byte) {
          s4e_write_mem(vm(), spec_.address, &forced, 1);
          ++applications_;
        }
      }
      break;
    }
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
    apply_stuck();  // code stuck-at: patched once, before the first insn
  }
}

void FaultInjectorPlugin::on_insn_exec(const s4e_insn_info& insn) {
  (void)insn;
  apply_stuck();  // GPR and memory stuck-at
}

void FaultInjectorPlugin::on_mem(const s4e_mem_event& event) {
  // Stuck-at memory bit: re-force after any store covering the faulty byte.
  if (event.is_store && spec_.target == FaultTarget::kMemory &&
      spec_.kind == FaultKind::kStuckAt &&
      event.vaddr <= spec_.address &&
      spec_.address < event.vaddr + event.size) {
    apply_stuck();
  }
}

// ---------------------------------------------------------------------------
// Campaign.

Result<Campaign::Profile> Campaign::profile_run(CampaignResult& result) {
  vp::Machine machine(config_.machine);
  coverage::CoveragePlugin coverage_plugin;
  coverage_plugin.attach(machine.vm_handle());

  S4E_TRY(golden, vp::run_golden(machine, program_));
  result.golden_exit_code = golden.result.exit_code;
  result.golden_instructions = golden.result.instructions;
  result.golden_uart = golden.uart;
  result.golden_memory_hash = golden.memory_hash;

  Profile profile;
  profile.coverage = coverage_plugin.data();
  profile.touched_memory = std::move(golden.touched_memory);
  profile.executed_code = std::move(golden.executed_code);
  return profile;
}

std::vector<FaultSpec> Campaign::generate_faults(const Profile& profile) {
  Rng rng(config_.seed);
  std::vector<FaultSpec> faults;

  // Candidate registers: coverage-directed -> registers the binary reads
  // (a fault in a never-read register cannot propagate); blind -> x1..x31.
  std::vector<unsigned> registers;
  for (unsigned reg = 1; reg < isa::kGprCount; ++reg) {
    if (!config_.coverage_directed ||
        profile.coverage.gpr_reads[reg] != 0) {
      registers.push_back(reg);
    }
  }

  // Candidate memory: touched addresses, or the whole data section.
  std::vector<u32> memory = profile.touched_memory;
  if (!config_.coverage_directed || memory.empty()) {
    memory.clear();
    if (const assembler::Section* data = program_.find_section(".data")) {
      for (u32 offset = 0; offset < data->bytes.size(); ++offset) {
        memory.push_back(data->base + offset);
      }
    }
  }

  // Candidate code: executed addresses, or the whole text section.
  std::vector<u32> code = profile.executed_code;
  if (!config_.coverage_directed || code.empty()) {
    code.clear();
    if (const assembler::Section* text = program_.find_section(".text")) {
      for (u32 offset = 0; offset + 4 <= text->bytes.size(); offset += 4) {
        code.push_back(text->base + offset);
      }
    }
  }

  std::vector<FaultTarget> targets;
  if (config_.gpr_faults && !registers.empty()) {
    targets.push_back(FaultTarget::kGpr);
  }
  if (config_.memory_faults && !memory.empty()) {
    targets.push_back(FaultTarget::kMemory);
  }
  if (config_.code_faults && !code.empty()) {
    targets.push_back(FaultTarget::kCode);
  }
  if (targets.empty()) return faults;

  const u64 golden_icount = std::max<u64>(profile.coverage.total_instructions, 1);
  for (unsigned i = 0; i < config_.mutant_count; ++i) {
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
        if (config_.machine.num_harts > 1) {
          spec.hart = rng.next_below(config_.machine.num_harts);
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

Outcome Campaign::classify(const vp::RunResult& run, const std::string& uart,
                           u64 memory_hash,
                           const CampaignResult& golden) const {
  if (run.reason == vp::StopReason::kMaxInstructions) return Outcome::kHang;
  if (!run.normal_exit()) return Outcome::kCrash;
  if (run.exit_code != golden.golden_exit_code ||
      uart != golden.golden_uart) {
    return Outcome::kSdc;
  }
  if (config_.compare_memory && memory_hash != golden.golden_memory_hash) {
    return Outcome::kSdc;  // silent corruption below the output surface
  }
  return Outcome::kMasked;
}

Result<MutantResult> Campaign::run_mutant_on(
    vp::Machine& machine, const FaultSpec& spec,
    const CampaignResult& golden) const {
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
      run, machine.uart() != nullptr ? machine.uart()->tx_log() : "",
      vp::data_memory_hash(machine, program_), golden);
  if (recorder != nullptr && (mutant.outcome == Outcome::kHang ||
                              mutant.outcome == Outcome::kCrash)) {
    mutant.post_mortem = recorder->post_mortem(config_.post_mortem_events);
  }
  return mutant;
}

Result<MutantResult> Campaign::run_mutant(
    const FaultSpec& spec, const vp::MachineConfig& machine_config,
    const CampaignResult& golden) const {
  vp::Machine machine(machine_config);
  S4E_TRY_STATUS(machine.load_program(program_));
  return run_mutant_on(machine, spec, golden);
}

Result<CampaignResult> Campaign::run() {
  if (config_.shard_count < 1 || config_.shard_index >= config_.shard_count) {
    return Error(ErrorCode::kInvalidArgument,
                 format("invalid shard %u/%u", config_.shard_index,
                        config_.shard_count));
  }
  CampaignResult result;
  S4E_TRY(profile, profile_run(result));
  faults_ = generate_faults(profile);

  // Static triage: decide every fault site up front. Fault-list generation
  // is unaffected, so the non-pruned subset is identical to a triage-off
  // run over the same seed.
  // Static triage reasons about a single sequential instruction stream; on
  // an SMP machine a register another hart never reads can still change the
  // interleaving-visible state, so triage is conservatively disabled.
  if (config_.machine.num_harts > 1) {
    config_.triage = dataflow::TriageMode::kOff;
  }
  std::vector<dataflow::TriageDecision> decisions(faults_.size());
  if (config_.triage != dataflow::TriageMode::kOff) {
    dataflow::TriageOptions triage_options;
    triage_options.stack_top = config_.machine.ram_base + config_.machine.ram_size;
    S4E_TRY(triage, dataflow::StaticTriage::build(program_, triage_options));
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      const FaultSpec& spec = faults_[i];
      switch (spec.target) {
        case FaultTarget::kGpr:
          decisions[i] = triage.gpr_fault(spec.reg);
          break;
        case FaultTarget::kMemory:
          break;  // the flipped byte lands in the hashed .data image
        case FaultTarget::kCode:
          decisions[i] = triage.code_fault(spec.address,
                                           spec.kind == FaultKind::kStuckAt,
                                           spec.bit, spec.stuck_value);
          break;
      }
    }
  }
  const bool skip_pruned = config_.triage == dataflow::TriageMode::kOn;

  vp::MachineConfig mutant_config = config_.machine;
  mutant_config.max_instructions =
      vp::hang_budget(result.golden_instructions, config_.hang_budget_factor,
                      config_.machine.max_instructions);

  // Shard selection: the fault list and triage decisions above cover the
  // *full* campaign (identical RNG sequence for every shard); only the
  // contiguous global index range [begin, end) is simulated here.
  const u64 total = faults_.size();
  const u64 begin = total * config_.shard_index / config_.shard_count;
  const u64 end = total * (config_.shard_index + 1) / config_.shard_count;
  const std::size_t count = static_cast<std::size_t>(end - begin);
  result.shard_begin = begin;
  result.total_faults = total;

  // Fan the independent mutant simulations out over the executor. Every
  // job writes only its own slot; the per-outcome counters and the
  // floating-point instruction total are aggregated afterwards by walking
  // the slots in submission order, so the CampaignResult is bit-identical
  // to the jobs=1 serial run regardless of scheduling — with or without
  // machine reuse.
  std::vector<MutantResult> slots(count);
  std::vector<std::optional<Error>> errors(count);
  progress_.begin(count);
  exec::CampaignExecutor executor(config_.jobs);
  // Telemetry shards are per worker lane (lock-free: each lane writes only
  // its own shard) and fold deterministically after the barrier.
  std::unique_ptr<obs::CampaignTelemetry> telemetry;
  if (config_.collect_metrics) {
    telemetry = std::make_unique<obs::CampaignTelemetry>(
        std::vector<std::string>{"masked", "sdc", "crash", "hang"},
        executor.jobs());
    telemetry->set_campaign(count, result.golden_instructions,
                            mutant_config.max_instructions);
  }
  const auto record = [&](unsigned worker, std::size_t index,
                          Result<MutantResult> mutant) {
    if (mutant.ok()) {
      const unsigned bucket = static_cast<unsigned>(mutant->outcome);
      // Statically decided mutants were never simulated; they count toward
      // the outcome histogram but not the run telemetry.
      if (telemetry != nullptr && !(skip_pruned && mutant->pruned)) {
        telemetry->record_run(worker, bucket, mutant->instructions,
                              !mutant->post_mortem.empty());
      }
      slots[index] = std::move(*mutant);
      progress_.record(bucket);
    } else {
      errors[index] = mutant.error();
      progress_.record(exec::CampaignProgress::kBuckets);  // count done only
    }
  };
  // Short-circuit for statically decided faults (triage on), and the
  // verify-mode cross-check for faults that *would* have been pruned.
  // These index the *global* fault list; `record` above takes the local
  // slot index within the shard.
  const auto synthesize = [&](std::size_t global) -> MutantResult {
    MutantResult mutant;
    mutant.spec = faults_[global];
    mutant.outcome = Outcome::kMasked;
    mutant.exit_code = result.golden_exit_code;
    mutant.pruned = true;
    mutant.prune_reason = decisions[global].reason;
    return mutant;
  };
  const auto finish = [&](std::size_t global,
                          Result<MutantResult> mutant) -> Result<MutantResult> {
    if (!mutant.ok() || !decisions[global].pruned) return mutant;
    mutant->pruned = true;
    mutant->prune_reason = decisions[global].reason;
    if (config_.triage == dataflow::TriageMode::kVerify &&
        mutant->outcome != Outcome::kMasked) {
      return Error(
          ErrorCode::kAnalysisError,
          format("triage verify mismatch: %s statically pruned as '%s' but "
                 "dynamically %s",
                 mutant->spec.to_string().c_str(),
                 mutant->prune_reason.c_str(),
                 std::string(fault::to_string(mutant->outcome)).c_str()));
    }
    return mutant;
  };
  if (config_.reuse_machines) {
    // One long-lived machine per worker lane, loaded and snapshotted on the
    // lane's first mutant; every run starts from a dirty-page restore with
    // a warm TB cache instead of a fresh build + full program load.
    std::vector<std::unique_ptr<vp::WorkerVm>> vms(executor.jobs());
    executor.run_affine(count, [&](unsigned worker, std::size_t index) {
      const std::size_t global = static_cast<std::size_t>(begin) + index;
      if (skip_pruned && decisions[global].pruned) {
        record(worker, index, synthesize(global));  // no VM needed
        return;
      }
      if (vms[worker] == nullptr) {
        auto vm = vp::WorkerVm::create(mutant_config, program_);
        if (!vm.ok()) {
          record(worker, index, vm.error());
          return;
        }
        vms[worker] = std::move(*vm);
      }
      record(worker, index,
             finish(global, run_mutant_on(vms[worker]->prepare(),
                                          faults_[global], result)));
    });
    for (const auto& vm : vms) {
      if (vm != nullptr) result.snapshot_stats += vm->stats();
    }
  } else {
    // Fresh machine per mutant, still lane-affine so the metric shards have
    // a stable worker index (slot determinism is unchanged).
    executor.run_affine(count, [&](unsigned worker, std::size_t index) {
      const std::size_t global = static_cast<std::size_t>(begin) + index;
      if (skip_pruned && decisions[global].pruned) {
        record(worker, index, synthesize(global));
        return;
      }
      record(worker, index,
             finish(global,
                    run_mutant(faults_[global], mutant_config, result)));
    });
  }

  result.mutants.reserve(slots.size());
  for (std::size_t index = 0; index < slots.size(); ++index) {
    if (errors[index].has_value()) return *errors[index];
    MutantResult& mutant = slots[index];
    ++result.outcome_counts[static_cast<unsigned>(mutant.outcome)];
    result.pruned_count += mutant.pruned ? 1 : 0;
    result.simulated_instructions +=
        static_cast<double>(mutant.instructions);
    result.mutants.push_back(std::move(mutant));
  }
  if (telemetry != nullptr) {
    if (config_.triage != dataflow::TriageMode::kOff) {
      telemetry->set_pruned(result.pruned_count);
    }
    result.metrics_json = telemetry->to_json();
  }
  return result;
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
