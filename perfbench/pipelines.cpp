#include "pipelines.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/strings.hpp"
#include "dataflow/triage.hpp"
#include "exec/campaign_executor.hpp"
#include "qta/qta.hpp"
#include "trace/recorder.hpp"
#include "vp/runner.hpp"
#include "wcet/analyzer.hpp"

namespace perfbench {

using namespace s4e;

namespace {

u64 fnv_mix(u64 hash, u64 value) {
  for (unsigned i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Engine and TB-cache counters before a run; add_to() accumulates the
// run's deltas.
class EngineProbe {
 public:
  explicit EngineProbe(const vp::Machine& machine)
      : stats_(machine.engine_stats()),
        lookups_(lookups(machine)),
        misses_(machine.tb_cache().lookup_misses()),
        flushes_(machine.tb_cache().flush_count()) {}

  void add_to(Counts& counts, const vp::Machine& machine,
              const vp::RunResult& run) const {
    const vp::EngineStats& now = machine.engine_stats();
    ++counts.runs;
    counts.guest_insns += run.instructions;
    counts.blocks_fast += now.blocks_fast - stats_.blocks_fast;
    counts.blocks_careful += now.blocks_careful - stats_.blocks_careful;
    counts.chain_follows += now.chain_follows - stats_.chain_follows;
    counts.tb_lookups += lookups(machine) - lookups_;
    counts.tb_misses += machine.tb_cache().lookup_misses() - misses_;
    counts.tb_flushes += machine.tb_cache().flush_count() - flushes_;
  }

 private:
  static u64 lookups(const vp::Machine& machine) {
    const vp::TbCache& cache = machine.tb_cache();
    return cache.front_hits() + cache.deep_hits() + cache.lookup_misses();
  }

  vp::EngineStats stats_;
  u64 lookups_;
  u64 misses_;
  u64 flushes_;
};

// A span that also adds its duration to a stage total the end-to-end
// metrics read, so untraced runs time the same stages.
class Stage {
 public:
  Stage(Tracer& tracer, const char* name, u32 job, u64& total)
      : span_(tracer, 0, name, job), total_(total), start_(now_ns()) {}
  ~Stage() { total_ += now_ns() - start_; }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  Tracer::Scope span_;
  u64& total_;
  u64 start_;
};

const std::string& uart_log(vp::Machine& machine) {
  static const std::string kEmpty;
  return machine.uart() != nullptr ? machine.uart()->tx_log() : kEmpty;
}

// fault::Campaign's outcome rule (exit code, UART and .data hash against
// the golden run).
fault::Outcome classify_fault(const vp::RunResult& run, vp::Machine& machine,
                              const assembler::Program& program,
                              const vp::GoldenRun& golden,
                              bool compare_memory) {
  if (run.reason == vp::StopReason::kMaxInstructions) {
    return fault::Outcome::kHang;
  }
  if (!run.normal_exit()) return fault::Outcome::kCrash;
  if (run.exit_code != golden.result.exit_code ||
      uart_log(machine) != golden.uart) {
    return fault::Outcome::kSdc;
  }
  if (compare_memory &&
      vp::data_memory_hash(machine, program) != golden.memory_hash) {
    return fault::Outcome::kSdc;
  }
  return fault::Outcome::kMasked;
}

// mutation::MutationCampaign's verdict rule.
mutation::Verdict classify_mutant(const vp::RunResult& run,
                                  vp::Machine& machine,
                                  const vp::GoldenRun& golden) {
  if (run.reason == vp::StopReason::kMaxInstructions) {
    return mutation::Verdict::kKilledHang;
  }
  if (!run.normal_exit()) return mutation::Verdict::kKilledCrash;
  if (run.exit_code != golden.result.exit_code ||
      (machine.uart() != nullptr && uart_log(machine) != golden.uart)) {
    return mutation::Verdict::kKilledResult;
  }
  return mutation::Verdict::kSurvived;
}

// Per-lane bookkeeping of one run_affine call: each lane's machine, counts
// and busy time. Lane `worker` maps to tracer lane 1 + worker when the
// executor runs a pool, and to lane 0 when it runs inline.
struct Lanes {
  explicit Lanes(unsigned lanes)
      : vms(lanes), counts(lanes), busy_ns(lanes, 0), last_end_ns(lanes, 0) {}

  unsigned tracer_lane(unsigned worker) const {
    return vms.size() > 1 ? 1 + worker : 0;
  }

  void finish(Counts& total, ExecStats& exec, u64 wall_ns) const {
    for (const Counts& lane : counts) total += lane;
    if (vms.size() < 2) return;
    u64 first_idle = ~u64{0};
    u64 last_done = 0;
    for (std::size_t lane = 0; lane < vms.size(); ++lane) {
      exec.busy_ns += busy_ns[lane];
      if (last_end_ns[lane] == 0) continue;  // lane never ran a job
      first_idle = std::min(first_idle, last_end_ns[lane]);
      last_done = std::max(last_done, last_end_ns[lane]);
    }
    ++exec.calls;
    exec.capacity_ns += vms.size() * wall_ns;
    if (last_done != 0) exec.tail_ns += last_done - first_idle;
  }

  std::vector<std::unique_ptr<vp::WorkerVm>> vms;
  std::vector<Counts> counts;
  std::vector<u64> busy_ns;
  std::vector<u64> last_end_ns;
};

// Runs `job(lanes, worker, lane, index)` for every index on `executor`
// inside an "exec.run_affine" span, timing each job for the lane
// statistics. The lanes' machines are released inside the span.
template <typename Job>
void run_lanes(exec::CampaignExecutor& executor, std::size_t count,
               Tracer& tracer, u32 id, Counts& counts, ExecStats& exec,
               const Job& job) {
  Tracer::Scope span(tracer, 0, "exec.run_affine", id);
  Lanes lanes(executor.jobs());
  tracer.fork();
  const u64 start = now_ns();
  executor.run_affine(count, [&](unsigned worker, std::size_t index) {
    const u64 begin = now_ns();
    job(lanes, worker, lanes.tracer_lane(worker), index);
    const u64 end = now_ns();
    lanes.busy_ns[worker] += end - begin;
    lanes.last_end_ns[worker] = end;
  });
  lanes.finish(counts, exec, now_ns() - start);
}

// A lane's machine restored for the next mutant, and the TB-cache
// invalidation count before the restore: a mutant's invalidations run from
// its restore to the end of its run.
struct Prepared {
  vp::Machine* machine = nullptr;
  u64 invalidated_before = 0;
};

// Restores lane `worker`'s machine, creating it on the lane's first mutant,
// and counts the restore. `machine` is null when creation failed.
Prepared prepare_mutant(Lanes& lanes, unsigned worker, unsigned lane,
                        const vp::MachineConfig& config,
                        const BenchProgram& bench, u32 id, Tracer& tracer,
                        Checks& checks) {
  std::unique_ptr<vp::WorkerVm>& vm = lanes.vms[worker];
  if (vm == nullptr) {
    Tracer::Scope span(tracer, lane, "vp.workervm_create", id);
    auto created = vp::WorkerVm::create(config, bench.program);
    if (!checks.expect(created.ok(), "WorkerVm::create", bench.name)) {
      return {};
    }
    vm = std::move(*created);
  }
  const Prepared prepared{&vm->machine(),
                          vm->machine().tb_cache().invalidated_blocks()};
  const u64 pages_before = vm->stats().pages_copied;
  {
    Tracer::Scope span(tracer, lane, "vp.restore", id);
    vm->prepare();
  }
  Counts& counts = lanes.counts[worker];
  ++counts.restores;
  counts.pages_copied += vm->stats().pages_copied - pages_before;
  return prepared;
}

// Runs a prepared mutant and counts its engine statistics.
vp::RunResult run_mutant(const Prepared& prepared, Counts& counts,
                         Tracer& tracer, unsigned lane, u32 id) {
  vp::Machine& machine = *prepared.machine;
  const EngineProbe probe(machine);
  vp::RunResult run;
  {
    Tracer::Scope span(tracer, lane, "vp.mutant_run", id);
    run = machine.run();
  }
  probe.add_to(counts, machine, run);
  counts.tb_invalidated +=
      machine.tb_cache().invalidated_blocks() - prepared.invalidated_before;
  counts.mutant_insns += run.instructions;
  return run;
}

}  // namespace

Counts& Counts::operator+=(const Counts& other) {
  runs += other.runs;
  guest_insns += other.guest_insns;
  mutants += other.mutants;
  mutant_insns += other.mutant_insns;
  for (unsigned i = 0; i < 4; ++i) histogram[i] += other.histogram[i];
  candidates += other.candidates;
  pruned += other.pruned;
  restores += other.restores;
  pages_copied += other.pages_copied;
  tb_invalidated += other.tb_invalidated;
  tb_flushes += other.tb_flushes;
  blocks_fast += other.blocks_fast;
  blocks_careful += other.blocks_careful;
  chain_follows += other.chain_follows;
  tb_lookups += other.tb_lookups;
  tb_misses += other.tb_misses;
  trace_bytes += other.trace_bytes;
  trace_insns += other.trace_insns;
  replays += other.replays;
  replay_cycles += other.replay_cycles;
  if (other.replays != 0) {
    replay_digest = fnv_mix(replay_digest, other.replay_digest);
  }
  return *this;
}

u64 Counts::digest() const {
  u64 hash = 0xcbf29ce484222325ULL;
  for (u64 value :
       {runs, guest_insns, mutants, mutant_insns, histogram[0], histogram[1],
        histogram[2], histogram[3], candidates, pruned, restores, pages_copied,
        tb_invalidated, tb_flushes, blocks_fast, blocks_careful, chain_follows,
        tb_lookups, tb_misses, trace_bytes, trace_insns, replays,
        replay_cycles, replay_digest}) {
    hash = fnv_mix(hash, value);
  }
  return hash;
}

std::string Counts::to_string() const {
  const auto u = [](u64 value) { return static_cast<unsigned long long>(value); };
  return format(
      "runs=%llu guest_insns=%llu mutants=%llu mutant_insns=%llu "
      "histogram=%llu/%llu/%llu/%llu candidates=%llu pruned=%llu "
      "restores=%llu pages_copied=%llu tb_invalidated=%llu tb_flushes=%llu "
      "blocks_fast=%llu blocks_careful=%llu chain_follows=%llu "
      "tb_lookups=%llu tb_misses=%llu trace_bytes=%llu trace_insns=%llu "
      "replays=%llu replay_cycles=%llu replay_digest=%016llx digest=%016llx",
      u(runs), u(guest_insns), u(mutants), u(mutant_insns), u(histogram[0]),
      u(histogram[1]), u(histogram[2]), u(histogram[3]), u(candidates),
      u(pruned), u(restores), u(pages_copied), u(tb_invalidated),
      u(tb_flushes), u(blocks_fast), u(blocks_careful), u(chain_follows),
      u(tb_lookups), u(tb_misses), u(trace_bytes), u(trace_insns), u(replays),
      u(replay_cycles), u(replay_digest), u(digest()));
}

bool Checks::expect(bool ok, const char* what, const std::string& subject) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return true;
  failed_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (messages_.size() < 20) messages_.push_back(subject + ": " + what);
  return false;
}

std::vector<std::string> Checks::messages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

void fault_pipeline(const FaultJob& job, Tracer& tracer, Counts& counts,
                    ExecStats& exec, Checks& checks) {
  const BenchProgram& bench = *job.program;
  const fault::CampaignResult& reference = *job.reference;
  const std::vector<fault::FaultSpec>& faults = *job.faults;

  // The campaign's golden run is its coverage profile run.
  std::optional<vp::GoldenRun> golden;
  {
    Tracer::Scope span(tracer, 0, "coverage.profile", job.id);
    vp::Machine machine(job.config.machine);
    coverage::CoveragePlugin coverage_plugin;
    coverage_plugin.attach(machine.vm_handle());
    auto run = vp::run_golden(machine, bench.program);
    if (run.ok()) golden = std::move(*run);
  }
  if (!checks.expect(golden.has_value() &&
                         golden->result.exit_code ==
                             reference.golden_exit_code &&
                         golden->result.instructions ==
                             reference.golden_instructions &&
                         golden->memory_hash == reference.golden_memory_hash,
                     "golden run reproduces the campaign's", bench.name) ||
      !checks.expect(faults.size() == reference.mutants.size(),
                     "fault list matches the campaign's", bench.name)) {
    return;
  }

  vp::MachineConfig mutant_config = job.config.machine;
  mutant_config.max_instructions =
      vp::hang_budget(golden->result.instructions,
                      job.config.hang_budget_factor,
                      job.config.machine.max_instructions);
  exec::CampaignExecutor executor(job.config.jobs);
  run_lanes(executor, faults.size(), tracer, job.id, counts, exec,
            [&](Lanes& lanes, unsigned worker, unsigned lane,
                std::size_t index) {
    const Prepared prepared = prepare_mutant(
        lanes, worker, lane, mutant_config, bench, job.id, tracer, checks);
    if (prepared.machine == nullptr) return;
    vp::Machine& machine = *prepared.machine;
    fault::FaultInjectorPlugin injector(faults[index]);
    {
      Tracer::Scope span(tracer, lane, "fault.attach", job.id);
      injector.attach(machine.vm_handle());
    }
    Counts& lane_counts = lanes.counts[worker];
    const vp::RunResult run =
        run_mutant(prepared, lane_counts, tracer, lane, job.id);
    fault::Outcome outcome;
    {
      Tracer::Scope span(tracer, lane, "fault.classify", job.id);
      outcome = classify_fault(run, machine, bench.program, *golden,
                               job.config.compare_memory);
    }
    ++lane_counts.mutants;
    ++lane_counts.histogram[static_cast<unsigned>(outcome)];
    const fault::MutantResult& expected = reference.mutants[index];
    checks.expect(outcome == expected.outcome &&
                      run.instructions == expected.instructions,
                  "traced mutant reproduces the campaign's outcome",
                  bench.name);
  });
}

void mutation_pipeline(const MutationJob& job, Tracer& tracer, Counts& counts,
                       ExecStats& exec, Checks& checks) {
  const BenchProgram& bench = *job.program;
  const mutation::MutationScore& reference = *job.reference;
  const mutation::MutationConfig& config = job.config;

  std::optional<vp::GoldenRun> golden;
  {
    Tracer::Scope span(tracer, 0, "vp.golden", job.id);
    vp::Machine machine(config.machine);
    auto run = vp::run_golden(machine, bench.program);
    if (run.ok()) golden = std::move(*run);
  }
  if (!checks.expect(golden.has_value(), "golden run", bench.name)) return;

  std::vector<mutation::Mutant> mutants;
  {
    Tracer::Scope span(tracer, 0, "mutation.enumerate", job.id);
    mutants = mutation::enumerate_mutants(
        bench.program, config.executed_only ? golden->executed_code
                                            : std::vector<u32>{});
    if (config.max_mutants != 0 && mutants.size() > config.max_mutants) {
      mutants.resize(config.max_mutants);
    }
  }
  if (!checks.expect(mutants.size() == reference.results.size(),
                     "mutant list matches the campaign's", bench.name)) {
    return;
  }

  std::vector<dataflow::TriageDecision> decisions(mutants.size());
  if (config.triage != dataflow::TriageMode::kOff) {
    std::optional<dataflow::StaticTriage> triage;
    {
      Tracer::Scope span(tracer, 0, "dataflow.triage_build", job.id);
      dataflow::TriageOptions options;
      options.stack_top = config.machine.ram_base + config.machine.ram_size;
      auto built = dataflow::StaticTriage::build(bench.program, options);
      if (built.ok()) triage = std::move(*built);
    }
    if (!checks.expect(triage.has_value(), "StaticTriage::build",
                       bench.name)) {
      return;
    }
    Tracer::Scope span(tracer, 0, "dataflow.triage_decide", job.id);
    for (std::size_t i = 0; i < mutants.size(); ++i) {
      decisions[i] = triage->mutant(mutants[i].address, mutants[i].length,
                                    mutants[i].original, mutants[i].mutated);
    }
    counts.candidates += mutants.size();
  }
  const bool skip_pruned = config.triage == dataflow::TriageMode::kOn;

  vp::MachineConfig mutant_config = config.machine;
  mutant_config.max_instructions =
      vp::hang_budget(golden->result.instructions, config.hang_budget_factor,
                      config.machine.max_instructions);
  exec::CampaignExecutor executor(config.jobs);
  run_lanes(executor, mutants.size(), tracer, job.id, counts, exec,
            [&](Lanes& lanes, unsigned worker, unsigned lane,
                std::size_t index) {
    const mutation::Mutant& mutant = mutants[index];
    const mutation::MutantResult& expected = reference.results[index];
    Counts& lane_counts = lanes.counts[worker];
    ++lane_counts.mutants;
    if (decisions[index].pruned) ++lane_counts.pruned;
    if (skip_pruned && decisions[index].pruned) {
      ++lane_counts.histogram[static_cast<unsigned>(
          mutation::Verdict::kSurvived)];
      checks.expect(expected.pruned &&
                        expected.verdict == mutation::Verdict::kSurvived,
                    "pruned mutant matches the campaign's", bench.name);
      return;
    }
    const Prepared prepared = prepare_mutant(
        lanes, worker, lane, mutant_config, bench, job.id, tracer, checks);
    if (prepared.machine == nullptr) return;
    vp::Machine& machine = *prepared.machine;
    bool patched = false;
    {
      Tracer::Scope span(tracer, lane, "mutation.patch", job.id);
      u8 bytes[4];
      for (unsigned i = 0; i < mutant.length; ++i) {
        bytes[i] = static_cast<u8>(mutant.mutated >> (8 * i));
      }
      patched = machine.bus().ram_write(mutant.address, bytes, mutant.length)
                    .ok();
      machine.tb_cache().invalidate_range(mutant.address, mutant.length);
    }
    if (!checks.expect(patched, "Bus::ram_write", bench.name)) return;
    const vp::RunResult run =
        run_mutant(prepared, lane_counts, tracer, lane, job.id);
    mutation::Verdict verdict;
    {
      Tracer::Scope span(tracer, lane, "mutation.classify", job.id);
      verdict = classify_mutant(run, machine, *golden);
    }
    ++lane_counts.histogram[static_cast<unsigned>(verdict)];
    checks.expect(verdict == expected.verdict &&
                      run.instructions == expected.instructions &&
                      decisions[index].pruned == expected.pruned,
                  "traced mutant reproduces the campaign's verdict",
                  bench.name);
  });
}

TimingRun timing_pipeline(const BenchProgram& bench, u32 id,
                          const std::vector<trace::NamedTiming>& matrix,
                          Tracer& tracer, Counts& counts, Checks& checks) {
  TimingRun out;
  const vp::MachineConfig config;

  std::optional<wcet::AnalysisResult> analysis;
  {
    Stage stage(tracer, "wcet.analyze", id, out.wcet_ns);
    auto result = wcet::Analyzer().analyze(bench.program);
    if (result.ok()) analysis = std::move(*result);
  }
  if (!checks.expect(analysis.has_value(), "wcet::Analyzer::analyze",
                     bench.name)) {
    return out;
  }

  vp::RunResult plain;
  {
    Stage stage(tracer, "vp.fast_run", id, out.plain_ns);
    vp::Machine machine(config);
    const bool loaded = machine.load_program(bench.program).ok();
    const EngineProbe probe(machine);
    if (loaded) plain = machine.run();
    probe.add_to(counts, machine, plain);
  }
  out.plain_insns = plain.instructions;
  if (!checks.expect(plain.normal_exit(), "plain run exits normally",
                     bench.name) ||
      !checks.expect(!bench.expected_exit.has_value() ||
                         plain.exit_code == *bench.expected_exit,
                     "golden exit code", bench.name)) {
    return out;
  }

  vp::RunResult cosim;
  qta::QtaReport report;
  {
    Stage stage(tracer, "qta.cosim_run", id, out.cosim_ns);
    vp::Machine machine(config);
    const bool loaded = machine.load_program(bench.program).ok();
    qta::QtaPlugin plugin(analysis->annotated);
    plugin.attach(machine.vm_handle());
    const EngineProbe probe(machine);
    if (loaded) cosim = machine.run();
    probe.add_to(counts, machine, cosim);
    report = plugin.report(cosim.cycles);
  }
  out.cosim_insns = cosim.instructions;
  checks.expect(cosim.instructions == plain.instructions &&
                    cosim.cycles == plain.cycles &&
                    cosim.exit_code == plain.exit_code,
                "plain and co-simulation runs agree", bench.name);
  checks.expect(!report.bound_violated &&
                    report.observed_cycles <= report.wc_path_cycles &&
                    report.wc_path_cycles <= report.static_bound,
                "QTA chain observed <= wc_path <= static_bound", bench.name);

  std::optional<trace::Trace> recorded;
  {
    Stage stage(tracer, "trace.record", id, out.record_ns);
    vp::Machine machine(config);
    trace::TraceRecorder recorder(
        trace::TraceRecorder::config_for(config, bench.program));
    if (machine.load_program(bench.program).ok() &&
        recorder.attach_checked(machine.vm_handle()).ok()) {
      const EngineProbe probe(machine);
      const vp::RunResult run = machine.run();
      probe.add_to(counts, machine, run);
      counts.trace_bytes += recorder.stream_size();
      counts.trace_insns += run.instructions;
      auto parsed = trace::Trace::parse(recorder.finish_bytes(run));
      if (recorder.taints() == 0 && run.cycles == plain.cycles &&
          parsed.ok()) {
        recorded = std::move(*parsed);
      }
    }
  }
  if (!checks.expect(recorded.has_value(),
                     "untainted recording agrees with the plain run",
                     bench.name)) {
    return out;
  }
  {
    Tracer::Scope span(tracer, 0, "trace.self_check", id);
    checks.expect(trace::self_check(*recorded).ok(), "trace::self_check",
                  bench.name);
  }

  std::optional<trace::DecodedTrace> decoded;
  {
    Stage stage(tracer, "trace.decode", id, out.decode_ns);
    auto result = trace::DecodedTrace::decode(*recorded);
    if (result.ok()) decoded = std::move(*result);
  }
  if (!checks.expect(decoded.has_value(), "DecodedTrace::decode",
                     bench.name)) {
    return out;
  }
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    std::optional<trace::ReplayResult> replayed;
    {
      Stage stage(tracer, "trace.replay", id, out.replay_ns);
      auto result = trace::replay(*decoded, matrix[i].params);
      if (result.ok()) replayed = *result;
    }
    if (!checks.expect(replayed.has_value() &&
                           replayed->instructions == plain.instructions,
                       "trace::replay", bench.name)) {
      continue;
    }
    ++counts.replays;
    counts.replay_cycles += replayed->cycles;
    counts.replay_digest = fnv_mix(counts.replay_digest, replayed->cycles);
    if (matrix[i].name == "base") {
      checks.expect(replayed->cycles == plain.cycles,
                    "replay under the recording config equals live cycles",
                    bench.name);
    }
  }
  return out;
}

void translate_probe(const BenchProgram& bench, u32 id, Tracer& tracer,
                     Counts& counts, Checks& checks) {
  Tracer::Scope probe_span(tracer, 0, "vp.translate_probe", id);
  vp::Machine machine;
  vp::Snapshot loaded;
  {
    Tracer::Scope span(tracer, 0, "vp.load", id);
    if (!checks.expect(machine.load_program(bench.program).ok(),
                       "load_program", bench.name)) {
      return;
    }
    machine.save_state(loaded);
  }
  vp::RunResult cold;
  vp::RunResult warm;
  {
    const EngineProbe probe(machine);
    {
      Tracer::Scope span(tracer, 0, "vp.cold_run", id);
      cold = machine.run();
    }
    probe.add_to(counts, machine, cold);
  }
  {
    Tracer::Scope span(tracer, 0, "vp.rewind", id);
    machine.restore_state(loaded);
  }
  {
    const EngineProbe probe(machine);
    {
      Tracer::Scope span(tracer, 0, "vp.warm_run", id);
      warm = machine.run();
    }
    probe.add_to(counts, machine, warm);
  }
  checks.expect(cold.normal_exit() &&
                    cold.instructions == warm.instructions &&
                    cold.cycles == warm.cycles &&
                    cold.exit_code == warm.exit_code,
                "warm rerun repeats the cold run", bench.name);
}

}  // namespace perfbench
