// s4e-perfbench: the repository benchmark program (see README.md).
//
//   s4e-perfbench --workload fault_sweep|mutation_sweep|timing_flow
//                 --seed N --seconds S --trace 0|1 --out-dir DIR
//                 [--source-id ID] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the layer-traced pipelines and reports the per-layer metrics. Either way
// the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Output checks that fail are counted in "failed" and make the exit code 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/strings.hpp"
#include "pipelines.hpp"
#include "programs.hpp"
#include "tracer.hpp"
#include "vp/runner.hpp"

namespace perfbench {
namespace {

using namespace s4e;

// --- Workload shape. Changing any of these redefines the benchmark.
constexpr unsigned kFaultMutants = 500;    // per fault campaign
constexpr unsigned kFaultJobs = 2;         // fault_sweep executor lanes
// mutation_sweep's torture programs come from one fixed testgen seed: their
// hang mutants make a campaign's cost vary by about a third between seeds,
// more than the metrics' bounds allow.
constexpr unsigned kTorturePrograms = 6;
constexpr u64 kTortureSeed = 1;
constexpr unsigned kKernels = 4;           // timing_flow counted kernels
constexpr unsigned kKernelIterations = 12'000;   // ~0.56M instructions each
constexpr unsigned kLargeIterations = 80;        // ~0.59M instructions
constexpr unsigned kCensusIterations = 1'000;    // census kernel
// Set-up is repeated about kSetupRepeats times, spread evenly over the timed
// run so its median sees the same host conditions as the passes.
constexpr unsigned kSetupRepeats = 21;
// Traced run: lane 0's span self times must cover the traced wall time to
// within this share.
constexpr double kSelfTimeTolerance = 0.05;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string source_id = "unknown";
  std::string git_sha = "none";
};

struct Metric {
  Metric(std::string name, double value, std::string unit, u64 samples,
         std::string alias = "", bool reported = true)
      : name(std::move(name)),
        value(value),
        unit(std::move(unit)),
        samples(samples),
        alias(std::move(alias)),
        reported(reported) {}

  std::string name;
  double value;
  std::string unit;
  u64 samples;
  std::string alias;  // workload-specific name printed beside it
  bool reported;           // false: printed only, not in the JSON line
};

double median_of(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Linear interpolation between closest ranks.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- CPU placement. The host's CPUs slow down one at a time, for seconds,
// under load from outside this process. Each pass is pinned to the next
// CPUs of the allowed set in turn, so a slowed CPU slows some passes, not
// the whole run, and the faster-half selection below drops those passes.

class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof original_, &original_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the calling thread, and the threads it starts, to `count` CPUs
  // beginning with the `step`-th allowed one.
  void pin(std::size_t step, unsigned count) {
    if (cpus_.size() <= count) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned i = 0; i < count; ++i) {
      CPU_SET(cpus_[(step + i) % cpus_.size()], &set);
    }
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

// --- Host and build identity.

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string identity_json(const Options& options) {
  return format(
      "{\"cores\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"build_flags\": \"%s\", \"git_sha\": \"%s\", "
      "\"source_id\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      json_escape(PERFBENCH_BUILD_FLAGS).c_str(),
      json_escape(options.git_sha).c_str(),
      json_escape(options.source_id).c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed),
      number(options.seconds).c_str(), options.trace ? 1 : 0);
}

// --- Inputs.

struct Inputs {
  std::vector<BenchProgram> programs;
  std::vector<fault::CampaignConfig> fault_configs;
  std::vector<mutation::MutationConfig> mutation_configs;
  std::vector<trace::NamedTiming> matrix;
};

bool is_sweep(const std::string& workload) {
  return workload == "fault_sweep" || workload == "mutation_sweep";
}

// Everything before the first timed call: generate and assemble the
// workload's programs and build its campaign configurations.
bool setup(const Options& options, Tracer& tracer, Inputs& inputs,
           std::string& error) {
  std::vector<Source> sources;
  if (is_sweep(options.workload)) {
    sources = standard_sources();
    if (options.workload == "mutation_sweep") {
      for (Source& source : torture_sources(kTortureSeed, kTorturePrograms)) {
        sources.push_back(std::move(source));
      }
    }
  } else {
    for (unsigned i = 0; i < kKernels; ++i) {
      sources.push_back(kernel_source(options.seed, i, kKernelIterations));
    }
    sources.push_back(large_footprint_source(options.seed, kLargeIterations));
  }
  if (!assemble_all(sources, tracer, inputs.programs, error)) return false;

  inputs.fault_configs.clear();
  inputs.mutation_configs.clear();
  for (std::size_t i = 0; i < inputs.programs.size(); ++i) {
    fault::CampaignConfig fault_config;
    fault_config.seed = options.seed * 1'000'003ULL + i;
    fault_config.mutant_count = kFaultMutants;
    fault_config.jobs = kFaultJobs;
    inputs.fault_configs.push_back(fault_config);
    mutation::MutationConfig mutation_config;
    mutation_config.jobs = 1;
    mutation_config.triage = dataflow::TriageMode::kOn;
    inputs.mutation_configs.push_back(mutation_config);
  }
  inputs.matrix = trace::timing_matrix();
  return true;
}

// Golden exit codes of the standard workloads against
// core::Workload::expected_exit.
void check_goldens(const Inputs& inputs, Checks& checks) {
  for (const BenchProgram& bench : inputs.programs) {
    if (!bench.expected_exit.has_value()) continue;
    vp::Machine machine;
    auto golden = vp::run_golden(machine, bench.program);
    checks.expect(golden.ok() &&
                      golden->result.exit_code == *bench.expected_exit,
                  "golden exit code equals Workload::expected_exit",
                  bench.name);
  }
}

// --- End-to-end run (tracing off).

// Host time of one pass over all of the workload's programs.
struct Pass {
  std::vector<double> job_ms;
  double items = 0;
  u64 items_ns = 0;
  double insns = 0;
  u64 insns_ns = 0;
  u64 wall_ns = 0;
  // timing_flow only (printed, not in the JSON line)
  double cosim_insns = 0;
  u64 cosim_ns = 0;
  std::vector<double> wcet_ms;
};

// One campaign's deterministic result, compared across passes.
struct CampaignDigest {
  u64 histogram[4] = {};
  u64 pruned = 0;
  u64 mutants = 0;
  u64 insns = 0;

  bool operator==(const CampaignDigest&) const = default;
  void add_to(Counts& counts) const {
    counts.mutants += mutants;
    counts.mutant_insns += insns;
    counts.pruned += pruned;
    for (unsigned i = 0; i < 4; ++i) counts.histogram[i] += histogram[i];
  }
};

CampaignDigest digest_of(const fault::CampaignResult& result) {
  CampaignDigest digest;
  std::copy(std::begin(result.outcome_counts), std::end(result.outcome_counts),
            digest.histogram);
  digest.pruned = result.pruned_count;
  digest.mutants = result.mutants.size();
  digest.insns = static_cast<u64>(result.simulated_instructions);
  return digest;
}

CampaignDigest digest_of(const mutation::MutationScore& score) {
  CampaignDigest digest;
  std::copy(std::begin(score.verdict_counts), std::end(score.verdict_counts),
            digest.histogram);
  digest.pruned = score.pruned_count;
  digest.mutants = score.results.size();
  for (const mutation::MutantResult& result : score.results) {
    digest.insns += result.instructions;
  }
  return digest;
}

// Repeats whole passes over the workload's programs until `seconds` have
// passed (at least one pass). Returns the first pass's exact counts.
Counts run_end_to_end(const Options& options, const Inputs& inputs,
                      Checks& checks, std::vector<Pass>& passes,
                      const std::function<void()>& repeat_setup,
                      const std::vector<double>& setup_s) {
  Counts first_counts;
  std::vector<std::optional<CampaignDigest>> first(inputs.programs.size());
  Tracer off(false);
  const u64 run_ns = static_cast<u64>(options.seconds * 1e9);
  const u64 deadline = now_ns() + run_ns;
  u64 last_setup = now_ns();
  CpuRotation rotation;
  const unsigned threads = options.workload == "fault_sweep" ? kFaultJobs : 1;
  while (passes.empty() || now_ns() < deadline) {
    rotation.pin(passes.size(), threads);
    if (now_ns() - last_setup >= run_ns / kSetupRepeats) {
      repeat_setup();
      last_setup = now_ns();
    }
    const bool first_pass = passes.empty();
    Pass& sample = passes.emplace_back();
    Counts pass_counts;
    const u64 pass_start = now_ns();
    for (std::size_t i = 0; i < inputs.programs.size(); ++i) {
      const BenchProgram& bench = inputs.programs[i];
      std::optional<CampaignDigest> digest;
      u64 ns = 0;
      if (options.workload == "fault_sweep") {
        fault::Campaign campaign(bench.program, inputs.fault_configs[i]);
        const u64 start = now_ns();
        auto result = campaign.run();
        ns = now_ns() - start;
        if (checks.expect(result.ok(), "fault::Campaign::run", bench.name)) {
          digest = digest_of(*result);
        }
      } else if (options.workload == "mutation_sweep") {
        mutation::MutationCampaign campaign(bench.program,
                                            inputs.mutation_configs[i]);
        const u64 start = now_ns();
        auto result = campaign.run();
        ns = now_ns() - start;
        if (checks.expect(result.ok(), "mutation::MutationCampaign::run",
                          bench.name)) {
          digest = digest_of(*result);
        }
      } else {
        const TimingRun run = timing_pipeline(
            bench, static_cast<u32>(i), inputs.matrix, off, pass_counts,
            checks);
        sample.job_ms.push_back(static_cast<double>(run.job_ns()) / 1e6);
        sample.items += static_cast<double>(inputs.matrix.size());
        sample.items_ns += run.record_ns + run.decode_ns + run.replay_ns;
        sample.insns += static_cast<double>(run.plain_insns);
        sample.insns_ns += run.plain_ns;
        sample.cosim_insns += static_cast<double>(run.cosim_insns);
        sample.cosim_ns += run.cosim_ns;
        sample.wcet_ms.push_back(static_cast<double>(run.wcet_ns) / 1e6);
        continue;
      }
      if (!digest.has_value()) continue;
      sample.job_ms.push_back(static_cast<double>(ns) / 1e6);
      sample.items += static_cast<double>(digest->mutants);
      sample.items_ns += ns;
      sample.insns += static_cast<double>(digest->insns);
      sample.insns_ns += ns;
      if (first_pass) {
        first[i] = digest;
        digest->add_to(first_counts);
      } else {
        checks.expect(first[i].has_value() && *first[i] == *digest,
                      "campaign result repeats exactly", bench.name);
      }
    }
    sample.wall_ns = now_ns() - pass_start;
    if (options.workload == "timing_flow") {
      if (first_pass) {
        first_counts = pass_counts;
      } else {
        checks.expect(pass_counts.digest() == first_counts.digest(),
                      "simulated counts repeat exactly", "timing_flow");
      }
    }
  }
  while (setup_s.size() < kSetupRepeats) repeat_setup();
  return first_counts;
}

// The median of the faster half of `values`.
double fast_half_median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.resize((values.size() + 1) / 2);
  return median_of(std::move(values));
}

// Timing metrics are taken over the faster half of the passes (pass wall
// time at most the median), and set-up time over the faster half of its
// repetitions: every pass does identical work, so a slower one measures
// interference from the rest of the host, not the program.
std::vector<Metric> end_to_end_metrics(const Options& options,
                                       const std::vector<Pass>& passes,
                                       const std::vector<double>& setup_s,
                                       double fail_ratio, u64 attempted) {
  const bool sweep = is_sweep(options.workload);
  const auto per_s = [](double count, u64 ns) {
    return ns == 0 ? 0.0 : count / (static_cast<double>(ns) / 1e9);
  };
  std::vector<double> walls;
  for (const Pass& pass : passes) {
    walls.push_back(static_cast<double>(pass.wall_ns));
  }
  const double wall_limit = median_of(walls);
  std::vector<double> job_ms, wcet_ms;
  Pass total;
  u64 kept = 0;
  for (const Pass& pass : passes) {
    if (static_cast<double>(pass.wall_ns) > wall_limit) continue;
    ++kept;
    job_ms.insert(job_ms.end(), pass.job_ms.begin(), pass.job_ms.end());
    wcet_ms.insert(wcet_ms.end(), pass.wcet_ms.begin(), pass.wcet_ms.end());
    total.items += pass.items;
    total.items_ns += pass.items_ns;
    total.insns += pass.insns;
    total.insns_ns += pass.insns_ns;
    total.cosim_insns += pass.cosim_insns;
    total.cosim_ns += pass.cosim_ns;
  }
  const u64 jobs = job_ms.size();
  std::vector<Metric> metrics = {
      {"setup_s", fast_half_median(setup_s), "s", setup_s.size(), "setup_s"},
      {"job_ms.p50", median_of(job_ms), "ms", jobs,
       sweep ? "campaign_ms.p50" : "timing_flow_ms.p50"},
      {"job_ms.p90", percentile(job_ms, 0.9), "ms", jobs,
       sweep ? "campaign_ms.p90" : "timing_flow_ms.p90"},
      {"items_per_s", per_s(total.items, total.items_ns), "1/s",
       static_cast<u64>(total.items),
       sweep ? "mutants_per_s" : "replay_configs_per_s"},
      {"guest_mips", per_s(total.insns, total.insns_ns) / 1e6, "Minsn/s",
       kept, sweep ? "guest_mips" : "fast_mips"},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1, "peak_rss_mb"},
  };
  if (!sweep) {
    metrics.push_back({"cosim_mips",
                       per_s(total.cosim_insns, total.cosim_ns) / 1e6,
                       "Minsn/s", kept, "cosim_mips", false});
    metrics.push_back({"wcet_ms.p50", median_of(wcet_ms), "ms",
                       wcet_ms.size(), "wcet_ms.p50", false});
  }
  metrics.push_back(
      {"fail_ratio", fail_ratio, "ratio", attempted, "fail_ratio", false});
  metrics.push_back({"passes", static_cast<double>(passes.size()), "count",
                     kept, "", false});
  return metrics;
}

// --- Traced run.

struct References {
  std::vector<fault::CampaignResult> fault_results;
  std::vector<std::vector<fault::FaultSpec>> fault_lists;
  std::vector<mutation::MutationScore> mutation_scores;
};

// Untraced campaigns whose per-mutant results the traced pipelines must
// reproduce.
bool build_references(const Options& options, const Inputs& inputs,
                      Checks& checks, References& refs) {
  for (std::size_t i = 0; i < inputs.programs.size(); ++i) {
    const BenchProgram& bench = inputs.programs[i];
    if (options.workload == "fault_sweep") {
      fault::Campaign campaign(bench.program, inputs.fault_configs[i]);
      auto result = campaign.run();
      if (!checks.expect(result.ok(), "fault::Campaign::run", bench.name)) {
        return false;
      }
      refs.fault_results.push_back(std::move(*result));
      refs.fault_lists.push_back(campaign.fault_list());
    } else if (options.workload == "mutation_sweep") {
      mutation::MutationCampaign campaign(bench.program,
                                          inputs.mutation_configs[i]);
      auto result = campaign.run();
      if (!checks.expect(result.ok(), "mutation::MutationCampaign::run",
                         bench.name)) {
        return false;
      }
      refs.mutation_scores.push_back(std::move(*result));
    }
  }
  return true;
}

// One pass of the workload's layer pipelines over all its programs.
// `jobs` overrides the fault campaigns' executor lanes.
void traced_pass(const Options& options, const Inputs& inputs,
                 const References& refs, unsigned jobs, Tracer& tracer,
                 Counts& counts, ExecStats& exec, Checks& checks) {
  for (std::size_t i = 0; i < inputs.programs.size(); ++i) {
    const BenchProgram& bench = inputs.programs[i];
    const u32 id = static_cast<u32>(i);
    translate_probe(bench, id, tracer, counts, checks);
    if (options.workload == "fault_sweep") {
      FaultJob job{&bench, inputs.fault_configs[i], &refs.fault_results[i],
                   &refs.fault_lists[i], id};
      job.config.jobs = jobs;
      fault_pipeline(job, tracer, counts, exec, checks);
    } else if (options.workload == "mutation_sweep") {
      MutationJob job{&bench, inputs.mutation_configs[i],
                      &refs.mutation_scores[i], id};
      mutation_pipeline(job, tracer, counts, exec, checks);
    } else {
      timing_pipeline(bench, id, inputs.matrix, tracer, counts, checks);
    }
  }
}

// Layers a workload does not use are timed by a census over one small
// kernel, so every per-layer metric is measured on every workload. A
// metric reads the census only when the workload's own passes never
// reached that layer.
void census(const Options& options, const std::vector<trace::NamedTiming>& matrix,
            Tracer& tracer, Counts& counts, ExecStats& exec, Checks& checks) {
  Tracer off(false);
  std::vector<BenchProgram> programs;
  std::string error;
  if (!checks.expect(
          assemble_all({kernel_source(options.seed, kKernels,
                                      kCensusIterations)},
                       off, programs, error),
          "census kernel assembles", error)) {
    return;
  }
  const BenchProgram& bench = programs.front();

  fault::CampaignConfig fault_config;
  fault_config.seed = options.seed;
  fault_config.mutant_count = 8;
  fault_config.jobs = kFaultJobs;
  fault::Campaign fault_campaign(bench.program, fault_config);
  auto fault_result = fault_campaign.run();
  if (checks.expect(fault_result.ok(), "fault::Campaign::run", bench.name)) {
    fault_pipeline({&bench, fault_config, &*fault_result,
                    &fault_campaign.fault_list(), 0},
                   tracer, counts, exec, checks);
  }

  mutation::MutationConfig mutation_config;
  mutation_config.jobs = 1;
  mutation_config.max_mutants = 24;
  mutation_config.triage = dataflow::TriageMode::kOn;
  mutation::MutationCampaign mutation_campaign(bench.program, mutation_config);
  auto score = mutation_campaign.run();
  if (checks.expect(score.ok(), "mutation::MutationCampaign::run",
                    bench.name)) {
    mutation_pipeline({&bench, mutation_config, &*score, 0}, tracer, counts,
                      exec, checks);
  }
  timing_pipeline(bench, 0, matrix, tracer, counts, checks);
}

struct Traced {
  TraceSummary main;
  TraceSummary census;
  TraceSummary setup;
  Counts main_counts;
  Counts census_counts;
  Counts exact;  // serial pass, tracing off
  ExecStats main_exec;
  ExecStats census_exec;
  std::vector<double> overhead;      // traced / untraced pass wall
  std::vector<double> unattributed;  // traced wall not under a lane 0 span
  u64 pairs = 0;
};

std::vector<Metric> per_layer_metrics(const Traced& t) {
  // A span's totals from the workload's own passes, else from the census.
  const auto stat = [&](const char* name) -> const TraceSummary::Stat& {
    const TraceSummary::Stat& own = t.main.stat(name);
    return own.count != 0 ? own : t.census.stat(name);
  };
  const auto span = [&](const char* name, double unit_ns) {
    return TraceSummary::mean(stat(name), unit_ns);
  };
  const auto samples = [&](const char* name) { return stat(name).count; };
  // Ratio of two counts, from the workload's passes when they hold any
  // denominator, else from the census.
  const auto ratio = [&](u64 Counts::*num, u64 Counts::*den) {
    const Counts& c = t.main_counts.*den != 0 ? t.main_counts : t.census_counts;
    return c.*den == 0 ? 0.0
                       : static_cast<double>(c.*num) /
                             static_cast<double>(c.*den);
  };
  const auto careful_ratio = [](const Counts& c) {
    const u64 blocks = c.blocks_fast + c.blocks_careful;
    return blocks == 0 ? 0.0
                       : static_cast<double>(c.blocks_careful) /
                             static_cast<double>(blocks);
  };
  const ExecStats& exec =
      t.main_exec.calls != 0 ? t.main_exec : t.census_exec;
  // One decide span covers a campaign's whole candidate list.
  const Counts& decided = t.main.stat("dataflow.triage_decide").count != 0
                              ? t.main_counts
                              : t.census_counts;
  const double decide_us =
      static_cast<double>(stat("dataflow.triage_decide").total_ns) / 1e3 /
      static_cast<double>(std::max<u64>(decided.candidates, 1));
  const double tail_ms =
      exec.calls == 0 ? 0.0
                      : static_cast<double>(exec.tail_ns) / 1e6 /
                            static_cast<double>(exec.calls);

  return {
      {"asm.assemble_ms",
       TraceSummary::mean(t.setup.stat("asm.assemble"), 1e6), "ms",
       t.setup.stat("asm.assemble").count},
      {"vp.golden_ms", span("vp.golden", 1e6), "ms", samples("vp.golden")},
      {"vp.workervm_create_ms", span("vp.workervm_create", 1e6), "ms",
       samples("vp.workervm_create")},
      {"vp.restore_us", span("vp.restore", 1e3), "us", samples("vp.restore")},
      {"vp.pages_copied_per_restore",
       ratio(&Counts::pages_copied, &Counts::restores), "count",
       samples("vp.restore")},
      {"vp.mutant_run_us", span("vp.mutant_run", 1e3), "us",
       samples("vp.mutant_run")},
      {"vp.careful_block_ratio", careful_ratio(t.main_counts), "ratio",
       t.main_counts.runs},
      {"vp.chain_follow_ratio",
       ratio(&Counts::chain_follows, &Counts::blocks_fast), "ratio",
       t.main_counts.runs},
      {"vp.fast_run_ms", span("vp.fast_run", 1e6), "ms",
       samples("vp.fast_run")},
      {"vp.tb_miss_ratio", ratio(&Counts::tb_misses, &Counts::tb_lookups),
       "ratio", t.main_counts.runs},
      {"vp.translate_ms",
       TraceSummary::mean(t.main.stat("vp.cold_run"), 1e6) -
           TraceSummary::mean(t.main.stat("vp.warm_run"), 1e6),
       "ms", samples("vp.cold_run")},
      {"vp.tb_flushes_per_mutant",
       ratio(&Counts::tb_flushes, &Counts::mutants), "count",
       samples("vp.mutant_run")},
      {"vp.tb_invalidated_per_mutant",
       ratio(&Counts::tb_invalidated, &Counts::mutants), "count",
       samples("vp.mutant_run")},
      {"coverage.profile_ms", span("coverage.profile", 1e6), "ms",
       samples("coverage.profile")},
      {"fault.attach_us", span("fault.attach", 1e3), "us",
       samples("fault.attach")},
      {"fault.classify_us", span("fault.classify", 1e3), "us",
       samples("fault.classify")},
      {"mutation.enumerate_ms", span("mutation.enumerate", 1e6), "ms",
       samples("mutation.enumerate")},
      {"mutation.patch_us", span("mutation.patch", 1e3), "us",
       samples("mutation.patch")},
      {"dataflow.triage_build_ms", span("dataflow.triage_build", 1e6), "ms",
       samples("dataflow.triage_build")},
      {"dataflow.triage_decide_us", decide_us, "us",
       samples("dataflow.triage_decide")},
      {"dataflow.prune_ratio", ratio(&Counts::pruned, &Counts::candidates),
       "ratio", samples("dataflow.triage_decide")},
      {"exec.lane_busy_ratio",
       exec.capacity_ns == 0 ? 0.0
                             : static_cast<double>(exec.busy_ns) /
                                   static_cast<double>(exec.capacity_ns),
       "ratio", exec.calls},
      {"exec.tail_ms", tail_ms, "ms", exec.calls},
      {"wcet.analyze_ms", span("wcet.analyze", 1e6), "ms",
       samples("wcet.analyze")},
      {"qta.cosim_run_ms", span("qta.cosim_run", 1e6), "ms",
       samples("qta.cosim_run")},
      {"trace.record_ms", span("trace.record", 1e6), "ms",
       samples("trace.record")},
      {"trace.decode_ms", span("trace.decode", 1e6), "ms",
       samples("trace.decode")},
      {"trace.replay_ms", span("trace.replay", 1e6), "ms",
       samples("trace.replay")},
      {"trace.bytes_per_insn",
       ratio(&Counts::trace_bytes, &Counts::trace_insns), "B/insn",
       samples("trace.record")},
      {"bench.tracing_overhead", median_of(t.overhead), "ratio", t.pairs},
      {"bench.unattributed_share", median_of(t.unattributed), "ratio",
       t.pairs},
  };
}

void run_traced(const Options& options, const Inputs& inputs, Checks& checks,
                Traced& t, Tracer& last_pass, Tracer& census_tracer) {
  const u64 deadline = now_ns() + static_cast<u64>(options.seconds * 1e9);
  References refs;
  if (!build_references(options, inputs, checks, refs)) return;

  // Exact counts: one serial pass with tracing off.
  {
    Tracer off(false);
    ExecStats exec;
    traced_pass(options, inputs, refs, 1, off, t.exact, exec, checks);
  }

  // Alternate untraced and traced passes of the same pipelines; their wall
  // ratio is the tracing overhead.
  const unsigned jobs = options.workload == "fault_sweep" ? kFaultJobs : 1;
  Tracer off(false);
  while (t.pairs == 0 || now_ns() < deadline) {
    Counts scratch;
    ExecStats scratch_exec;
    u64 start = now_ns();
    traced_pass(options, inputs, refs, jobs, off, scratch, scratch_exec,
                checks);
    const u64 untraced_ns = now_ns() - start;

    last_pass.clear();
    start = now_ns();
    traced_pass(options, inputs, refs, jobs, last_pass, t.main_counts,
                t.main_exec, checks);
    const u64 traced_ns = now_ns() - start;

    TraceSummary pass;
    pass.add(last_pass);
    t.main.add(last_pass);
    const double gap = (static_cast<double>(traced_ns) -
                        static_cast<double>(pass.main_self_ns)) /
                       static_cast<double>(traced_ns);
    checks.expect(std::fabs(gap) <= kSelfTimeTolerance,
                  "layer self times sum to the traced wall time",
                  options.workload);
    t.unattributed.push_back(gap);
    t.overhead.push_back(static_cast<double>(traced_ns) /
                         static_cast<double>(untraced_ns));
    ++t.pairs;
  }

  census(options, inputs.matrix, census_tracer, t.census_counts,
         t.census_exec, checks);
  t.census.add(census_tracer);
}

// --- Output.

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("metric %-28s %14s %-8s n=%-8llu%s%s\n", metric.name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples),
                metric.alias.empty() || metric.alias == metric.name
                    ? ""
                    : (" as " + metric.alias).c_str(),
                metric.reported ? "" : " (report only)");
  }
}

std::string metrics_json(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!with_samples && !metric.reported) continue;
    out += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"", first ? "" : ", ",
                  metric.name.c_str(), number(metric.value).c_str(),
                  metric.unit.c_str());
    if (with_samples) {
      out += format(", \"samples\": %llu",
                    static_cast<unsigned long long>(metric.samples));
    }
    out += "}";
    first = false;
  }
  return out + "}";
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  return std::fclose(out) == 0 && wrote;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "s4e-perfbench: %s\nusage: s4e-perfbench --workload "
               "fault_sweep|mutation_sweep|timing_flow --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--source-id ID] [--git-sha SHA]\n",
               message);
  return 2;
}

bool parse_u64(const std::string& text, u64& out) {
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc() && result.ptr == text.data() + text.size();
}

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    u64 number_value = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, options.seed)) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number_value) || number_value == 0 ||
          number_value > 600) {
        return usage("bad --seconds");
      }
      options.seconds = static_cast<double>(number_value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--source-id") {
      options.source_id = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "fault_sweep" &&
      options.workload != "mutation_sweep" &&
      options.workload != "timing_flow") {
    return usage("unknown --workload");
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "s4e-perfbench: refusing to record from a %s build (%s)\n",
                 kSanitized ? "sanitizer" : "non-optimized",
                 PERFBENCH_BUILD_FLAGS);
    return 3;
  }

  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              number(options.seconds).c_str(), options.trace ? 1 : 0);
  const std::string identity = identity_json(options);
  std::printf("identity %s\n", identity.c_str());

  Checks checks;
  Inputs inputs;
  Tracer setup_tracer(options.trace);
  std::vector<double> setup_s;
  const auto timed_setup = [&](Tracer& tracer, Inputs& into) {
    std::string error;
    const u64 start = now_ns();
    const bool ok = setup(options, tracer, into, error);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    checks.expect(ok, "setup", error);
  };
  // The first set-up builds the inputs; in a traced run its spans feed
  // asm.assemble_ms.
  timed_setup(setup_tracer, inputs);
  const auto repeat_setup = [&] {
    Tracer off(false);
    Inputs scratch;
    timed_setup(off, scratch);
  };
  if (options.trace) {
    std::printf("self-time tolerance %s\n", number(kSelfTimeTolerance).c_str());
  }

  std::vector<Metric> metrics;
  std::string counts_line;
  Tracer last_pass(true);
  Tracer census_tracer(true);
  if (checks.failed() == 0) {
    if (!options.trace) {
      std::vector<Pass> passes;
      const Counts counts = run_end_to_end(options, inputs, checks, passes,
                                           repeat_setup, setup_s);
      if (is_sweep(options.workload)) check_goldens(inputs, checks);
      counts_line = counts.to_string();
      metrics = end_to_end_metrics(
          options, passes, setup_s,
          static_cast<double>(checks.failed()) /
              static_cast<double>(std::max<u64>(checks.attempted(), 1)),
          checks.attempted());
    } else {
      Traced traced;
      traced.setup.add(setup_tracer);
      run_traced(options, inputs, checks, traced, last_pass, census_tracer);
      counts_line = traced.exact.to_string();
      metrics = per_layer_metrics(traced);
      std::printf("self time (main thread, traced passes):");
      for (const auto& [layer, ns] : traced.main.main_self_by_layer) {
        std::printf(" %s=%.1f%%", layer.c_str(),
                    100.0 * static_cast<double>(ns) /
                        static_cast<double>(
                            std::max<u64>(traced.main.main_self_ns, 1)));
      }
      std::printf("\n");
      const std::string trace_path =
          format("%s/%s-seed%llu.trace.json", options.out_dir.c_str(),
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed));
      checks.expect(write_chrome_trace(trace_path,
                                       {{"setup", &setup_tracer},
                                        {"traced pass", &last_pass},
                                        {"census", &census_tracer}}),
                    "write Chrome trace", trace_path);
      std::printf("chrome trace %s\n", trace_path.c_str());
    }
  }
  std::printf("counts %s\n", counts_line.c_str());
  print_metrics(metrics);
  for (const std::string& message : checks.messages()) {
    std::printf("FAILED %s\n", message.c_str());
  }

  const std::string result_path = format(
      "%s/%s-seed%llu-trace%d.json", options.out_dir.c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0);
  checks.expect(
      write_file(result_path,
                 format("{\"identity\": %s, \"counts\": \"%s\", "
                        "\"attempted\": %llu, \"failed\": %llu, "
                        "\"metrics\": %s}\n",
                        identity.c_str(), counts_line.c_str(),
                        static_cast<unsigned long long>(checks.attempted()),
                        static_cast<unsigned long long>(checks.failed()),
                        metrics_json(metrics, true).c_str())),
      "write result file", result_path);

  const bool correct = checks.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()),
              metrics_json(metrics, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
