// E8b (replay) — capture-once / replay-many vs per-configuration
// re-execution.
//
// The differential-timing workflow records one instrumented execution and
// then evaluates the whole timing-configuration matrix against the trace,
// so the per-configuration cost drops from "re-execute the program" to
// "charge the decoded trace's event profile through a TimingModel" (plus
// one icache pass over the block PCs when the icache model is on). Two
// claims are checked here, both load-bearing for the workflow:
//
//   1. bit-identity — for every matrix configuration, replayed cycles equal
//      a fresh live execution under that configuration, on every standard
//      workload that records untainted;
//   2. speedup — per configuration, charging the decoded trace is >= 10x
//      faster than the instrumented re-execution a live differential
//      analysis would need (a run with a whole-run per-instruction
//      observer attached, one callback per retired instruction). The
//      bare fast-path re-execution time is reported alongside for
//      honesty: it is the floor for a cycles-only live measurement. So is the hooked replay
//      (a per-instruction PC callback, what s4e-qta --replay feeds its
//      path accumulator): it is the path-aware counterpart of the
//      instrumented re-execution.
//
// The capture cost is reported too: the recorded run plus the recorder's
// finish (record_ms), and its ratio to a plain run (record_vs_plain).
//
// The measured row lands in BENCH_replay.json (merge semantics, so other
// benches' rows survive). `--no-report` skips the write; `--quick` shrinks
// the kernel for the ctest smoke run (bench.replay_smoke).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "asm/assembler.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "core/workloads.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "vp/machine.hpp"
#include "vp/plugin.hpp"

namespace {

using namespace s4e;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The timing kernel: a counted loop exercising every latency class replay
// charges differently (mul, iterative divide, RAM load/store, a
// data-dependent branch) around a straight-line arithmetic body — the
// shape of the real compute kernels (FIR, matmul, CRC) whose arithmetic
// runs the trace RLE-compresses — long enough that per-configuration wall
// time is dominated by execution, not setup.
std::string kernel_source(unsigned iterations) {
  return format(R"(
_start:
    li s0, %u
    li s1, 0
    li t0, 0x80002000
loop:
    mul t1, s0, s0
    add s1, s1, t1
    xor s1, s1, s0
    addi t2, s1, 3
    and t3, t2, t1
    or s1, s1, t3
    sub t2, t2, s0
    slli t3, t2, 1
    srli t4, t3, 2
    add s1, s1, t4
    xor t2, t2, t3
    add s1, s1, t2
    andi t4, s1, 255
    add s1, s1, t4
    slli t5, s1, 3
    xor s1, s1, t5
    srli t5, s1, 5
    add s1, s1, t5
    add t2, s1, t1
    xor t3, t2, s0
    slli t4, t3, 2
    add s1, s1, t4
    srli t2, s1, 7
    and t3, t2, t1
    or s1, s1, t3
    sub t4, s1, s0
    xor s1, s1, t4
    addi t2, t4, 11
    add s1, s1, t2
    slli t3, s1, 1
    xor s1, s1, t3
    srli t4, s1, 3
    add s1, s1, t4
    andi t5, s1, 1023
    add s1, s1, t5
    divu t2, t1, s0
    xor s1, s1, t2
    sw s1, 0(t0)
    lw t4, 0(t0)
    add s1, s1, t4
    andi t5, s0, 3
    beqz t5, skip
    addi s1, s1, 1
skip:
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
)",
                iterations);
}

struct Capture {
  trace::Trace trace;
  vp::RunResult result;
  u64 taints = 0;
  std::size_t stream_bytes = 0;
  double record_seconds = 0;  // the recorded run plus the recorder's finish
  double parse_seconds = 0;   // Trace::parse: the stream's one walk
};

// One execution with the recorder attached, under the default
// timing configuration (RecordingConfigurationDoesNotMatter in test_trace
// covers the "any config records the same path" contract).
Capture record_once(const assembler::Program& program) {
  vp::MachineConfig config;
  vp::Machine machine(config);
  S4E_CHECK(machine.load_program(program).ok());
  trace::TraceRecorder recorder(
      trace::TraceRecorder::config_for(config, program));
  S4E_CHECK(recorder.attach_checked(machine.vm_handle()).ok());
  const auto start = std::chrono::steady_clock::now();
  const vp::RunResult result = machine.run();
  const u64 taints = recorder.taints();
  const std::size_t stream_bytes = recorder.stream_size();
  std::vector<u8> bytes = recorder.finish_bytes(result);
  const double seconds = seconds_since(start);
  const auto parse_start = std::chrono::steady_clock::now();
  auto parsed = trace::Trace::parse(std::move(bytes));
  const double parse_seconds = seconds_since(parse_start);
  S4E_CHECK(parsed.ok());
  return Capture{std::move(*parsed), result,  taints,
                 stream_bytes,       seconds, parse_seconds};
}

// A fresh fast-path execution (no plugins) under one timing configuration —
// the floor for a cycles-only live measurement.
vp::RunResult live_run(const assembler::Program& program,
                       const vp::TimingParams& timing) {
  vp::MachineConfig config;
  config.timing = timing;
  vp::Machine machine(config);
  S4E_CHECK(machine.load_program(program).ok());
  return machine.run();
}

// The cheapest possible per-instruction observer: a whole-run insn_exec
// subscriber that sees the executed path instruction by instruction.
// Using a bare counter instead of the real QtaPlugin biases the baseline
// in re-execution's favour.
class PathObserver final : public vp::PluginBase {
 public:
  Subscriptions subscriptions() const override {
    Subscriptions subs;
    subs.insn_exec = true;
    return subs;
  }
  void on_insn_exec(const s4e_insn_info& insn) override {
    ++instructions_;
    last_pc_ = insn.address;
  }
  u64 instructions_ = 0;
  u32 last_pc_ = 0;
};

// A fresh execution with the observer attached — what a live
// per-configuration path analysis pays.
vp::RunResult instrumented_run(const assembler::Program& program,
                               const vp::TimingParams& timing) {
  vp::MachineConfig config;
  config.timing = timing;
  vp::Machine machine(config);
  S4E_CHECK(machine.load_program(program).ok());
  PathObserver observer;
  observer.attach(machine.vm_handle());
  const vp::RunResult result = machine.run();
  S4E_CHECK(observer.instructions_ == result.instructions);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool write_report = true;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-report") write_report = false;
    if (arg == "--quick") quick = true;
  }

  const std::vector<trace::NamedTiming> matrix = trace::timing_matrix();
  std::printf("[E8b] capture-once / replay-many vs re-execution "
              "(%zu timing configurations)\n\n", matrix.size());

  // --- Section 1: bit-identity across the standard workloads. Tainted
  // recordings (timing-path-sensitive sites: CLINT/GPIO, cycle CSRs) are
  // refused by replay and therefore skipped here — the skip is printed, not
  // silent, and at least one workload must survive.
  std::printf("%-12s %10s %8s %8s  %s\n", "workload", "insns", "stream",
              "configs", "replay == live");
  std::printf("%s\n", std::string(60, '-').c_str());
  bool all_identical = true;
  unsigned verified_workloads = 0;
  for (const core::Workload& workload : core::standard_workloads()) {
    auto program = assembler::assemble(workload.source);
    S4E_CHECK_MSG(program.ok(), workload.name);
    Capture capture = record_once(*program);
    if (capture.taints != 0) {
      std::printf("%-12s %10llu %8zu %8s  skipped (%llu taint sites)\n",
                  workload.name.c_str(),
                  static_cast<unsigned long long>(
                      capture.result.instructions),
                  capture.stream_bytes, "-",
                  static_cast<unsigned long long>(capture.taints));
      continue;
    }
    bool identical = true;
    for (const trace::NamedTiming& config : matrix) {
      const vp::RunResult live = live_run(*program, config.params);
      auto replayed = trace::replay(capture.trace, config.params);
      S4E_CHECK_MSG(replayed.ok(), workload.name + "/" + config.name);
      identical = identical && replayed->cycles == live.cycles &&
                  replayed->instructions == live.instructions;
    }
    all_identical = all_identical && identical;
    ++verified_workloads;
    std::printf("%-12s %10llu %8zu %8zu  %s\n", workload.name.c_str(),
                static_cast<unsigned long long>(capture.result.instructions),
                capture.stream_bytes, matrix.size(),
                identical ? "yes" : "NO");
  }
  S4E_CHECK(verified_workloads > 0);
  S4E_CHECK(all_identical);

  // --- Section 2: the speedup claim, on a kernel long enough to measure.
  const unsigned iterations = quick ? 2000 : 60000;
  auto kernel = assembler::assemble(kernel_source(iterations));
  S4E_CHECK(kernel.ok());
  // The capture cost: the recorded run plus finish, against a plain run of
  // the same kernel, each the median of `reps` alternating repetitions.
  const unsigned reps = quick ? 1 : 7;
  std::vector<double> record_s, plain_s;
  const auto time_plain = [&] {
    const auto plain_start = std::chrono::steady_clock::now();
    live_run(*kernel, vp::TimingParams{});
    plain_s.push_back(seconds_since(plain_start));
  };
  time_plain();
  // The first recording is the one the rest of the bench uses.
  Capture capture = record_once(*kernel);
  record_s.push_back(capture.record_seconds);
  for (unsigned rep = 1; rep < reps; ++rep) {
    time_plain();
    record_s.push_back(record_once(*kernel).record_seconds);
  }
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  const double record_ms = median(record_s) * 1e3;
  const double plain_ms = median(plain_s) * 1e3;
  S4E_CHECK(capture.taints == 0);
  S4E_CHECK(trace::self_check(capture.trace).ok());

  std::printf("\nkernel: %llu instructions, %zu stream bytes "
              "(%.2f bytes/insn)\nrecorded (run + finish) in %.3f ms, "
              "%.2fx a plain run's %.3f ms (medians of %u)\n",
              static_cast<unsigned long long>(capture.result.instructions),
              capture.stream_bytes,
              static_cast<double>(capture.stream_bytes) /
                  static_cast<double>(capture.result.instructions),
              record_ms, record_ms / plain_ms, plain_ms, reps);

  // Decode once: it shares the profile Trace::parse built in its one walk
  // of the stream (timed above, with the recording), so the varint stream
  // cost is paid a single time for every configuration (this is what
  // replay_matrix and s4e-qta --replay do internally).
  const auto decode_start = std::chrono::steady_clock::now();
  auto decoded = trace::DecodedTrace::decode(capture.trace);
  const double decode_seconds = seconds_since(decode_start);
  S4E_CHECK(decoded.ok());

  // Serial fast-path re-execution: one fresh chained-dispatch run per
  // configuration, cycles only.
  std::vector<u64> live_cycles(matrix.size());
  const auto fast_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    live_cycles[i] = live_run(*kernel, matrix[i].params).cycles;
  }
  const double fast_seconds = seconds_since(fast_start);

  // Serial instrumented re-execution: the per-instruction observer on
  // every instruction — the live baseline for path-aware analysis.
  bool kernel_identical = true;
  const auto reexec_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const vp::RunResult result = instrumented_run(*kernel, matrix[i].params);
    kernel_identical = kernel_identical && result.cycles == live_cycles[i];
  }
  const double reexec_seconds = seconds_since(reexec_start);
  S4E_CHECK(kernel_identical);  // instrumented == plain, per config

  // Serial replay: the same matrix charged from the shared decoded trace.
  const auto replay_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    auto replayed = trace::replay(*decoded, matrix[i].params);
    S4E_CHECK_MSG(replayed.ok(), matrix[i].name);
    kernel_identical = kernel_identical && replayed->cycles == live_cycles[i];
  }
  const double replay_seconds = seconds_since(replay_start);
  S4E_CHECK(kernel_identical);

  // Serial hooked replay: the same matrix with a per-instruction PC hook.
  const auto hooked_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    u64 hooked_insns = 0;
    auto replayed = trace::replay(*decoded, matrix[i].params,
                                  [&hooked_insns](u32) { ++hooked_insns; });
    S4E_CHECK_MSG(replayed.ok(), matrix[i].name);
    kernel_identical = kernel_identical &&
                       replayed->cycles == live_cycles[i] &&
                       hooked_insns == capture.result.instructions;
  }
  const double hooked_seconds = seconds_since(hooked_start);
  S4E_CHECK(kernel_identical);

  // Parallel replay: the tool-facing fan-out (s4e-qta --replay --jobs N).
  const unsigned jobs = std::max(2u, std::thread::hardware_concurrency());
  const auto parallel_start = std::chrono::steady_clock::now();
  auto fanned = trace::replay_matrix(capture.trace, matrix, jobs);
  const double parallel_seconds = seconds_since(parallel_start);
  S4E_CHECK(fanned.ok());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    kernel_identical =
        kernel_identical && (*fanned)[i].result.cycles == live_cycles[i];
  }
  S4E_CHECK(kernel_identical);

  const double speedup = reexec_seconds / replay_seconds;
  const double speedup_fast = fast_seconds / replay_seconds;
  const double per_config = 1e3 / static_cast<double>(matrix.size());
  std::printf("\n%-30s %10s %14s\n", "evaluation of the matrix", "wall",
              "per config");
  std::printf("%s\n", std::string(56, '-').c_str());
  std::printf("%-30s %8.3f s %11.3f ms\n", "re-exec, instrumented (serial)",
              reexec_seconds, reexec_seconds * per_config);
  std::printf("%-30s %8.3f s %11.3f ms\n", "re-exec, fast path (serial)",
              fast_seconds, fast_seconds * per_config);
  std::printf("%-30s %8.6f s %11.6f ms  (parse once: %.3f ms, decode "
              "once: %.3f ms)\n",
              "replay (serial)", replay_seconds, replay_seconds * per_config,
              capture.parse_seconds * 1e3, decode_seconds * 1e3);
  std::printf("%-30s %8.3f s %11.3f ms\n", "replay, hooked (serial)",
              hooked_seconds, hooked_seconds * per_config);
  std::printf("%-30s %8.3f s %11.3f ms  (jobs=%u)\n", "replay (pool)",
              parallel_seconds, parallel_seconds * per_config, jobs);
  std::printf("\nreplay speedup over instrumented re-execution: %.1fx per "
              "configuration\n(%.1fx over the bare fast path), cycles "
              "bit-identical: %s\n",
              speedup, speedup_fast, kernel_identical ? "yes" : "NO");
  if (!quick) S4E_CHECK_MSG(speedup >= 10.0, "replay speedup below 10x");

  if (write_report) {
    const Status merged = merge_bench_entry(
        "BENCH_replay.json", "replay_vs_reexec",
        format("{\"workload\": \"replay_kernel\", \"instructions\": %llu, "
               "\"stream_bytes\": %zu, "
               "\"configs\": %zu, "
               "\"verified_workloads\": %u, "
               "\"bit_identical\": %s, "
               "\"reexec_per_config_ms\": %s, "
               "\"reexec_fast_per_config_ms\": %s, "
               "\"replay_per_config_ms\": %s, "
               "\"replay_hooked_per_config_ms\": %s, "
               "\"record_ms\": %s, "
               "\"record_vs_plain\": %s, "
               "\"reps\": %u, "
               "\"parse_once_ms\": %s, "
               "\"decode_once_ms\": %s, "
               "\"speedup\": %s, "
               "\"speedup_vs_fast\": %s, "
               "\"parallel_jobs\": %u, "
               "\"parallel_wall_ms\": %s, "
               "\"host_cores\": %u}",
               static_cast<unsigned long long>(capture.result.instructions),
               capture.stream_bytes, matrix.size(), verified_workloads,
               kernel_identical && all_identical ? "true" : "false",
               json_number(reexec_seconds * per_config, 3).c_str(),
               json_number(fast_seconds * per_config, 3).c_str(),
               json_number(replay_seconds * per_config, 6).c_str(),
               json_number(hooked_seconds * per_config, 3).c_str(),
               json_number(record_ms, 3).c_str(),
               json_number(record_ms / plain_ms, 2).c_str(), reps,
               json_number(capture.parse_seconds * 1e3, 3).c_str(),
               json_number(decode_seconds * 1e3, 3).c_str(),
               json_number(speedup, 1).c_str(),
               json_number(speedup_fast, 1).c_str(), jobs,
               json_number(parallel_seconds * 1e3, 3).c_str(),
               std::thread::hardware_concurrency()));
    S4E_CHECK_MSG(merged.ok(), merged.to_string());
    std::printf("(recorded in BENCH_replay.json)\n");
  }
  return 0;
}
