// E1 — VP emulation speed: block-cached execution vs pure interpretation.
//
// Reproduces the "fast and open emulation" claim (DVCON'14 / MBMV'20): the
// translation-block cache amortizes decode so cached emulation wins by a
// large factor, and absolute speed is tens-to-hundreds of guest MIPS on a
// laptop-class host. Reported counters: guest MIPS and the speedup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <thread>

#include "asm/assembler.hpp"
#include "common/json.hpp"
#include "core/workloads.hpp"
#include "debug/target.hpp"
#include "vp/machine.hpp"

namespace {

using namespace s4e;

// A hot synthetic kernel: ~2M instructions of loop + ALU + memory.
const char* kHotLoop = R"(
_start:
    la t6, buf
    li t0, 100000
loop:
    lw t1, 0(t6)
    addi t1, t1, 3
    sw t1, 0(t6)
    xor t2, t1, t0
    slli t3, t2, 1
    srli t4, t3, 2
    add t5, t4, t1
    sub t5, t5, t2
    mul s2, t5, t1
    and s3, s2, t4
    or s4, s3, t3
    sltu s5, s4, t5
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
.data
buf:
    .space 16
)";

assembler::Program hot_program() {
  static const assembler::Program program = [] {
    auto result = assembler::assemble(kHotLoop);
    S4E_CHECK(result.ok());
    return *result;
  }();
  return program;
}

void run_emulation(benchmark::State& state, const vp::MachineConfig& config) {
  const assembler::Program program = hot_program();
  u64 instructions = 0;
  for (auto _ : state) {
    vp::Machine machine(config);
    S4E_CHECK(machine.load_program(program).ok());
    const vp::RunResult result = machine.run();
    S4E_CHECK(result.normal_exit());
    instructions += result.instructions;
    benchmark::DoNotOptimize(result.cycles);
  }
  state.counters["guest_mips"] = benchmark::Counter(
      static_cast<double>(instructions) / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["guest_insns"] = static_cast<double>(instructions);
}

vp::MachineConfig cached_config() { return vp::MachineConfig{}; }

// Ablation: TB cache on, but every block returns to central dispatch (no
// chain links, no jump cache follows).
vp::MachineConfig nochain_config() {
  vp::MachineConfig config;
  config.enable_chaining = false;
  return config;
}

vp::MachineConfig interp_config() {
  vp::MachineConfig config;
  config.enable_tb_cache = false;
  return config;
}

// Two-hart SMP: both harts execute the hot kernel under the round-robin
// slice scheduler (the kernel never reads mhartid, so each hart runs the
// full loop; the first exit ecall stops the machine). Measures the
// scheduler + hart-staging overhead on top of BM_TbCached.
vp::MachineConfig smp2_config() {
  vp::MachineConfig config;
  config.num_harts = 2;
  return config;
}

void BM_TbCached(benchmark::State& state) {
  run_emulation(state, cached_config());
}
void BM_TbCachedNoChain(benchmark::State& state) {
  run_emulation(state, nochain_config());
}
void BM_PureInterpreter(benchmark::State& state) {
  run_emulation(state, interp_config());
}
void BM_TbCachedSmp2(benchmark::State& state) {
  run_emulation(state, smp2_config());
}

// Debug subsystem linked but idle: a DebugTarget exists and break/watchpoints
// were used and removed before the timed run. Must be within noise of
// BM_TbCached — breakpoints split translation blocks, so plain execution
// pays only a per-block flag check, never a per-instruction one.
void BM_TbCachedDebugIdle(benchmark::State& state) {
  const assembler::Program program = hot_program();
  u64 instructions = 0;
  for (auto _ : state) {
    vp::Machine machine;
    S4E_CHECK(machine.load_program(program).ok());
    debug::DebugTarget target(machine);
    machine.add_breakpoint(machine.cpu().pc);
    machine.add_watchpoint(0x8000'0000, 4, vp::WatchKind::kWrite);
    machine.clear_breakpoints();
    machine.clear_watchpoints();
    const vp::RunResult result = machine.run();
    S4E_CHECK(result.normal_exit());
    instructions += result.instructions;
    benchmark::DoNotOptimize(result.cycles);
  }
  state.counters["guest_mips"] = benchmark::Counter(
      static_cast<double>(instructions) / 1e6, benchmark::Counter::kIsRate);
}

BENCHMARK(BM_TbCached)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TbCachedNoChain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TbCachedDebugIdle)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PureInterpreter)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TbCachedSmp2)->Unit(benchmark::kMillisecond);

// Per-workload cached emulation speed (smaller binaries, branchier code).
void BM_Workload(benchmark::State& state, const std::string& name) {
  auto workload = core::find_workload(name);
  S4E_CHECK(workload.ok());
  auto program = assembler::assemble(workload->source);
  S4E_CHECK(program.ok());
  u64 instructions = 0;
  // Small RAM keeps VM construction cheap so short workloads measure
  // emulation, not setup.
  vp::MachineConfig config;
  config.ram_size = 256u << 10;
  for (auto _ : state) {
    vp::Machine machine(config);
    S4E_CHECK(machine.load_program(*program).ok());
    const vp::RunResult result = machine.run();
    instructions += result.instructions;
  }
  state.counters["guest_mips"] = benchmark::Counter(
      static_cast<double>(instructions) / 1e6, benchmark::Counter::kIsRate);
}

void register_workload_benches() {
  for (const core::Workload& workload : core::standard_workloads()) {
    benchmark::RegisterBenchmark(
        ("BM_Workload/" + workload.name).c_str(),
        [name = workload.name](benchmark::State& state) {
          BM_Workload(state, name);
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --no-report (CI smoke): run only the selected benchmarks, skip the
  // summary timing passes and leave BENCH_emulation.json untouched.
  bool write_report = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-report") {
      write_report = false;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  register_workload_benches();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!write_report) return 0;

  // Summary for EXPERIMENTS.md and the BENCH_emulation.json trajectory:
  // cached vs uncached factor plus the chained-vs-unchained ablation.
  {
    using namespace s4e;
    const assembler::Program program = hot_program();
    auto time_run = [&](const vp::MachineConfig& config) {
      vp::Machine machine(config);
      S4E_CHECK(machine.load_program(program).ok());
      const auto start = std::chrono::steady_clock::now();
      const vp::RunResult result = machine.run();
      const auto elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      return static_cast<double>(result.instructions) / elapsed / 1e6;
    };
    const double cached = time_run(cached_config());
    const double nochain = time_run(nochain_config());
    const double uncached = time_run(interp_config());
    const double smp2 = time_run(smp2_config());
    std::printf("\n[E1] cached %.1f MIPS (%.1f unchained), "
                "pure-interpreter %.1f MIPS, speedup %.2fx "
                "(chaining alone %.2fx), 2-hart SMP %.1f MIPS\n",
                cached, nochain, uncached, cached / uncached,
                cached / nochain, smp2);
    const Status merged = merge_bench_entry(
        "BENCH_emulation.json", "emulation_speed",
        "{\"kernel\": \"hot_loop\", "
        "\"cached_mips\": " + json_number(cached) +
        ", \"nochain_mips\": " + json_number(nochain) +
        ", \"interp_mips\": " + json_number(uncached) +
        ", \"cached_vs_interp\": " + json_number(cached / uncached) +
        ", \"chain_speedup\": " + json_number(cached / nochain) +
        ", \"smp2_mips\": " + json_number(smp2) +
        ", \"host_cores\": " +
        std::to_string(std::thread::hardware_concurrency()) + "}");
    S4E_CHECK_MSG(merged.ok(), merged.to_string());
    std::printf("  (recorded in BENCH_emulation.json)\n");
  }
  return 0;
}
