// s4e-run — execute an ELF on the virtual prototype.
//
//   s4e-run file.elf [--max-insns N] [--uart-input STR] [--coverage]
//                    [--stats] [--trace[=FILE]] [--trace-limit N]
//                    [--gdb[=PORT]]
//
// --trace emits a structured JSONL event trace (one JSON object per
// instruction / memory access / trap / exit) to FILE, or to stderr when no
// FILE is given, so stdout stays reserved for the run report.
//
// --gdb halts the machine at its entry point and serves one GDB remote
// session on 127.0.0.1:PORT (default 1234; PORT 0 binds an ephemeral port).
// The bound address is announced on stderr. When the debugger detaches (or
// drops) before the program ends, the machine free-runs to completion, so
// --coverage/--trace/--stats still see the whole execution.
//
// Exit code mirrors the guest's exit code on a normal exit; 124 on the
// instruction-budget hang detector; 125 on abnormal stops.
#include <cstdio>

#include "core/profiler.hpp"
#include "coverage/coverage.hpp"
#include "debug/tcp.hpp"
#include "elf/elf32.hpp"
#include "obs/trace.hpp"
#include "tools/tool_util.hpp"
#include "trace/recorder.hpp"
#include "vp/machine.hpp"

namespace {

constexpr char kUsage[] =
    "usage: s4e-run <file.elf> [--harts N] [--slice N] [--max-insns N] "
    "[--uart-input S] [--coverage] [--profile] [--stats] [--trace[=FILE]] "
    "[--trace-limit N] [--trace-bin FILE] [--gdb[=PORT]]\n";

// Serve one GDB session; the machine is halted at entry. Returns false on a
// setup error. On return, `result` holds the final machine stop: either the
// program end observed under the debugger, or — after a detach/drop — the
// result of free-running the rest of the program.
bool serve_gdb(s4e::vp::Machine& machine, const std::string& port_text,
               s4e::vp::RunResult& result, bool& killed) {
  using namespace s4e;
  u16 port = 1234;
  if (!port_text.empty()) {
    auto parsed = parse_integer(port_text);
    if (!parsed.ok() || *parsed < 0 || *parsed > 65535) {
      std::fprintf(stderr, "s4e-run: bad --gdb port '%s'\n",
                   port_text.c_str());
      return false;
    }
    port = static_cast<u16>(*parsed);
  }
  std::string error;
  auto listener = debug::TcpListener::listen_loopback(port, error);
  if (listener == nullptr) {
    std::fprintf(stderr, "s4e-run: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "s4e-run: gdb stub listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(listener->port()));
  auto channel = listener->accept_one(error);
  if (channel == nullptr) {
    std::fprintf(stderr, "s4e-run: %s\n", error.c_str());
    return false;
  }
  debug::DebugTarget target(machine);
  debug::RspServer server(target, *channel);
  const auto outcome = server.serve();
  if (outcome == debug::RspServer::ServeResult::kKilled) {
    killed = true;
    return true;
  }
  if (!server.last_stop().debug_stop()) {
    result = server.last_stop();  // program finished under the debugger
  } else {
    result = machine.run();  // detached / connection lost: free-run the rest
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s4e;
  tools::Args args(argc, argv,
                   {"--harts", "--slice", "--max-insns", "--uart-input",
                    "--trace-limit", "--trace-bin"},
                   {"--coverage", "--profile", "--stats", "--trace", "--gdb"});
  if (const int code = tools::standard_flags(args, "s4e-run", kUsage);
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  auto program = elf::read_elf_file(args.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "s4e-run: %s\n", program.error().to_string().c_str());
    return 1;
  }

  constexpr long long kCount = std::numeric_limits<long long>::max();
  vp::MachineConfig config;
  config.num_harts = static_cast<unsigned>(
      args.integer("--harts", config.num_harts, 1, vp::Clint::kMaxHarts));
  // --slice N: SMP round-robin quantum in instructions. Shorter slices give
  // finer cross-hart interleaving (still fully deterministic); the default
  // matches the engine's chain quantum.
  if (args.has("--slice")) {
    config.smp_slice_quantum =
        static_cast<u64>(args.integer("--slice", 0, 1, kCount));
  }
  if (args.has("--max-insns")) {
    config.max_instructions =
        static_cast<u64>(args.integer("--max-insns", 0, 1, kCount));
  }
  vp::Machine machine(config);
  if (auto status = machine.load_program(*program); !status.ok()) {
    std::fprintf(stderr, "s4e-run: %s\n", status.to_string().c_str());
    return 1;
  }
  if (args.has("--uart-input")) {
    machine.uart()->push_rx(args.value("--uart-input"));
  }

  coverage::CoveragePlugin coverage_plugin;
  if (args.has("--coverage")) coverage_plugin.attach(machine.vm_handle());
  core::ProfilerPlugin profiler;
  if (args.has("--profile")) profiler.attach(machine.vm_handle());

  // --trace=FILE writes the JSONL trace there; bare --trace streams it to
  // stderr (stdout carries the run report and must stay clean).
  std::FILE* trace_file = nullptr;
  std::FILE* trace_sink = stderr;
  if (args.has("--trace")) {
    const std::string trace_path = args.value("--trace");
    if (!trace_path.empty()) {
      trace_file = std::fopen(trace_path.c_str(), "w");
      if (trace_file == nullptr) {
        std::fprintf(stderr, "s4e-run: cannot open trace file '%s'\n",
                     trace_path.c_str());
        return 2;
      }
      trace_sink = trace_file;
    }
  }
  obs::JsonlTracePlugin trace(
      trace_sink,
      static_cast<u64>(args.integer("--trace-limit", 0, 0, kCount)));
  if (args.has("--trace")) trace.attach(machine.vm_handle());

  // --trace-bin FILE records a binary execution trace for the differential
  // replay engine (s4e-qta --replay).
  s4e::trace::TraceRecorder recorder(
      s4e::trace::TraceRecorder::config_for(config, *program));
  if (args.has("--trace-bin")) {
    if (args.value("--trace-bin").empty()) {
      std::fprintf(stderr, "s4e-run: --trace-bin needs a file path\n");
      return 2;
    }
    if (auto status = recorder.attach_checked(machine.vm_handle());
        !status.ok()) {
      std::fprintf(stderr, "s4e-run: %s\n", status.to_string().c_str());
      return 2;
    }
  }

  vp::RunResult result;
  bool killed = false;
  if (args.has("--gdb")) {
    if (!serve_gdb(machine, args.value("--gdb"), result, killed)) return 2;
  } else {
    result = machine.run();
  }
  if (trace_file != nullptr) std::fclose(trace_file);
  if (args.has("--trace-bin") && !killed) {
    const std::string bin_path = args.value("--trace-bin");
    if (auto status = recorder.finish(result, bin_path); !status.ok()) {
      std::fprintf(stderr, "s4e-run: %s\n", status.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "s4e-run: trace-bin wrote %s (%zu stream bytes, %llu "
                 "instructions, %llu taints)\n",
                 bin_path.c_str(), recorder.stream_size(),
                 static_cast<unsigned long long>(recorder.instructions()),
                 static_cast<unsigned long long>(recorder.taints()));
  }
  // debugger issued `k`: not a guest failure
  if (killed) return tools::finish_stdout("s4e-run");

  if (!machine.uart()->tx_log().empty()) {
    std::printf("--- uart ---\n%s--- end uart ---\n",
                machine.uart()->tx_log().c_str());
  }
  if (args.has("--stats")) {
    std::printf("stop     : %s\n",
                std::string(vp::to_string(result.reason)).c_str());
    std::printf("exit     : %d\n", result.exit_code);
    std::printf("insns    : %llu\n",
                static_cast<unsigned long long>(result.instructions));
    std::printf("cycles   : %llu\n",
                static_cast<unsigned long long>(result.cycles));
    std::printf("final pc : 0x%08x\n", result.final_pc);
    if (machine.num_harts() > 1) {
      // Per-hart breakdown: retired instructions plus each hart's share of
      // the engine's block dispatches (single-hart output is unchanged).
      for (unsigned hart = 0; hart < machine.num_harts(); ++hart) {
        const vp::EngineStats& hs = machine.engine_stats(hart);
        std::printf("hart %-4u: %llu insns, %llu fast blocks, "
                    "%llu careful blocks, final pc 0x%08x\n",
                    hart,
                    static_cast<unsigned long long>(machine.hart_icount(hart)),
                    static_cast<unsigned long long>(hs.blocks_fast),
                    static_cast<unsigned long long>(hs.blocks_careful),
                    machine.cpu(hart).pc);
      }
    }
    std::printf("tb-cache : %zu blocks, %llu flushes, %llu dropped, "
                "%llu re-lowered\n",
                machine.tb_cache().size(),
                static_cast<unsigned long long>(
                    machine.tb_cache().flush_count()),
                static_cast<unsigned long long>(
                    machine.tb_cache().invalidated_blocks()),
                static_cast<unsigned long long>(
                    machine.tb_cache().relowered_blocks()));
    const vp::EngineStats& es = machine.engine_stats();
    const vp::TbCache& tc = machine.tb_cache();
    const auto rate = [](u64 hits, u64 misses) {
      const u64 total = hits + misses;
      return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                    static_cast<double>(total);
    };
    std::printf("engine   : %llu fast blocks, %llu careful blocks\n",
                static_cast<unsigned long long>(es.blocks_fast),
                static_cast<unsigned long long>(es.blocks_careful));
    std::printf("careful  : %llu debug, %llu timer, %llu uncached, "
                "%llu boundary\n",
                static_cast<unsigned long long>(es.careful_debug),
                static_cast<unsigned long long>(es.careful_timer),
                static_cast<unsigned long long>(es.careful_uncached),
                static_cast<unsigned long long>(es.careful_boundary));
    std::printf("chains   : %llu linked, %llu followed, %llu severs\n",
                static_cast<unsigned long long>(es.chain_patches),
                static_cast<unsigned long long>(es.chain_follows),
                static_cast<unsigned long long>(tc.chain_severs()));
    std::printf("jump$    : %llu hits, %llu misses (%.1f%%)\n",
                static_cast<unsigned long long>(es.jump_cache_hits),
                static_cast<unsigned long long>(es.jump_cache_misses),
                rate(es.jump_cache_hits, es.jump_cache_misses));
    std::printf("tb-front : %llu front hits, %llu deep hits, %llu misses "
                "(%.1f%% front)\n",
                static_cast<unsigned long long>(tc.front_hits()),
                static_cast<unsigned long long>(tc.deep_hits()),
                static_cast<unsigned long long>(tc.lookup_misses()),
                rate(tc.front_hits(), tc.deep_hits() + tc.lookup_misses()));
  }
  if (args.has("--coverage")) {
    std::printf("%s", coverage::to_report(coverage_plugin.data(),
                                          args.positional()[0])
                          .c_str());
  }
  if (args.has("--profile")) {
    std::printf("%s", profiler.report(*program).c_str());
  }
  // A broken stdout (closed pipe mid-report) overrides the guest's exit
  // code: a truncated report must not look like a clean run.
  if (result.normal_exit()) {
    return tools::finish_stdout("s4e-run", result.exit_code & 0xff);
  }
  if (result.reason == vp::StopReason::kMaxInstructions) {
    return tools::finish_stdout("s4e-run", 124);
  }
  std::fprintf(stderr, "s4e-run: abnormal stop: %s (%s)\n",
               std::string(vp::to_string(result.reason)).c_str(),
               result.detail.c_str());
  return 125;
}
