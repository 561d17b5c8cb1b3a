// s4e-qta — the QEMU Timing Analyzer reproduction as a standalone tool:
// load a binary *and* its WCET-annotated CFG (from s4e-wcet, the ait2qta
// stand-in) and co-simulate them, reporting the three ordered timelines.
//
//   s4e-qta file.elf file.qtacfg [--uart-input S] [--record trace.bin]
//
// --record captures a binary execution trace (src/trace format) alongside
// the co-simulation — the capture half of capture-once / replay-many.
//
// Replay mode evaluates one recorded trace under a whole matrix of timing
// configurations without re-executing the program: for every configuration
// it runs the static WCET analysis, charges the trace's decoded event
// profile, accumulates the worst-case time of the recorded path, and
// asserts the QTA chain  observed <= WC(path) <= bound  per configuration:
//
//   s4e-qta file.elf --replay trace.bin [--models all|baseline] [--jobs N]
//
// Exit status: 0 when the chain holds (in replay mode, for every
// configuration), 1 when it is broken — observed > WC path, WC path > bound,
// or an executed region the annotation does not cover — or on an error
// reading or running the inputs, 2 on a usage error.
#include <cstdio>
#include <vector>

#include "elf/elf32.hpp"
#include "exec/campaign_executor.hpp"
#include "qta/qta.hpp"
#include "tools/tool_util.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "vp/machine.hpp"
#include "wcet/analyzer.hpp"

namespace {

constexpr char kUsage[] =
    "usage: s4e-qta <file.elf> <file.qtacfg> [--uart-input S] "
    "[--record FILE]\n"
    "       s4e-qta <file.elf> --replay FILE [--models all|baseline] "
    "[--jobs N]\n";

struct ReplayRow {
  std::string name;
  s4e::trace::ReplayResult replay;
  s4e::qta::QtaReport report;
  std::string error;  // per-config failure (analysis, replay)
};

int replay_main(const s4e::assembler::Program& program,
                const s4e::tools::Args& args) {
  using namespace s4e;
  auto loaded = trace::Trace::load(args.value("--replay"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "s4e-qta: %s\n", loaded.error().to_string().c_str());
    return 1;
  }
  const trace::Trace& tr = *loaded;
  if (auto status = trace::check_replayable(
          tr, trace::program_fingerprint(program));
      !status.ok()) {
    std::fprintf(stderr, "s4e-qta: %s\n", status.to_string().c_str());
    return 1;
  }
  // The trace's built-in end-to-end check: replaying the recording
  // configuration must land exactly on the live run's cycle count.
  if (auto status = trace::self_check(tr); !status.ok()) {
    std::fprintf(stderr, "s4e-qta: %s\n", status.to_string().c_str());
    return 1;
  }

  std::vector<trace::NamedTiming> configs = trace::timing_matrix();
  const std::string models = args.value("--models", "all");
  if (models == "baseline") {
    configs.resize(1);  // matrix[0] is the all-features-off base
  } else if (models != "all") {
    std::fprintf(stderr, "s4e-qta: --models expects 'all' or 'baseline'\n");
    return 2;
  }
  const auto jobs = static_cast<unsigned>(args.integer("--jobs", 0, 0, 4096));

  std::printf("replay: %llu instructions, %llu blocks, recorded %llu cycles "
              "(fingerprint %016llx)\n",
              static_cast<unsigned long long>(tr.footer().instructions),
              static_cast<unsigned long long>(tr.footer().blocks),
              static_cast<unsigned long long>(tr.footer().recorded_cycles),
              static_cast<unsigned long long>(tr.header().fingerprint));

  // Decode the event stream once; every configuration charges the shared
  // read-only decoded profile (capture once, decode once, replay many).
  auto decoded = trace::DecodedTrace::decode(tr);
  if (!decoded.ok()) {
    std::fprintf(stderr, "s4e-qta: %s\n", decoded.error().to_string().c_str());
    return 1;
  }

  // Fan the configurations out: each worker runs the per-config static
  // analysis, then replays the shared read-only trace through it.
  std::vector<ReplayRow> rows(configs.size());
  exec::CampaignExecutor(jobs).run_affine(
      configs.size(), [&](unsigned, std::size_t i) {
        ReplayRow& row = rows[i];
        row.name = configs[i].name;
        wcet::AnalyzerOptions options;
        options.timing = configs[i].params;
        options.program_name = row.name;
        auto analysis = wcet::Analyzer(options).analyze(program);
        if (!analysis.ok()) {
          row.error = analysis.error().to_string();
          return;
        }
        analysis->annotated.reindex();
        qta::PathAccumulator path(analysis->annotated);
        auto replayed = trace::replay(*decoded, configs[i].params,
                                      [&path](u32 pc) { path.step(pc); });
        if (!replayed.ok()) {
          row.error = replayed.error().to_string();
          return;
        }
        row.replay = *replayed;
        row.report = path.report(replayed->cycles);
      });

  std::printf("%-40s %12s %12s %12s %7s %7s %6s\n", "config", "observed",
              "wc-path", "bound", "icmiss", "mispred", "chain");
  int failures = 0;
  for (const ReplayRow& row : rows) {
    if (!row.error.empty()) {
      std::printf("%-40s FAILED: %s\n", row.name.c_str(), row.error.c_str());
      ++failures;
      continue;
    }
    const bool chain_ok = row.report.chain_ok();
    if (!chain_ok) ++failures;
    std::printf("%-40s %12llu %12llu %12llu %7llu %7llu %6s\n",
                row.name.c_str(),
                static_cast<unsigned long long>(row.report.observed_cycles),
                static_cast<unsigned long long>(row.report.wc_path_cycles),
                static_cast<unsigned long long>(row.report.static_bound),
                static_cast<unsigned long long>(row.replay.icache_misses),
                static_cast<unsigned long long>(row.replay.mispredicts),
                chain_ok ? "ok" : "VIOLATED");
  }
  if (failures != 0) {
    std::fprintf(stderr, "s4e-qta: %d of %zu configurations failed\n",
                 failures, rows.size());
  }
  return s4e::tools::finish_stdout("s4e-qta", failures != 0 ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s4e;
  tools::Args args(argc, argv,
                   {"--uart-input", "--record", "--replay", "--models",
                    "--jobs"});
  if (const int code = tools::standard_flags(args, "s4e-qta", kUsage);
      code >= 0) {
    return code;
  }
  if (args.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  auto program = elf::read_elf_file(args.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "s4e-qta: %s\n", program.error().to_string().c_str());
    return 1;
  }

  if (args.has("--replay")) {
    return replay_main(*program, args);
  }

  if (args.positional().size() < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  auto cfg_text = tools::read_file(args.positional()[1]);
  if (!cfg_text.ok()) {
    std::fprintf(stderr, "s4e-qta: %s\n",
                 cfg_text.error().to_string().c_str());
    return 1;
  }
  auto annotated = wcet::AnnotatedCfg::parse(*cfg_text);
  if (!annotated.ok()) {
    std::fprintf(stderr, "s4e-qta: %s\n",
                 annotated.error().to_string().c_str());
    return 1;
  }
  if (annotated->entry != program->entry) {
    std::fprintf(stderr,
                 "s4e-qta: annotated CFG entry 0x%08x does not match ELF "
                 "entry 0x%08x\n",
                 annotated->entry, program->entry);
    return 1;
  }

  vp::MachineConfig config;
  vp::Machine machine(config);
  if (auto status = machine.load_program(*program); !status.ok()) {
    std::fprintf(stderr, "s4e-qta: %s\n", status.to_string().c_str());
    return 1;
  }
  if (args.has("--uart-input")) {
    machine.uart()->push_rx(args.value("--uart-input"));
  }
  qta::QtaPlugin plugin(*annotated);
  plugin.attach(machine.vm_handle());

  trace::TraceRecorder recorder(
      trace::TraceRecorder::config_for(config, *program));
  if (args.has("--record")) {
    if (auto status = recorder.attach_checked(machine.vm_handle());
        !status.ok()) {
      std::fprintf(stderr, "s4e-qta: %s\n", status.to_string().c_str());
      return 2;
    }
  }

  const vp::RunResult result = machine.run();
  std::printf("run: reason=%s exit=%d, %llu instructions\n",
              std::string(vp::to_string(result.reason)).c_str(),
              result.exit_code,
              static_cast<unsigned long long>(result.instructions));
  if (args.has("--record")) {
    const std::string path = args.value("--record");
    if (auto status = recorder.finish(result, path); !status.ok()) {
      std::fprintf(stderr, "s4e-qta: %s\n", status.to_string().c_str());
      return 1;
    }
    std::printf("record: wrote %s (%zu stream bytes, %llu instructions, "
                "%llu taints)\n",
                path.c_str(), recorder.stream_size(),
                static_cast<unsigned long long>(recorder.instructions()),
                static_cast<unsigned long long>(recorder.taints()));
  }
  const qta::QtaReport report = plugin.report(result.cycles);
  std::printf("%s", report.to_string().c_str());
  return tools::finish_stdout("s4e-qta", report.chain_ok() ? 0 : 1);
}
