// E10 — binary mutation analysis (the XEMU flow, EMSOFT'12 / DSN'12).
//
// Reproducible shape: systematic binary mutants of the workloads are mostly
// killed by the workloads' built-in result checks; kill rates differ per
// mutation operator; removing the self-check collapses the score — the
// metric that drives test-suite improvement in the original flow. Dynamic-
// translation execution keeps whole campaigns in the thousands-of-runs-per-
// second range (XEMU's headline over interpretation).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "bench/fresh_campaign.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "core/workloads.hpp"
#include "elf/elf32.hpp"
#include "fleet/orchestrator.hpp"
#include "mutation/mutation.hpp"
#include "testgen/testgen.hpp"

namespace {

bool identical_scores(const s4e::mutation::MutationScore& a,
                      const s4e::mutation::MutationScore& b) {
  if (a.results.size() != b.results.size()) return false;
  for (unsigned i = 0; i < 4; ++i) {
    if (a.verdict_counts[i] != b.verdict_counts[i]) return false;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& ra = a.results[i];
    const auto& rb = b.results[i];
    if (ra.verdict != rb.verdict || ra.exit_code != rb.exit_code ||
        ra.mutant.address != rb.mutant.address ||
        ra.mutant.mutated != rb.mutant.mutated) {
      return false;
    }
  }
  return true;
}

// Static triage ablation: the same campaign with triage off and on, over
// three standard workloads and one no-CSR torture program (the shape that
// carries most of the mutation benchmark's prunes). The triage contract is
// checked here, not just timed — pruned mutants must report kSurvived, and
// every non-pruned result must be bit-identical to the untriaged run.
// Each cell is the median of `reps` timings, off and on taking turns, next
// to the median StaticTriage::build time and the per-mutant decide time.
// `write_report` off is the ctest smoke mode (bench.triage_smoke): one
// pass, no BENCH_campaign.json write.
void run_triage_section(bool write_report) {
  using namespace s4e;
  const unsigned reps = write_report ? 7 : 1;
  std::printf("\n[E10-triage] static equivalent-mutant pruning "
              "(triage off vs on, medians of %u):\n", reps);
  std::printf("  %-12s %8s %7s %9s %9s %8s %9s %10s\n", "workload", "mutants",
              "pruned", "off r/s", "on r/s", "speedup", "build ms",
              "decide us");

  struct Subject {
    std::string name;
    std::string source;
  };
  std::vector<Subject> subjects;
  for (const char* name : {"callchain", "pid", "checksum"}) {
    auto workload = core::find_workload(name);
    S4E_CHECK(workload.ok());
    subjects.push_back({name, workload->source});
  }
  testgen::TortureConfig torture;
  torture.programs = 1;
  torture.segments = 60;
  torture.use_csr = false;
  for (testgen::GeneratedProgram& generated : testgen::torture_suite(torture)) {
    subjects.push_back({generated.name, std::move(generated.source)});
  }

  const auto seconds_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const auto median = [](std::vector<double> timings) {
    std::sort(timings.begin(), timings.end());
    return timings[timings.size() / 2];
  };

  std::string rows;
  for (const Subject& subject : subjects) {
    const char* name = subject.name.c_str();
    auto program = assembler::assemble(subject.source);
    S4E_CHECK_MSG(program.ok(), name);

    std::vector<double> off_timings, on_timings, build_timings, decide_timings;
    double runs = 0;
    u64 pruned = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
      mutation::MutationConfig config;
      auto start = std::chrono::steady_clock::now();
      auto off = mutation::MutationCampaign(*program, config).run();
      off_timings.push_back(seconds_since(start));
      config.triage = dataflow::TriageMode::kOn;
      start = std::chrono::steady_clock::now();
      auto on = mutation::MutationCampaign(*program, config).run();
      on_timings.push_back(seconds_since(start));
      S4E_CHECK_MSG(off.ok() && on.ok(), name);

      S4E_CHECK(off->results.size() == on->results.size());
      std::vector<mutation::Mutant> mutants;
      for (std::size_t i = 0; i < off->results.size(); ++i) {
        const auto& base = off->results[i];
        const auto& triaged = on->results[i];
        S4E_CHECK(base.mutant.address == triaged.mutant.address &&
                  base.mutant.mutated == triaged.mutant.mutated);
        if (triaged.pruned) {
          S4E_CHECK_MSG(triaged.verdict == mutation::Verdict::kSurvived, name);
        } else {
          S4E_CHECK_MSG(base.verdict == triaged.verdict &&
                            base.exit_code == triaged.exit_code,
                        name);
        }
        mutants.push_back(base.mutant);
      }
      runs = static_cast<double>(off->results.size());
      pruned = on->pruned_count;

      // The triage's own two phases, as the campaign driver runs them.
      dataflow::TriageOptions options;
      options.stack_top = config.machine.ram_base + config.machine.ram_size;
      start = std::chrono::steady_clock::now();
      auto triage = dataflow::StaticTriage::build(*program, options);
      build_timings.push_back(seconds_since(start));
      S4E_CHECK_MSG(triage.ok(), name);
      const mutation::MutationModel model(*program, config);
      start = std::chrono::steady_clock::now();
      const auto decisions = model.decide(*triage, mutants);
      decide_timings.push_back(seconds_since(start));
      u64 decided = 0;
      for (const auto& decision : decisions) decided += decision.pruned;
      S4E_CHECK_MSG(decided == pruned, name);
    }

    const double off_seconds = median(off_timings);
    const double on_seconds = median(on_timings);
    const double build_ms = median(build_timings) * 1e3;
    const double decide_us = median(decide_timings) * 1e6 / std::max(runs, 1.0);
    std::printf("  %-12s %8.0f %7llu %9.0f %9.0f %7.2fx %9.3f %10.3f\n", name,
                runs, static_cast<unsigned long long>(pruned),
                runs / off_seconds, runs / on_seconds, off_seconds / on_seconds,
                build_ms, decide_us);
    if (!rows.empty()) rows += ", ";
    rows += format("{\"workload\": \"%s\", \"mutants\": %.0f, "
                   "\"pruned\": %llu, \"pruned_fraction\": %s, "
                   "\"off_runs_per_s\": %s, \"on_runs_per_s\": %s, "
                   "\"build_ms\": %s, \"decide_us\": %s, "
                   "\"reps\": %u, \"stat\": \"median\", "
                   "\"host_cores\": %u}",
                   name, runs, static_cast<unsigned long long>(pruned),
                   json_number(pruned / runs, 4).c_str(),
                   json_number(runs / off_seconds).c_str(),
                   json_number(runs / on_seconds).c_str(),
                   json_number(build_ms, 3).c_str(),
                   json_number(decide_us, 3).c_str(), reps,
                   std::thread::hardware_concurrency());
  }
  if (write_report) {
    const Status merged = merge_bench_entry(
        "BENCH_campaign.json", "mutation_triage", "[" + rows + "]");
    S4E_CHECK_MSG(merged.ok(), merged.to_string());
    std::printf("  (recorded in BENCH_campaign.json)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s4e;

  // bench.triage_smoke runs only the triage contract check (no report).
  if (argc > 1 && std::string(argv[1]) == "--triage-only") {
    run_triage_section(/*write_report=*/false);
    return 0;
  }

  std::printf("[E10] binary mutation analysis of the standard workloads\n\n");
  std::printf("%-12s %8s %8s %9s %9s %9s %10s %9s\n", "workload", "mutants",
              "score", "result", "crash", "hang", "surviving", "runs/s");
  std::printf("%s\n", std::string(82, '-').c_str());

  double total_runs = 0;
  double total_seconds = 0;
  for (const core::Workload& workload : core::standard_workloads()) {
    auto program = assembler::assemble(workload.source);
    S4E_CHECK(program.ok());
    mutation::MutationConfig config;
    mutation::MutationCampaign campaign(*program, config);
    const auto start = std::chrono::steady_clock::now();
    auto score = campaign.run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    S4E_CHECK_MSG(score.ok(), workload.name);
    total_runs += static_cast<double>(score->results.size());
    total_seconds += seconds;
    std::printf("%-12s %8zu %7.1f%% %8.1f%% %8.1f%% %8.1f%% %10llu %9.0f\n",
                workload.name.c_str(), score->results.size(),
                100.0 * score->score(),
                100.0 * score->count(mutation::Verdict::kKilledResult) /
                    score->results.size(),
                100.0 * score->count(mutation::Verdict::kKilledCrash) /
                    score->results.size(),
                100.0 * score->count(mutation::Verdict::kKilledHang) /
                    score->results.size(),
                static_cast<unsigned long long>(
                    score->count(mutation::Verdict::kSurvived)),
                score->results.size() / seconds);
  }
  std::printf("%s\n", std::string(82, '-').c_str());
  std::printf("aggregate: %.0f mutant runs in %.2f s (%.0f runs/s)\n\n",
              total_runs, total_seconds, total_runs / total_seconds);

  // Per-operator breakdown on one workload.
  {
    auto workload = core::find_workload("crc32");
    S4E_CHECK(workload.ok());
    auto program = assembler::assemble(workload->source);
    S4E_CHECK(program.ok());
    mutation::MutationCampaign campaign(*program, {});
    auto score = campaign.run();
    S4E_CHECK(score.ok());
    std::printf("[E10] crc32 per-operator kill rates:\n");
    for (unsigned i = 0; i < 3; ++i) {
      const auto op = static_cast<mutation::Operator>(i);
      std::printf("  %-15s : %.1f%%\n",
                  std::string(mutation::to_string(op)).c_str(),
                  100.0 * score->score(op));
    }
    std::printf("\n[E10] surviving crc32 mutants (verification gaps):\n");
    unsigned shown = 0;
    for (const auto& result : score->results) {
      if (result.verdict != mutation::Verdict::kSurvived) continue;
      if (++shown > 6) break;
      std::printf("  0x%08x  %s\n", result.mutant.address,
                  result.mutant.description.c_str());
    }
  }

  // Oracle-strength ablation: bubble_sort with its sortedness check vs the
  // same sort with the check removed.
  {
    auto checked_workload = core::find_workload("bubble_sort");
    S4E_CHECK(checked_workload.ok());
    std::string unchecked_source = checked_workload->source;
    // Drop the verification loop: jump straight to the success exit.
    const std::string check_marker = "    la t1, array\n    li s3, 7\ncheck:";
    const auto pos = unchecked_source.find(check_marker);
    S4E_CHECK(pos != std::string::npos);
    unchecked_source.insert(pos, "    li a0, 0\n    li a7, 93\n    ecall\n");

    auto checked = assembler::assemble(checked_workload->source);
    auto unchecked = assembler::assemble(unchecked_source);
    S4E_CHECK(checked.ok() && unchecked.ok());
    mutation::MutationCampaign checked_campaign(*checked, {});
    mutation::MutationCampaign unchecked_campaign(*unchecked, {});
    auto checked_score = checked_campaign.run();
    auto unchecked_score = unchecked_campaign.run();
    S4E_CHECK(checked_score.ok() && unchecked_score.ok());
    std::printf("\n[E10-ablation] bubble_sort mutation score: with "
                "self-check %.1f%%, without %.1f%%\n",
                100.0 * checked_score->score(),
                100.0 * unchecked_score->score());
    std::printf("(the in-guest oracle is what turns silent corruptions into "
                "kills)\n");
  }

  // Fresh-vs-reuse x serial-vs-parallel matrix: the campaign's per-worker
  // machine reuse (snapshot once, dirty-page restore + patch per mutant)
  // against a fresh machine per mutant (bench/fresh_campaign), at jobs=1
  // and jobs=hw. All four scores must be bit-identical. Each cell reports
  // the median of `reps` timings, the four cells taking turns.
  {
    constexpr unsigned reps = 7;
    // Floor at 2 so the pooled path is exercised even on a 1-core host
    // (there the comparison degenerates to ~1.0x, as expected).
    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    auto workload = core::find_workload("bubble_sort");
    S4E_CHECK(workload.ok());
    auto program = assembler::assemble(workload->source);
    S4E_CHECK(program.ok());

    struct Cell {
      const char* name;
      unsigned jobs;
      bool reuse;
      double seconds = 0;
      mutation::MutationScore score;
      std::vector<double> timings;
    } cells[] = {
        {"fresh serial", 1, false, 0, {}, {}},
        {"reuse serial", 1, true, 0, {}, {}},
        {"fresh parallel", hw, false, 0, {}, {}},
        {"reuse parallel", hw, true, 0, {}, {}},
    };
    for (unsigned rep = 0; rep < reps; ++rep) {
      for (Cell& cell : cells) {
        mutation::MutationConfig config;
        config.jobs = cell.jobs;
        const auto start = std::chrono::steady_clock::now();
        if (cell.reuse) {
          auto score = mutation::MutationCampaign(*program, config).run();
          S4E_CHECK_MSG(score.ok(), cell.name);
          cell.score = std::move(*score);
        } else {
          cell.score = bench::fresh_campaign(
              mutation::MutationModel(*program, config), cell.jobs);
        }
        cell.timings.push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
      }
    }
    for (Cell& cell : cells) {
      std::sort(cell.timings.begin(), cell.timings.end());
      cell.seconds = cell.timings[reps / 2];
    }
    const double runs = static_cast<double>(cells[0].score.results.size());
    std::printf("\n[E10-reuse] bubble_sort, %.0f mutants, fresh vs reused "
                "machines, jobs 1 and %u (medians of %u):\n",
                runs, hw, reps);
    bool all_identical = true;
    for (const Cell& cell : cells) {
      std::printf("  %-15s (jobs=%-2u): %6.2f s  (%7.0f runs/s)\n",
                  cell.name, cell.jobs, cell.seconds, runs / cell.seconds);
      all_identical &= identical_scores(cells[0].score, cell.score);
    }
    const auto& stats = cells[1].score.snapshot_stats;
    std::printf("  reuse speedup: %.2fx serial, %.2fx parallel   "
                "scores bit-identical: %s\n",
                cells[0].seconds / cells[1].seconds,
                cells[2].seconds / cells[3].seconds,
                all_identical ? "yes" : "NO");
    std::printf("  serial reuse %s\n", stats.to_string().c_str());
    S4E_CHECK(all_identical);

    const Status merged = merge_bench_entry(
        "BENCH_campaign.json", "mutation",
        format("{\"workload\": \"bubble_sort\", \"mutants\": %.0f, "
               "\"jobs\": %u, "
               "\"fresh_serial_runs_per_s\": %s, "
               "\"reuse_serial_runs_per_s\": %s, "
               "\"fresh_parallel_runs_per_s\": %s, "
               "\"reuse_parallel_runs_per_s\": %s, "
               "\"reuse_serial_speedup\": %s, "
               "\"pages_copied_fraction\": %s, "
               "\"reps\": %u, \"stat\": \"median\", "
               "\"host_cores\": %u}",
               runs, hw,
               json_number(runs / cells[0].seconds).c_str(),
               json_number(runs / cells[1].seconds).c_str(),
               json_number(runs / cells[2].seconds).c_str(),
               json_number(runs / cells[3].seconds).c_str(),
               json_number(cells[0].seconds / cells[1].seconds)
                   .c_str(),
               json_number(stats.pages_total == 0
                                      ? 0.0
                                      : static_cast<double>(
                                            stats.pages_copied) /
                                            static_cast<double>(
                                                stats.pages_total),
                                  6)
                   .c_str(),
               reps, std::thread::hardware_concurrency()));
    S4E_CHECK_MSG(merged.ok(), merged.to_string());
    std::printf("  (recorded in BENCH_campaign.json)\n");
  }

  // Fleet-vs-thread: the full bubble_sort mutation campaign sharded across
  // worker processes (the s4e-campaignd engine) against the in-process
  // thread pool, with the byte-identity contract checked live.
  {
    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    auto workload = core::find_workload("bubble_sort");
    S4E_CHECK(workload.ok());
    auto program = assembler::assemble(workload->source);
    S4E_CHECK(program.ok());

    mutation::MutationConfig config;
    config.jobs = hw;
    mutation::MutationCampaign thread_campaign(*program, config);
    auto start = std::chrono::steady_clock::now();
    auto threaded = thread_campaign.run();
    const double thread_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    S4E_CHECK(threaded.ok());
    const double runs = static_cast<double>(threaded->results.size());
    std::printf("\n[E10-fleet] bubble_sort, %.0f mutants, process fleet vs "
                "thread pool (%u workers / jobs):\n",
                runs, hw);

    const std::string elf_path = "bench_fleet_mutation.elf";
    S4E_CHECK(elf::write_elf_file(*program, elf_path).ok());
    fleet::FleetOptions options;
    options.elf_path = elf_path;
    options.worker_path = std::string(S4E_TOOL_DIR) + "/s4e-mutate";
    options.spec = campaign::spec_argv<mutation::MutationModel>(config);
    options.workers = hw;
    options.shards = hw;
    start = std::chrono::steady_clock::now();
    auto fleet_run = fleet::run_fleet<mutation::MutationModel>(options);
    const double fleet_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    S4E_CHECK(fleet_run.ok());
    std::remove(elf_path.c_str());
    const bool identical = fleet_run->report == threaded->to_string();
    std::printf("  thread pool   (jobs=%-2u)   : %6.2f s  (%7.0f runs/s)\n",
                hw, thread_seconds, runs / thread_seconds);
    std::printf("  process fleet (workers=%-2u): %6.2f s  (%7.0f runs/s)\n",
                hw, fleet_seconds, runs / fleet_seconds);
    std::printf("  reports byte-identical: %s\n", identical ? "yes" : "NO");
    S4E_CHECK(identical);

    const Status merged = merge_bench_entry(
        "BENCH_campaign.json", "mutation_fleet",
        format("{\"workload\": \"bubble_sort\", \"mutants\": %.0f, "
               "\"workers\": %u, "
               "\"thread_runs_per_s\": %s, "
               "\"fleet_runs_per_s\": %s, "
               "\"fleet_vs_thread\": %s, "
               "\"host_cores\": %u}",
               runs, hw,
               json_number(runs / thread_seconds).c_str(),
               json_number(runs / fleet_seconds).c_str(),
               json_number(thread_seconds / fleet_seconds).c_str(),
               std::thread::hardware_concurrency()));
    S4E_CHECK_MSG(merged.ok(), merged.to_string());
    std::printf("  (recorded in BENCH_campaign.json)\n");
  }

  run_triage_section(/*write_report=*/true);
  return 0;
}
