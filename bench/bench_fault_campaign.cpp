// E5 — fault-effect analysis at scale (MBMV'20): bit-flip campaigns across
// the standard workloads. Reproducible shape:
//   * every mutant is classified masked / sdc / crash / hang,
//   * a large masked fraction ("normal termination though executed on a
//     faulty hardware model" — the paper's subjects for further
//     investigation),
//   * the VP sustains a high mutant-simulation throughput, scaling to
//     thousands of mutants,
//   * coverage-directed fault lists raise the informative (non-masked)
//     fraction vs blind injection (ablation).
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/fresh_campaign.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "core/ecosystem.hpp"
#include "core/workloads.hpp"
#include "elf/elf32.hpp"
#include "fleet/orchestrator.hpp"

namespace {

// Byte-for-byte equality of two campaign results (the executor's
// determinism guarantee: parallel == serial, including the FP sum).
bool identical_results(const s4e::fault::CampaignResult& a,
                       const s4e::fault::CampaignResult& b) {
  if (a.golden_exit_code != b.golden_exit_code ||
      a.golden_instructions != b.golden_instructions ||
      a.golden_uart != b.golden_uart ||
      a.golden_memory_hash != b.golden_memory_hash ||
      a.simulated_instructions != b.simulated_instructions ||
      a.mutants.size() != b.mutants.size()) {
    return false;
  }
  for (unsigned i = 0; i < 4; ++i) {
    if (a.outcome_counts[i] != b.outcome_counts[i]) return false;
  }
  for (std::size_t i = 0; i < a.mutants.size(); ++i) {
    const auto& ma = a.mutants[i];
    const auto& mb = b.mutants[i];
    if (ma.outcome != mb.outcome || ma.exit_code != mb.exit_code ||
        ma.instructions != mb.instructions ||
        ma.spec.to_string() != mb.spec.to_string()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace s4e;
  core::Ecosystem ecosystem;

  constexpr unsigned kMutants = 400;
  std::printf("[E5] fault campaigns (%u mutants per workload, "
              "coverage-directed)\n\n",
              kMutants);
  std::printf("%-12s %7s %7s %7s %7s %10s %12s\n", "workload", "masked",
              "sdc", "crash", "hang", "mutants/s", "guest-MIPS");
  std::printf("%s\n", std::string(70, '-').c_str());

  double total_mutants = 0;
  double total_seconds = 0;
  for (const core::Workload& workload : core::standard_workloads()) {
    auto program = ecosystem.build(workload);
    S4E_CHECK(program.ok());
    fault::CampaignConfig config;
    config.seed = 0x5ca1e4ed;
    config.mutant_count = kMutants;

    const auto start = std::chrono::steady_clock::now();
    auto result = ecosystem.run_campaign(*program, config);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    S4E_CHECK_MSG(result.ok(), workload.name);
    total_mutants += static_cast<double>(result->mutants.size());
    total_seconds += seconds;

    std::printf("%-12s %6.1f%% %6.1f%% %6.1f%% %6.1f%% %10.0f %12.1f\n",
                workload.name.c_str(),
                100.0 * result->count(fault::Outcome::kMasked) / kMutants,
                100.0 * result->count(fault::Outcome::kSdc) / kMutants,
                100.0 * result->count(fault::Outcome::kCrash) / kMutants,
                100.0 * result->count(fault::Outcome::kHang) / kMutants,
                kMutants / seconds,
                result->simulated_instructions / seconds / 1e6);
  }
  std::printf("%s\n", std::string(70, '-').c_str());
  std::printf("aggregate: %.0f mutants in %.2f s (%.0f mutants/s)\n\n",
              total_mutants, total_seconds, total_mutants / total_seconds);

  // Ablation: coverage-directed vs blind on one workload.
  auto workload = core::find_workload("crc32");
  S4E_CHECK(workload.ok());
  auto program = ecosystem.build(*workload);
  S4E_CHECK(program.ok());
  fault::CampaignConfig config;
  config.seed = 99;
  config.mutant_count = 600;
  auto directed = ecosystem.run_campaign(*program, config);
  config.coverage_directed = false;
  auto blind = ecosystem.run_campaign(*program, config);
  S4E_CHECK(directed.ok() && blind.ok());
  auto informative = [&](const fault::CampaignResult& r) {
    return 100.0 *
           (1.0 - static_cast<double>(r.count(fault::Outcome::kMasked)) /
                      static_cast<double>(r.mutants.size()));
  };
  std::printf("[E5-ablation] crc32, 600 mutants: informative faults "
              "directed %.1f%% vs blind %.1f%%\n",
              informative(*directed), informative(*blind));

  // Scaling: campaign size sweep (demonstrates linear scaling, the paper's
  // "scales to more complex scenarios" claim).
  std::printf("\n[E5-scaling] campaign size sweep on bubble_sort:\n");
  auto sort_workload = core::find_workload("bubble_sort");
  S4E_CHECK(sort_workload.ok());
  auto sort_program = ecosystem.build(*sort_workload);
  S4E_CHECK(sort_program.ok());
  for (unsigned mutants : {100u, 400u, 1600u}) {
    fault::CampaignConfig sweep;
    sweep.seed = 7;
    sweep.mutant_count = mutants;
    const auto start = std::chrono::steady_clock::now();
    auto result = ecosystem.run_campaign(*sort_program, sweep);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    S4E_CHECK(result.ok());
    std::printf("  %5u mutants: %6.2f s  (%7.0f mutants/s)\n", mutants,
                seconds, mutants / seconds);
  }

  // Fresh-vs-reuse x serial-vs-parallel matrix on one workload: the
  // campaign's per-worker machine reuse (snapshot once, dirty-page restore
  // per mutant) against a fresh machine per mutant (bench/fresh_campaign),
  // at jobs=1 and jobs=hw. All four results must be bit-identical.
  {
    // Floor at 2 so the pooled path is exercised even on a 1-core host
    // (there the comparison degenerates to ~1.0x, as expected).
    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    std::printf("\n[E5-reuse] bubble_sort, 800 mutants, fresh vs reused "
                "machines, jobs 1 and %u:\n",
                hw);
    fault::CampaignConfig par;
    par.seed = 0x5ca1e4ed;
    par.mutant_count = 800;

    struct Cell {
      const char* name;
      unsigned jobs;
      bool reuse;
      double seconds = 0;
      fault::CampaignResult result;
    } cells[] = {
        {"fresh serial", 1, false, 0, {}},
        {"reuse serial", 1, true, 0, {}},
        {"fresh parallel", hw, false, 0, {}},
        {"reuse parallel", hw, true, 0, {}},
    };
    par.machine = ecosystem.machine_config();
    for (Cell& cell : cells) {
      par.jobs = cell.jobs;
      const auto start = std::chrono::steady_clock::now();
      if (cell.reuse) {
        auto result = fault::Campaign(*sort_program, par).run();
        S4E_CHECK_MSG(result.ok(), cell.name);
        cell.result = std::move(*result);
      } else {
        cell.result = bench::fresh_campaign(
            fault::FaultModel(*sort_program, par), cell.jobs);
      }
      cell.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    }
    bool all_identical = true;
    for (const Cell& cell : cells) {
      std::printf("  %-15s (jobs=%-2u): %6.2f s  (%7.0f mutants/s)\n",
                  cell.name, cell.jobs, cell.seconds,
                  par.mutant_count / cell.seconds);
      all_identical &= identical_results(cells[0].result, cell.result);
    }
    const auto& stats = cells[1].result.snapshot_stats;
    std::printf("  reuse speedup: %.2fx serial, %.2fx parallel   "
                "results bit-identical: %s\n",
                cells[0].seconds / cells[1].seconds,
                cells[2].seconds / cells[3].seconds,
                all_identical ? "yes" : "NO");
    std::printf("  serial reuse %s\n", stats.to_string().c_str());
    S4E_CHECK(all_identical);

    const Status merged = merge_bench_entry(
        "BENCH_campaign.json", "fault_campaign",
        format("{\"workload\": \"bubble_sort\", \"mutants\": %u, "
               "\"jobs\": %u, "
               "\"fresh_serial_mutants_per_s\": %s, "
               "\"reuse_serial_mutants_per_s\": %s, "
               "\"fresh_parallel_mutants_per_s\": %s, "
               "\"reuse_parallel_mutants_per_s\": %s, "
               "\"reuse_serial_speedup\": %s, "
               "\"pages_copied_fraction\": %s, "
               "\"host_cores\": %u}",
               par.mutant_count, hw,
               json_number(par.mutant_count / cells[0].seconds)
                   .c_str(),
               json_number(par.mutant_count / cells[1].seconds)
                   .c_str(),
               json_number(par.mutant_count / cells[2].seconds)
                   .c_str(),
               json_number(par.mutant_count / cells[3].seconds)
                   .c_str(),
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
               std::thread::hardware_concurrency()));
    S4E_CHECK_MSG(merged.ok(), merged.to_string());
    std::printf("  (recorded in BENCH_campaign.json)\n");
  }

  // Fleet-vs-thread: the same campaign sharded across worker *processes*
  // (the s4e-campaignd engine, one worker binary per shard) against the
  // in-process thread pool. Beyond the throughput row, this is a live
  // check of the fleet's headline contract: the merged report must be
  // byte-identical to the in-process campaign's.
  {
    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    constexpr unsigned kFleetMutants = 800;
    std::printf("\n[E5-fleet] bubble_sort, %u mutants, process fleet vs "
                "thread pool (%u workers / jobs):\n",
                kFleetMutants, hw);
    fault::CampaignConfig config;
    config.seed = 0x5ca1e4ed;
    config.mutant_count = kFleetMutants;
    config.jobs = hw;
    fault::Campaign thread_campaign(*sort_program, config);
    auto start = std::chrono::steady_clock::now();
    auto threaded = thread_campaign.run();
    const double thread_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    S4E_CHECK(threaded.ok());

    const std::string elf_path = "bench_fleet_fault.elf";
    S4E_CHECK(elf::write_elf_file(*sort_program, elf_path).ok());
    fleet::FleetOptions options;
    options.elf_path = elf_path;
    options.worker_path = std::string(S4E_TOOL_DIR) + "/s4e-faultsim";
    options.workers = hw;
    options.shards = hw;  // one shard per worker: no respawn slack needed
    options.spec = campaign::spec_argv<fault::FaultModel>(config);
    start = std::chrono::steady_clock::now();
    auto fleet_run = fleet::run_fleet<fault::FaultModel>(options);
    const double fleet_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    S4E_CHECK(fleet_run.ok());
    std::remove(elf_path.c_str());
    const bool identical = fleet_run->report == threaded->to_string();
    std::printf("  thread pool   (jobs=%-2u)   : %6.2f s  (%7.0f mutants/s)\n",
                hw, thread_seconds, kFleetMutants / thread_seconds);
    std::printf("  process fleet (workers=%-2u): %6.2f s  (%7.0f mutants/s)\n",
                hw, fleet_seconds, kFleetMutants / fleet_seconds);
    std::printf("  reports byte-identical: %s\n", identical ? "yes" : "NO");
    S4E_CHECK(identical);

    const Status merged = merge_bench_entry(
        "BENCH_campaign.json", "fault_fleet",
        format("{\"workload\": \"bubble_sort\", \"mutants\": %u, "
               "\"workers\": %u, "
               "\"thread_mutants_per_s\": %s, "
               "\"fleet_mutants_per_s\": %s, "
               "\"fleet_vs_thread\": %s, "
               "\"host_cores\": %u}",
               kFleetMutants, hw,
               json_number(kFleetMutants / thread_seconds).c_str(),
               json_number(kFleetMutants / fleet_seconds).c_str(),
               json_number(thread_seconds / fleet_seconds).c_str(),
               std::thread::hardware_concurrency()));
    S4E_CHECK_MSG(merged.ok(), merged.to_string());
    std::printf("  (recorded in BENCH_campaign.json)\n");
  }

  // Static triage ablation: the same fault list with triage off and on.
  // The triage contract is checked, not just timed — pruned faults must
  // come back kMasked with the golden exit, and every non-pruned result
  // must be bit-identical to the untriaged run.
  {
    std::printf("\n[E5-triage] static fault triage (off vs on):\n");
    std::printf("  %-12s %8s %7s %9s %9s %8s\n", "workload", "mutants",
                "pruned", "off m/s", "on m/s", "speedup");
    std::string rows;
    for (const char* name : {"crc32", "pid"}) {
      auto triage_workload = core::find_workload(name);
      S4E_CHECK(triage_workload.ok());
      auto triage_program = ecosystem.build(*triage_workload);
      S4E_CHECK(triage_program.ok());
      // Large enough that the one-time static analysis amortizes over the
      // skipped runs (the prune fraction, not the analysis, dominates).
      fault::CampaignConfig triage_config;
      triage_config.seed = 0x5ca1e4ed;
      triage_config.mutant_count = 2000;

      auto start = std::chrono::steady_clock::now();
      auto off = ecosystem.run_campaign(*triage_program, triage_config);
      const double off_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      triage_config.triage = dataflow::TriageMode::kOn;
      start = std::chrono::steady_clock::now();
      auto on = ecosystem.run_campaign(*triage_program, triage_config);
      const double on_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      S4E_CHECK_MSG(off.ok() && on.ok(), name);

      S4E_CHECK(off->mutants.size() == on->mutants.size());
      for (std::size_t i = 0; i < off->mutants.size(); ++i) {
        const auto& base = off->mutants[i];
        const auto& triaged = on->mutants[i];
        S4E_CHECK(base.spec.to_string() == triaged.spec.to_string());
        if (triaged.pruned) {
          S4E_CHECK_MSG(triaged.outcome == fault::Outcome::kMasked, name);
        } else {
          S4E_CHECK_MSG(base.outcome == triaged.outcome &&
                            base.exit_code == triaged.exit_code &&
                            base.instructions == triaged.instructions,
                        name);
        }
      }

      const double mutants = static_cast<double>(off->mutants.size());
      std::printf("  %-12s %8.0f %7llu %9.0f %9.0f %7.2fx\n", name, mutants,
                  static_cast<unsigned long long>(on->pruned_count),
                  mutants / off_seconds, mutants / on_seconds,
                  off_seconds / on_seconds);
      if (!rows.empty()) rows += ", ";
      rows += format("{\"workload\": \"%s\", \"mutants\": %.0f, "
                     "\"pruned\": %llu, \"pruned_fraction\": %s, "
                     "\"off_mutants_per_s\": %s, \"on_mutants_per_s\": %s, "
                     "\"host_cores\": %u}",
                     name, mutants,
                     static_cast<unsigned long long>(on->pruned_count),
                     json_number(on->pruned_count / mutants, 4)
                         .c_str(),
                     json_number(mutants / off_seconds).c_str(),
                     json_number(mutants / on_seconds).c_str(),
                     std::thread::hardware_concurrency());
    }
    const Status merged = merge_bench_entry("BENCH_campaign.json",
                                            "fault_triage", "[" + rows + "]");
    S4E_CHECK_MSG(merged.ok(), merged.to_string());
    std::printf("  (recorded in BENCH_campaign.json)\n");
  }
  return 0;
}
