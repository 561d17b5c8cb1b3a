// E3 — the QTA result table: for every analyzable workload, the three
// ordered timelines
//     observed cycles <= WC(executed path) <= static WCET bound
// and the pessimism ratios. This regenerates the core table of the QTA tool
// demo (absolute numbers depend on the timing model, the *ordering* and the
// shape of the ratios are the reproducible result).
#include <cstdio>

#include "common/strings.hpp"
#include "core/ecosystem.hpp"
#include "core/workloads.hpp"

int main() {
  using namespace s4e;
  core::Ecosystem ecosystem;

  std::printf("[E3] WCET bounds vs execution (timing model: default edge "
              "SoC)\n\n");
  std::printf("%-12s %10s %12s %12s %8s %8s  %s\n", "workload", "observed",
              "wc-path", "static-wcet", "path/obs", "wcet/path", "chain");
  std::printf("%s\n", std::string(76, '-').c_str());

  bool all_hold = true;
  for (const core::Workload& workload : core::standard_workloads()) {
    if (!workload.wcet_analyzable) {
      std::printf("%-12s %10s\n", workload.name.c_str(), "(not analyzable)");
      continue;
    }
    auto program = ecosystem.build(workload);
    S4E_CHECK(program.ok());
    auto outcome = ecosystem.run_qta(*program, workload.name);
    if (!outcome.ok()) {
      std::printf("%-12s analysis failed: %s\n", workload.name.c_str(),
                  outcome.error().to_string().c_str());
      all_hold = false;
      continue;
    }
    const qta::QtaReport& report = outcome->report;
    const bool holds = report.chain_ok();
    all_hold = all_hold && holds;
    std::printf("%-12s %10llu %12llu %12llu %8.2f %8.2f  %s\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(report.observed_cycles),
                static_cast<unsigned long long>(report.wc_path_cycles),
                static_cast<unsigned long long>(report.static_bound),
                report.path_over_observed(), report.bound_over_path(),
                holds ? "holds" : "VIOLATED");
  }

  std::printf("\nper-function static WCETs (interprocedural summaries):\n");
  for (const char* name : {"fir", "lock_ctrl"}) {
    auto workload = core::find_workload(name);
    S4E_CHECK(workload.ok());
    auto program = ecosystem.build(*workload);
    S4E_CHECK(program.ok());
    auto analysis = ecosystem.analyze_wcet(*program, name);
    S4E_CHECK(analysis.ok());
    for (const auto& fn : analysis->functions) {
      std::printf("  %-12s :: %-14s blocks=%2u loops=%u wcet=%llu\n", name,
                  fn.name.c_str(), fn.block_count, fn.loop_count,
                  static_cast<unsigned long long>(fn.wcet));
    }
  }

  std::printf("\n[E3] timeline chain holds for all workloads: %s\n",
              all_hold ? "YES" : "NO");
  return all_hold ? 0 : 1;
}
