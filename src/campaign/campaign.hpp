// The parts every campaign model shares: the driver-owned configuration,
// the common result and report fields, and the Campaign class that runs a
// model through the generic driver (campaign/driver.hpp). fault::FaultModel
// and mutation::MutationModel plug into it.
#pragma once

#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "dataflow/triage.hpp"
#include "exec/campaign_executor.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"
#include "vp/snapshot.hpp"

namespace s4e::campaign {

// The knobs the driver owns. Each model's config derives from it and adds
// its own.
struct DriverConfig {
  // Hang budget as a multiple of the golden run's instruction count.
  u64 hang_budget_factor = 8;
  // Worker threads for the item runs. Each worker lane owns one long-lived
  // vp::Machine, snapshotted once and restored (dirty pages only, warm TB
  // cache) before every run, so results are bit-identical to the serial
  // run. 0 = hardware_concurrency, 1 = run inline on the calling thread.
  unsigned jobs = 0;
  // --- Observability. Neither switch changes any item result or the
  // campaign's stdout report — runs are only observed.
  // Collect campaign telemetry (campaign/telemetry.hpp) into the report's
  // metrics_json.
  bool collect_metrics = false;
  // Attach a flight recorder to every item run and keep a post-mortem of
  // the last `post_mortem_events` events for every hang or crash.
  bool post_mortem = false;
  unsigned post_mortem_events = 16;
  // Static campaign triage (dataflow::StaticTriage). kOn skips items whose
  // result is statically provable (they report the model's pruned result
  // with zero simulated instructions); kVerify runs them anyway and errors
  // on any static/dynamic mismatch. Forced off on SMP machines.
  dataflow::TriageMode triage = dataflow::TriageMode::kOff;
  // Shard selection for multi-process fleets (s4e-campaignd): the full item
  // list is still generated deterministically (identical for every shard),
  // then only the contiguous index range [floor(i*M/N), floor((i+1)*M/N))
  // is run, where M is the full list size, i = shard_index and
  // N = shard_count. The union of all N shards' results is exactly the
  // serial campaign; shard_count == 1 is the whole campaign.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  vp::MachineConfig machine;

  // The machine every item runs on: `machine` with the hang budget derived
  // from the golden run's length.
  vp::MachineConfig item_machine(u64 golden_instructions) const {
    vp::MachineConfig config = machine;
    config.max_instructions = vp::hang_budget(
        golden_instructions, hang_budget_factor, machine.max_instructions);
    return config;
  }
};

// The fields of one item's result that every model has.
struct ResultFields {
  int exit_code = 0;
  u64 instructions = 0;  // guest instructions the item's run executed
  // Static triage: true = the result was proven without running the VP;
  // `prune_reason` is the triage class tag. In verify mode the item still
  // runs and `pruned` marks what *would* have been skipped.
  bool pruned = false;
  std::string prune_reason;
  // Flight-recorder dump (the run's last executed instructions, memory
  // accesses and traps) captured for hang and crash results when the
  // campaign runs with `post_mortem` enabled; empty otherwise.
  std::string post_mortem;
};

// The report fields every model has.
struct ReportFields {
  // Sharded runs: global index of the first result in the full item list
  // (0 for whole-campaign runs).
  u64 shard_begin = 0;
  u64 pruned_count = 0;  // items decided statically (triage)
  // Aggregate snapshot/restore cost over all worker machines.
  vp::SnapshotStats snapshot_stats;
  // One-line JSON campaign telemetry ("{}" unless collect_metrics). Only
  // partition-invariant values are exported, so the string is
  // byte-identical across `jobs` counts.
  std::string metrics_json = "{}";
};

// One campaign over `Model`: golden run, item enumeration, one run per
// item fanned out over `config.jobs` workers, deterministic aggregation.
template <class Model>
class Campaign {
 public:
  using Item = typename Model::Item;
  using Report = typename Model::Report;

  Campaign(assembler::Program program, const typename Model::Config& config)
      : model_(std::move(program), config) {}

  // Defined in campaign/driver.hpp, instantiated by each model's .cpp.
  Result<Report> run();

  // The golden run and the full item list (valid after run()).
  const vp::GoldenRun& golden() const noexcept { return golden_; }
  const std::vector<Item>& items() const noexcept { return items_; }

  // Live progress of an in-flight run(): items done plus a histogram of
  // the model's result buckets. Safe to read from any thread while run()
  // executes.
  const exec::CampaignProgress& progress() const noexcept {
    return progress_;
  }

 private:
  Model model_;
  vp::GoldenRun golden_;
  vp::GoldenRecording recording_;
  std::vector<Item> items_;
  exec::CampaignProgress progress_;
};

}  // namespace s4e::campaign
