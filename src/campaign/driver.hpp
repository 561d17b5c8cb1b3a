// The generic campaign driver: Campaign<Model>::run(). A fault campaign
// and a mutation campaign are the same loop — run a golden reference,
// enumerate the items (faults / mutants), decide what static triage can,
// run every other item on the VP and classify it against the golden run —
// so everything but the model lives here:
//
//   * shard validation and the shard's contiguous index range;
//   * static triage (off on SMP machines), the pruned short-circuit that
//     needs no VM, and the kVerify cross-check;
//   * the hang budget;
//   * three exact shortcuts, always on, none of which changes a result:
//     items the golden recording already decides are reported without a
//     run (dead faults; single hart only); every other item starts at the
//     golden checkpoint below the point where it first differs from the
//     golden run; and a run whose state provably cycles is stopped and
//     reported as the budget stop it would reach (single hart only). Under
//     post-mortem every run starts at icount 0 and hangs run to the
//     budget, so each flight-recorder ring is the one a full run fills;
//   * run_affine fan-out with one lazily created vp::WorkerVm per lane,
//     slot/error arrays, progress and the snapshot-stats sum;
//   * the in-order fold that makes the report and its telemetry
//     bit-identical to a serial run for any `jobs`.
//
// A Model supplies (see fault::FaultModel, mutation::MutationModel):
//   Config, Item, ItemResult, Report  its config and result types
//   kBuckets                          telemetry names of the result buckets
//   config(), program()
//   enumerate(golden&, recording*)    golden run (recorded) + the item list
//   decide(triage, items)             static triage of the item list
//   known(recording, item, golden)    the result, if the recording proves it
//   start_icount(item)                instructions the run shares with golden
//   run_one(machine, item, golden)    inject/patch, run, classify
//   pruned(item)                      the statically proven result
//   bucket(result)                    result bucket (an enum with to_string)
//   describe(item)                    item text for the verify error
//   open(golden, total), fold(report, result), results(report)
//
// Only the models' .cpp files include this header, each instantiating
// Campaign<Model> once.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/telemetry.hpp"
#include "common/strings.hpp"
#include "exec/campaign_executor.hpp"
#include "vp/runner.hpp"

namespace s4e::campaign {

template <class Model>
Result<typename Model::Report> Campaign<Model>::run() {
  using ItemResult = typename Model::ItemResult;
  DriverConfig config = model_.config();
  if (config.shard_count < 1 || config.shard_index >= config.shard_count) {
    return Error(ErrorCode::kInvalidArgument,
                 format("invalid shard %u/%u", config.shard_index,
                        config.shard_count));
  }
  S4E_TRY(enumerated, model_.enumerate(golden_, &recording_));
  items_ = std::move(enumerated);

  // Static triage: decide every item up front. Enumeration is unaffected,
  // so the non-pruned subset is identical to a triage-off run. Triage
  // reasons about a single sequential instruction stream; on an SMP machine
  // a register another hart never reads can still change the
  // interleaving-visible state, so triage is conservatively disabled.
  if (config.machine.num_harts > 1) {
    config.triage = dataflow::TriageMode::kOff;
  }
  std::vector<dataflow::TriageDecision> decisions(items_.size());
  if (config.triage != dataflow::TriageMode::kOff) {
    dataflow::TriageOptions triage_options;
    triage_options.stack_top =
        config.machine.ram_base + config.machine.ram_size;
    S4E_TRY(triage, dataflow::StaticTriage::build(model_.program(),
                                                  triage_options));
    decisions = model_.decide(triage, items_);
  }
  const bool skip_pruned = config.triage == dataflow::TriageMode::kOn;
  const vp::MachineConfig item_machine =
      config.item_machine(golden_.result.instructions);

  // Shard selection: the item list and triage decisions above cover the
  // *full* campaign; only the contiguous global index range [begin, end)
  // runs here.
  const u64 total = items_.size();
  const u64 begin = total * config.shard_index / config.shard_count;
  const u64 end = total * (config.shard_index + 1) / config.shard_count;
  const std::size_t count = static_cast<std::size_t>(end - begin);
  // The shortcuts (see the header comment). Lanes capture the golden
  // checkpoint ladder only when an item can start past icount 0.
  const bool single_hart = config.machine.num_harts == 1;
  const bool cycle_stop = single_hart && !config.post_mortem;
  const bool fast_forward = !config.post_mortem;
  u64 ladder = 0;
  for (u64 i = begin; fast_forward && i < end && ladder == 0; ++i) {
    if (Model::start_icount(items_[i]) > 0) {
      ladder = golden_.result.instructions;
    }
  }
  std::vector<u8> known(count, 0);
  Report report = Model::open(golden_, total);
  report.shard_begin = begin;

  // Fan the independent item runs out over the executor. Every job writes
  // only its own slot; the report is folded afterwards by walking the slots
  // in submission order, so it is bit-identical to the jobs=1 serial run
  // regardless of scheduling.
  std::vector<ItemResult> slots(count);
  std::vector<std::optional<Error>> errors(count);
  progress_.begin(count);
  exec::CampaignExecutor executor(config.jobs);
  const auto record = [&](std::size_t index, Result<ItemResult> result) {
    if (result.ok()) {
      const auto bucket = static_cast<unsigned>(Model::bucket(*result));
      slots[index] = std::move(*result);
      progress_.record(bucket);
    } else {
      errors[index] = result.error();
      progress_.record(exec::CampaignProgress::kBuckets);  // count done only
    }
  };
  // The short-circuit for statically decided items (triage on), and the
  // verify-mode cross-check for items that *would* have been pruned. These
  // index the *global* item list; `record` takes the local slot index.
  const auto pruned = [&](std::size_t global) {
    ItemResult result = Model::pruned(items_[global]);
    result.exit_code = golden_.result.exit_code;
    result.pruned = true;
    result.prune_reason = decisions[global].reason;
    return result;
  };
  const auto finish = [&](std::size_t global,
                          Result<ItemResult> result) -> Result<ItemResult> {
    if (!result.ok() || !decisions[global].pruned) return result;
    result->pruned = true;
    result->prune_reason = decisions[global].reason;
    const auto bucket = Model::bucket(*result);
    if (config.triage == dataflow::TriageMode::kVerify &&
        bucket != Model::bucket(Model::pruned(items_[global]))) {
      return Error(ErrorCode::kAnalysisError,
                   format("triage verify mismatch: %s statically pruned as "
                          "'%s' but dynamically %s",
                          Model::describe(items_[global]).c_str(),
                          result->prune_reason.c_str(),
                          std::string(to_string(bucket)).c_str()));
    }
    return result;
  };
  // One long-lived machine per worker lane, loaded and snapshotted on the
  // lane's first item; every run starts from a dirty-page restore with a
  // warm TB cache instead of a fresh build + full program load.
  std::vector<std::unique_ptr<vp::WorkerVm>> vms(executor.jobs());
  executor.run_affine(count, [&](unsigned worker, std::size_t index) {
    const std::size_t global = static_cast<std::size_t>(begin) + index;
    if (skip_pruned && decisions[global].pruned) {
      record(index, pruned(global));  // no VM needed
      return;
    }
    if (single_hart) {
      if (auto result = model_.known(recording_, items_[global], golden_)) {
        known[index] = 1;
        record(index, finish(global, std::move(*result)));  // no VM needed
        return;
      }
    }
    if (vms[worker] == nullptr) {
      auto vm = vp::WorkerVm::create(item_machine, model_.program(), ladder);
      if (!vm.ok()) {
        record(index, vm.error());
        return;
      }
      vms[worker] = std::move(*vm);
    }
    vp::Machine& machine = vms[worker]->prepare(
        fast_forward ? Model::start_icount(items_[global]) : 0);
    // A run that ends normally seldom outlives the golden run, so heads are
    // compared from there on: only the runs that go on pay for the checks.
    if (cycle_stop) machine.arm_cycle_stop(golden_.result.instructions);
    record(index,
           finish(global, model_.run_one(machine, items_[global], golden_)));
  });
  vp::SnapshotStats& stats = report.snapshot_stats;
  for (const auto& vm : vms) {
    if (vm != nullptr) stats += vm->stats();
  }
  for (std::size_t index = 0; index < count; ++index) {
    if (errors[index].has_value() || (skip_pruned && slots[index].pruned)) {
      continue;
    }
    stats.insns_reported += slots[index].instructions;
    if (known[index] != 0) {
      ++stats.dead_skipped;
      stats.dead_insns += slots[index].instructions;
    }
  }
  stats.insns_executed = stats.insns_reported - stats.dead_insns -
                         stats.prefix_insns - stats.hang_insns;

  std::optional<Telemetry> telemetry;
  if (config.collect_metrics) {
    telemetry.emplace(Model::kBuckets, count, golden_.result.instructions,
                      item_machine.max_instructions);
  }
  Model::results(report).reserve(slots.size());
  for (std::size_t index = 0; index < slots.size(); ++index) {
    if (errors[index].has_value()) return *errors[index];
    const ItemResult& result = slots[index];
    // Statically decided items were never run, so they stay out of the
    // run telemetry.
    if (telemetry && !(skip_pruned && result.pruned)) {
      telemetry->add_run(static_cast<unsigned>(Model::bucket(result)),
                         result.instructions, !result.post_mortem.empty());
    }
    Model::fold(report, std::move(slots[index]));
  }
  if (telemetry) {
    if (config.triage != dataflow::TriageMode::kOff) {
      telemetry->set_pruned(report.pruned_count);
    }
    report.metrics_json = telemetry->to_json();
  }
  return report;
}

}  // namespace s4e::campaign
