// The fresh-machine reference of the campaign benches ([E5-reuse],
// [E10-reuse]) and tests (tests/fresh_reference.hpp): the campaign a model
// describes, run with a newly built and loaded vp::Machine per item through
// the model's public run_one() instead of the driver's reused per-lane
// WorkerVm. Items fan out over `jobs` lanes and fold in item order, so the
// report must be bit-identical to the campaign's own.
#pragma once

#include <utility>
#include <vector>

#include "common/status.hpp"
#include "exec/campaign_executor.hpp"
#include "vp/machine.hpp"
#include "vp/runner.hpp"

namespace s4e::bench {

template <class Model>
typename Model::Report fresh_campaign(const Model& model, unsigned jobs) {
  vp::GoldenRun golden;
  auto items = model.enumerate(golden);
  S4E_CHECK(items.ok());
  const vp::MachineConfig config =
      model.config().item_machine(golden.result.instructions);
  std::vector<typename Model::ItemResult> slots(items->size());
  exec::CampaignExecutor(jobs).run_affine(
      items->size(), [&](unsigned, std::size_t index) {
        vp::Machine machine(config);
        S4E_CHECK(machine.load_program(model.program()).ok());
        auto result = model.run_one(machine, (*items)[index], golden);
        S4E_CHECK(result.ok());
        slots[index] = std::move(*result);
      });
  auto report = Model::open(golden, items->size());
  for (auto& result : slots) Model::fold(report, std::move(result));
  return report;
}

}  // namespace s4e::bench
