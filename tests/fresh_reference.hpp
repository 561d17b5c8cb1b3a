// The fresh-machine oracle for campaign tests: every item of a campaign
// model is run on its own newly built and loaded vp::Machine through the
// model's public run_one(), with no WorkerVm, snapshot or executor
// involved. A campaign driven by the real driver (per-lane machine reuse,
// any `jobs`) must match it item for item.
#pragma once

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "vp/machine.hpp"
#include "vp/runner.hpp"

namespace s4e::test_support {

// Checks `report` (a whole, unsharded campaign over `model`'s config)
// against the fresh-machine reference: bucket, exit code and instruction
// count per item, and the folded report text.
template <class Model>
void expect_matches_fresh(const Model& model,
                          typename Model::Report& report) {
  vp::GoldenRun golden;
  auto items = model.enumerate(golden);
  ASSERT_TRUE(items.ok()) << items.error().to_string();
  const vp::MachineConfig config =
      model.config().item_machine(golden.result.instructions);
  const auto& results = Model::results(report);
  ASSERT_EQ(results.size(), items->size());
  auto reference = Model::open(golden, items->size());
  for (std::size_t i = 0; i < items->size(); ++i) {
    vp::Machine machine(config);
    ASSERT_TRUE(machine.load_program(model.program()).ok());
    auto fresh = model.run_one(machine, (*items)[i], golden);
    ASSERT_TRUE(fresh.ok()) << fresh.error().to_string();
    EXPECT_EQ(Model::bucket(*fresh), Model::bucket(results[i]))
        << "item " << i;
    EXPECT_EQ(fresh->exit_code, results[i].exit_code) << "item " << i;
    EXPECT_EQ(fresh->instructions, results[i].instructions) << "item " << i;
    Model::fold(reference, std::move(*fresh));
  }
  EXPECT_EQ(reference.to_string(), report.to_string());
}

}  // namespace s4e::test_support
