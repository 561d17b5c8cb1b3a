// The fresh-machine oracle for campaign tests: bench/fresh_campaign.hpp
// runs every item of a campaign model on its own newly built and loaded
// vp::Machine, with no WorkerVm or snapshot involved. A campaign driven by
// the real driver (per-lane machine reuse, any `jobs`) must match it item
// for item — so nothing a reused lane leaves behind (plugins, a forced
// stuck-at bit, dirty pages) reaches the next item.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "bench/fresh_campaign.hpp"

namespace s4e::test_support {

// Checks `report` (a whole, unsharded campaign over `model`'s config)
// against the fresh-machine reference: bucket, exit code and instruction
// count per item, and the folded report text.
template <class Model>
void expect_matches_fresh(const Model& model,
                          typename Model::Report& report) {
  auto reference = bench::fresh_campaign(model, 1);
  const auto& want = Model::results(reference);
  const auto& got = Model::results(report);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(Model::bucket(want[i]), Model::bucket(got[i])) << "item " << i;
    EXPECT_EQ(want[i].exit_code, got[i].exit_code) << "item " << i;
    EXPECT_EQ(want[i].instructions, got[i].instructions) << "item " << i;
  }
  EXPECT_EQ(reference.to_string(), report.to_string());
}

// Runs every item of `model`'s campaign twice, triage aside: on one
// WorkerVm restored before each item, as a driver lane does, and on a
// newly built machine. Besides bucket, exit code and instruction count the
// two runs must take the same modelled cycles. A warm TB cache whose
// blocks end where a fresh machine's would not shows only there: the
// icache model probes once per dispatched block. With `fast_forward` the
// WorkerVm holds the golden checkpoint ladder and each item starts at the
// rung below Model::start_icount(item), as the driver starts it.
template <class Model>
void expect_reuse_matches_fresh_cycles(const Model& model,
                                       const std::string& label,
                                       bool fast_forward = false) {
  vp::GoldenRun golden;
  auto items = model.enumerate(golden);
  ASSERT_TRUE(items.ok()) << label;
  const vp::MachineConfig config =
      model.config().item_machine(golden.result.instructions);
  auto vm = vp::WorkerVm::create(
      config, model.program(),
      fast_forward ? golden.result.instructions : 0);
  ASSERT_TRUE(vm.ok()) << label;
  for (std::size_t i = 0; i < items->size(); ++i) {
    vp::Machine fresh(config);
    ASSERT_TRUE(fresh.load_program(model.program()).ok()) << label;
    const auto want = model.run_one(fresh, (*items)[i], golden);
    vp::Machine& reused = (*vm)->prepare(
        fast_forward ? Model::start_icount((*items)[i]) : 0);
    const auto got = model.run_one(reused, (*items)[i], golden);
    ASSERT_TRUE(want.ok() && got.ok()) << label << " item " << i;
    EXPECT_EQ(Model::bucket(*want), Model::bucket(*got))
        << label << " item " << i;
    EXPECT_EQ(want->exit_code, got->exit_code) << label << " item " << i;
    EXPECT_EQ(want->instructions, got->instructions)
        << label << " item " << i;
    EXPECT_EQ(fresh.cycles(), reused.cycles()) << label << " item " << i;
  }
}

}  // namespace s4e::test_support
