// The fresh-machine oracle for campaign tests: bench/fresh_campaign.hpp
// runs every item of a campaign model on its own newly built and loaded
// vp::Machine, with no WorkerVm or snapshot involved. A campaign driven by
// the real driver (per-lane machine reuse, any `jobs`) must match it item
// for item — so nothing a reused lane leaves behind (plugins, a forced
// stuck-at bit, dirty pages) reaches the next item.
#pragma once

#include <gtest/gtest.h>

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

}  // namespace s4e::test_support
