// Campaign telemetry: the one-line JSON a campaign reports in
// ReportFields::metrics_json (`--metrics-out`). The driver fills it in the
// same in-order fold over the item slots that builds the report, so the
// JSON is a function of the results alone and byte-identical for any
// `jobs`.
#pragma once

#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bits.hpp"

namespace s4e::campaign {

class Telemetry {
 public:
  // Inclusive upper bounds of the per-item instruction histogram; one more
  // bucket counts the items above the last bound.
  static constexpr u64 kBounds[] = {1'000,     10'000,     100'000,
                                    1'000'000, 10'000'000, 100'000'000};

  // `bucket_names` are the model's result buckets; `items` is the number
  // of items in this shard.
  Telemetry(std::span<const char* const> bucket_names, u64 items,
            u64 golden_instructions, u64 hang_budget)
      : names_(bucket_names),
        buckets_(bucket_names.size()),
        items_(items),
        golden_instructions_(golden_instructions),
        hang_budget_(hang_budget) {}

  // One item that ran on the VP (statically pruned items never did).
  void add_run(unsigned bucket, u64 instructions, bool post_mortem) {
    ++buckets_[bucket];
    instructions_ += instructions;
    std::size_t slot = 0;
    while (slot < std::size(kBounds) && instructions > kBounds[slot]) ++slot;
    ++histogram_[slot];
    if (post_mortem) ++post_mortems_;
  }

  // Statically pruned item count; only campaigns that ran triage set it.
  void set_pruned(u64 pruned) { pruned_ = pruned; }

  std::string to_json() const {
    using std::to_string;
    std::string out = "{\"mutants_total\": " + to_string(items_) +
                      ", \"golden_instructions\": " +
                      to_string(golden_instructions_) +
                      ", \"hang_budget\": " + to_string(hang_budget_);
    if (pruned_) out += ", \"pruned\": " + to_string(*pruned_);
    u64 runs = 0;
    for (const u64 count : buckets_) runs += count;
    out += ", \"mutants\": " + to_string(runs);
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      out += ", \"" + std::string(names_[b]) + "\": " + to_string(buckets_[b]);
    }
    out += ", \"guest_instructions\": " + to_string(instructions_) +
           ", \"mutant_instructions\": {\"bounds\": [";
    for (std::size_t b = 0; b < std::size(kBounds); ++b) {
      out += (b != 0 ? ", " : "") + to_string(kBounds[b]);
    }
    out += "], \"counts\": [";
    for (std::size_t b = 0; b < std::size(histogram_); ++b) {
      out += (b != 0 ? ", " : "") + to_string(histogram_[b]);
    }
    // Every run adds its instructions to both the total and the histogram,
    // so the histogram's sum is the total.
    return out + "], \"sum\": " + to_string(instructions_) +
           "}, \"post_mortems\": " + to_string(post_mortems_) + "}";
  }

 private:
  std::span<const char* const> names_;
  std::vector<u64> buckets_;
  u64 items_;
  u64 golden_instructions_;
  u64 hang_budget_;
  std::optional<u64> pruned_;
  u64 instructions_ = 0;
  u64 histogram_[std::size(kBounds) + 1] = {};
  u64 post_mortems_ = 0;
};

}  // namespace s4e::campaign
