// Abstract view of the program image for constant-folding loads.
//
// A load folds to the bytes in the loadable image only when every address
// it may access (a) lies fully inside a section and (b) is outside every
// *dirty* range — the union of all abstract store targets collected in a
// first analysis pass. Stack-relative stores dirty nothing: the stack grows
// from the top of RAM, disjoint from the loaded sections by the memory-map
// convention (Machine::load_program places sp at ram end), and the analysis
// never folds loads through stack addresses anyway.
//
// Usage is two-pass: pass A runs with loads disabled (every load yields
// top) and calls record_store() over the final block states; pass B runs
// with loads enabled against the collected dirty set.
#pragma once

#include <utility>
#include <vector>

#include "asm/program.hpp"
#include "dataflow/absvalue.hpp"

namespace s4e::dataflow {

class MemModel {
 public:
  MemModel() = default;  // image-less: every load yields top
  explicit MemModel(const assembler::Program& program) : program_(&program) {}

  void enable_loads() { loads_enabled_ = true; }
  bool loads_enabled() const noexcept { return loads_enabled_; }

  // Register an abstract store of `size` bytes at `addr`.
  void record_store(const AbsValue& addr, u32 size);

  // True when no recorded store may overlap [lo, hi] (canonical addresses).
  bool range_clean(i64 lo, i64 hi) const;

  // Abstract result of an aligned or unaligned load of `size` bytes.
  AbsValue load(const AbsValue& addr, u32 size, bool sign_extend) const;

 private:
  const assembler::Program* program_ = nullptr;
  bool loads_enabled_ = false;
  bool all_dirty_ = false;
  std::vector<std::pair<i64, i64>> dirty_;  // inclusive canonical ranges
};

}  // namespace s4e::dataflow
