#include "vp/snapshot.hpp"

#include "common/strings.hpp"

namespace s4e::vp {

std::string SnapshotStats::to_string() const {
  const double copied_pct =
      pages_total == 0 ? 0.0
                       : 100.0 * static_cast<double>(pages_copied) /
                             static_cast<double>(pages_total);
  return format(
      "snapshot: %llu snapshots (%llu pages saved), %llu restores, "
      "%llu/%llu pages copied (%.2f%%), %llu tb blocks invalidated",
      static_cast<unsigned long long>(snapshots),
      static_cast<unsigned long long>(pages_saved),
      static_cast<unsigned long long>(restores),
      static_cast<unsigned long long>(pages_copied),
      static_cast<unsigned long long>(pages_total), copied_pct,
      static_cast<unsigned long long>(tb_blocks_invalidated));
}

}  // namespace s4e::vp
