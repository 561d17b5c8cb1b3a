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
      "%llu/%llu pages copied (%.2f%%), %llu tb blocks invalidated, "
      "%llu re-lowered",
      static_cast<unsigned long long>(snapshots),
      static_cast<unsigned long long>(pages_saved),
      static_cast<unsigned long long>(restores),
      static_cast<unsigned long long>(pages_copied),
      static_cast<unsigned long long>(pages_total), copied_pct,
      static_cast<unsigned long long>(tb_blocks_invalidated),
      static_cast<unsigned long long>(tb_blocks_relowered)) +
         format("\nshortcuts: %llu dead skipped (%llu insns), %llu "
                "fast-forwards (%llu golden insns not re-run), %llu hangs "
                "stopped (%llu insns not run), %llu/%llu insns "
                "executed/reported, %llu rungs (%llu pages)",
                static_cast<unsigned long long>(dead_skipped),
                static_cast<unsigned long long>(dead_insns),
                static_cast<unsigned long long>(fast_forwards),
                static_cast<unsigned long long>(prefix_insns),
                static_cast<unsigned long long>(hangs_stopped),
                static_cast<unsigned long long>(hang_insns),
                static_cast<unsigned long long>(insns_executed),
                static_cast<unsigned long long>(insns_reported),
                static_cast<unsigned long long>(rungs),
                static_cast<unsigned long long>(rung_pages));
}

}  // namespace s4e::vp
