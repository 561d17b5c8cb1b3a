// Physical address space of the VP: one RAM region plus memory-mapped
// devices.
//
// The edge-SoC memory map (matches the workloads and the examples):
//   0x0010_0000  test finisher (exit device)
//   0x0200_0000  CLINT (msip / mtime / mtimecmp)
//   0x1000_0000  UART0
//   0x1001_0000  GPIO
//   0x8000_0000  RAM (code + data), size configurable
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/status.hpp"
#include "vp/device.hpp"
#include "vp/page_buffer.hpp"

namespace s4e::vp {

// Result of a bus access: the value plus whether a device (vs RAM) was hit,
// which feeds the timing model's MMIO wait states.
struct BusRead {
  u32 value = 0;
  bool mmio = false;
};

class Bus {
 public:
  // A bus whose RAM is [ram_base, ram_base + ram_size): non-empty, and
  // ending at or below 2^32 (checked).
  Bus(u32 ram_base, u32 ram_size);

  // Map `device` at [base, base+size). The bus keeps ownership.
  void add_device(u32 base, u32 size, std::unique_ptr<Device> device);

  // Data-side accesses (MMIO side effects apply). Misaligned accesses are
  // supported for RAM (QEMU semantics); device accesses must be aligned.
  Result<BusRead> read(u32 address, unsigned size);
  Result<bool> write(u32 address, unsigned size, u32 value);  // -> mmio?

  // Instruction fetch: RAM only (executing from MMIO is an access fault).
  Result<u32> fetch_word(u32 address);
  // 16-bit fetch for RVC parcel decoding.
  Result<u32> fetch_half(u32 address);

  // Direct RAM access without MMIO side effects (loader, plugins, fault
  // injector). Fails if the range is not fully RAM-backed.
  Status ram_read(u32 address, void* buffer, u32 size) const;
  Status ram_write(u32 address, const void* buffer, u32 size);

  // True if [address, address+size) lies fully inside RAM. Offset
  // arithmetic, so neither a RAM that ends at 2^32 nor a range that wraps
  // past it is misjudged.
  bool is_ram(u32 address, u32 size) const noexcept {
    return size <= ram_size_ && address - ram_base_ <= ram_size_ - size;
  }

  // Zero-copy view of RAM for the execution engine's inline load/store
  // fast path. The pointers stay valid for the life of the bus: the buffers
  // never reallocate. Stores through the view must mark dirtiness exactly
  // like Bus::write does.
  struct RamWindow {
    u8* data = nullptr;
    u64* dirty = nullptr;
    u32 base = 0;
    u32 size = 0;
  };
  RamWindow ram_window() noexcept {
    return RamWindow{ram_.data(), dirty_.data(), ram_base_, ram_size_};
  }

  // Advance all devices to cycle `now`.
  void tick(u64 now);

  // Reset every mapped device to power-on state (Machine::reset).
  void reset_devices();

  // --- Snapshot support (see vp/snapshot.hpp).

  // Capture an image of RAM and mark all pages clean, so the next
  // ram_restore() copies back only what execution dirtied after this call.
  // The image is a fresh lazily zeroed buffer into which only the populated
  // pages (written since construction) are copied; the rest are known to
  // be zero. Returns the number of pages copied.
  u64 ram_snapshot(RamImage& image);

  // Write back the dirty pages from `image` (captured by ram_snapshot on
  // this bus; a page first written after the capture comes back as zero)
  // and clear the dirty map. Returns the number of pages copied.
  // Before each page is copied back, its bytes inside the `watch` window
  // [lo, hi) are compared with the image: `changed` collects the
  // [address, size) runs that differ, sorted and disjoint — exactly the
  // bytes the restore changes there, so the caller can drop the
  // translation blocks built from them. Pages outside the window are
  // copied without comparing.
  // A rung restore passes its `delta`: its pages come from there, every
  // other page from `image` (the rung's base), and the pages of the delta
  // the machine was last restored to are copied back too.
  u64 ram_restore(const RamImage& image, const RamDelta* delta,
                  std::pair<u32, u64> watch,
                  std::vector<std::pair<u32, u32>>& changed);

  // Copy the pages written since the last ram_snapshot()/ram_restore()
  // into `delta` (reusing its storage) — plus, with `with_basis`, the pages
  // of the rung last restored, so the copy is relative to the full
  // snapshot (a rung capture). Nothing is cleared. Returns the number of
  // pages copied.
  u64 ram_capture(RamDelta& delta, bool with_basis) const;

  // True iff the pages written since the last ram_snapshot()/ram_restore()
  // are exactly those of `delta` (a ram_capture without basis) and hold
  // the same bytes.
  bool ram_matches(const RamDelta& delta) const;

  // Dirty-tracking pages of RAM (the cost a full restore would pay;
  // --snapshot-stats denominator).
  u64 ram_pages() const noexcept {
    return (u64{ram_size_} + kRamPageBytes - 1) / kRamPageBytes;
  }

  // Serialize / restore every mapped device's state, in mapping order.
  void save_device_state(std::vector<std::vector<u8>>& blobs) const;
  void restore_device_state(const std::vector<std::vector<u8>>& blobs);

 private:
  struct DeviceMapping {
    u32 base = 0;
    u32 size = 0;
    std::unique_ptr<Device> device;
  };

  void mark_dirty(u32 offset, u32 size) noexcept {
    const u32 last = (offset + size - 1) / kRamPageBytes;
    for (u32 page = offset / kRamPageBytes; page <= last; ++page) {
      dirty_[page >> 6] |= u64{1} << (page & 63);
    }
  }
  // Bytes of the RAM page at `offset` (the last page may be short).
  u32 page_bytes(std::size_t offset) const noexcept {
    return static_cast<u32>(
        std::min<std::size_t>(kRamPageBytes, ram_size_ - offset));
  }
  // Little-endian value of the `size` RAM bytes at `address` (is_ram).
  u32 load(u32 address, unsigned size) const noexcept;
  DeviceMapping* find_device(u32 address) noexcept;

  u32 ram_base_;
  u32 ram_size_;
  PageBuffer ram_;  // lazily zeroed: untouched pages cost nothing
  // One bit per kRamPageBytes page, set on every write path into RAM (CPU
  // stores, ram_write); cleared by ram_snapshot/ram_restore.
  std::vector<u64> dirty_;
  // Pages written since construction: `dirty_` is folded in before each
  // clear, so a page outside populated_|dirty_ still holds zero.
  std::vector<u64> populated_;
  // Pages of the rung last restored (none after a full snapshot or
  // restore): where the clean pages differ from the full image.
  std::vector<u64> basis_;
  std::vector<DeviceMapping> devices_;
};

}  // namespace s4e::vp
