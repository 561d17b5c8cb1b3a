#include "vp/bus.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/strings.hpp"

namespace s4e::vp {

namespace {

// Appends the runs of bytes where `live` differs from `image` over
// [0, size) to `runs`, as [base + offset, length), extending the last run
// when a new one starts right where it ends. Equal 64-byte chunks are
// skipped with one memcmp each.
void append_changed_runs(const u8* live, const u8* image, u32 size, u32 base,
                         std::vector<std::pair<u32, u32>>& runs) {
  constexpr u32 kChunk = 64;
  for (u32 chunk = 0; chunk < size; chunk += kChunk) {
    const u32 chunk_end = std::min(size, chunk + kChunk);
    if (std::memcmp(live + chunk, image + chunk, chunk_end - chunk) == 0) {
      continue;
    }
    for (u32 i = chunk; i < chunk_end; ++i) {
      if (live[i] == image[i]) continue;
      const u32 address = base + i;
      if (!runs.empty() && runs.back().first + runs.back().second == address) {
        ++runs.back().second;
      } else {
        runs.emplace_back(address, 1);
      }
    }
  }
}

}  // namespace

void Bus::add_ram(u32 base, u32 size) {
  S4E_CHECK_MSG(size > 0, "RAM region must be non-empty");
  RamRegion region;
  region.base = base;
  region.bytes = PageBuffer(size);
  const std::size_t pages = (size + kRamPageBytes - 1) / kRamPageBytes;
  region.dirty.assign((pages + 63) / 64, 0);
  region.populated.assign(region.dirty.size(), 0);
  region.basis.assign(region.dirty.size(), 0);
  ram_.push_back(std::move(region));
}

void Bus::add_device(u32 base, u32 size, std::unique_ptr<Device> device) {
  S4E_CHECK_MSG(device != nullptr, "null device");
  devices_.push_back(DeviceMapping{base, size, std::move(device)});
}

Bus::RamRegion* Bus::find_ram(u32 address, u32 size) noexcept {
  for (auto& region : ram_) {
    if (address >= region.base && address + size <= region.end() &&
        address + size >= address) {
      return &region;
    }
  }
  return nullptr;
}

const Bus::RamRegion* Bus::find_ram(u32 address, u32 size) const noexcept {
  return const_cast<Bus*>(this)->find_ram(address, size);
}

Bus::DeviceMapping* Bus::find_device(u32 address) noexcept {
  for (auto& mapping : devices_) {
    if (address >= mapping.base && address < mapping.base + mapping.size) {
      return &mapping;
    }
  }
  return nullptr;
}

Result<BusRead> Bus::read(u32 address, unsigned size) {
  if (RamRegion* region = find_ram(address, size)) {
    const std::size_t offset = address - region->base;
    u32 value = 0;
    for (unsigned i = 0; i < size; ++i) {
      value |= static_cast<u32>(region->bytes[offset + i]) << (8 * i);
    }
    return BusRead{value, false};
  }
  if (DeviceMapping* mapping = find_device(address)) {
    if (address % size != 0) {
      return Error(ErrorCode::kInvalidArgument,
                   format("misaligned MMIO read at 0x%08x", address));
    }
    S4E_TRY(value, mapping->device->read(address - mapping->base, size));
    return BusRead{value, true};
  }
  return Error(ErrorCode::kOutOfRange,
               format("load access fault at 0x%08x", address));
}

Result<bool> Bus::write(u32 address, unsigned size, u32 value) {
  if (RamRegion* region = find_ram(address, size)) {
    const std::size_t offset = address - region->base;
    for (unsigned i = 0; i < size; ++i) {
      region->bytes[offset + i] = static_cast<u8>(value >> (8 * i));
    }
    region->mark_dirty(offset, size);
    return false;
  }
  if (DeviceMapping* mapping = find_device(address)) {
    if (address % size != 0) {
      return Error(ErrorCode::kInvalidArgument,
                   format("misaligned MMIO write at 0x%08x", address));
    }
    S4E_TRY_STATUS(mapping->device->write(address - mapping->base, size, value));
    return true;
  }
  return Error(ErrorCode::kOutOfRange,
               format("store access fault at 0x%08x", address));
}

Result<u32> Bus::fetch_word(u32 address) {
  if (const RamRegion* region = find_ram(address, 4)) {
    const std::size_t offset = address - region->base;
    u32 value = 0;
    for (unsigned i = 0; i < 4; ++i) {
      value |= static_cast<u32>(region->bytes[offset + i]) << (8 * i);
    }
    return value;
  }
  return Error(ErrorCode::kOutOfRange,
               format("instruction access fault at 0x%08x", address));
}

Result<u32> Bus::fetch_half(u32 address) {
  if (const RamRegion* region = find_ram(address, 2)) {
    const std::size_t offset = address - region->base;
    return static_cast<u32>(region->bytes[offset]) |
           (static_cast<u32>(region->bytes[offset + 1]) << 8);
  }
  return Error(ErrorCode::kOutOfRange,
               format("instruction access fault at 0x%08x", address));
}

Status Bus::ram_read(u32 address, void* buffer, u32 size) const {
  const RamRegion* region = find_ram(address, size);
  if (region == nullptr) {
    return Error(ErrorCode::kOutOfRange,
                 format("RAM read outside RAM at 0x%08x", address));
  }
  std::memcpy(buffer, region->bytes.data() + (address - region->base), size);
  return Status();
}

Status Bus::ram_write(u32 address, const void* buffer, u32 size) {
  RamRegion* region = find_ram(address, size);
  if (region == nullptr) {
    return Error(ErrorCode::kOutOfRange,
                 format("RAM write outside RAM at 0x%08x", address));
  }
  std::memcpy(region->bytes.data() + (address - region->base), buffer, size);
  if (size > 0) region->mark_dirty(address - region->base, size);
  return Status();
}

bool Bus::is_ram(u32 address, u32 size) const noexcept {
  return find_ram(address, size) != nullptr;
}

Bus::RamWindow Bus::ram_window(u32 address) noexcept {
  if (RamRegion* region = find_ram(address, 1)) {
    return RamWindow{region->bytes.data(), region->dirty.data(), region->base,
                     static_cast<u32>(region->bytes.size())};
  }
  return RamWindow{};
}

void Bus::tick(u64 now) {
  for (auto& mapping : devices_) mapping.device->tick(now);
}

void Bus::reset_devices() {
  for (auto& mapping : devices_) mapping.device->reset();
}

u64 Bus::ram_snapshot(std::vector<RamImage>& images) {
  images.clear();
  images.reserve(ram_.size());
  u64 copied = 0;
  for (auto& region : ram_) {
    RamImage image;
    image.base = region.base;
    image.bytes = PageBuffer(region.bytes.size());
    for (std::size_t word = 0; word < region.dirty.size(); ++word) {
      region.populated[word] |= region.dirty[word];
      region.dirty[word] = 0;
      region.basis[word] = 0;
      u64 bits = region.populated[word];
      while (bits != 0) {
        const std::size_t offset =
            (word * 64 + static_cast<unsigned>(std::countr_zero(bits))) *
            kRamPageBytes;
        bits &= bits - 1;
        const std::size_t size =
            std::min<std::size_t>(kRamPageBytes, region.bytes.size() - offset);
        std::memcpy(image.bytes.data() + offset, region.bytes.data() + offset,
                    size);
        ++copied;
      }
    }
    images.push_back(std::move(image));
  }
  return copied;
}

u64 Bus::ram_restore(const std::vector<RamImage>& images,
                     const std::vector<RamDelta>* delta,
                     std::pair<u32, u32> watch,
                     std::vector<std::pair<u32, u32>>& changed) {
  S4E_CHECK_MSG(images.size() == ram_.size() &&
                    (delta == nullptr || delta->size() == ram_.size()),
                "RAM restore from a foreign snapshot");
  u64 copied = 0;
  for (std::size_t r = 0; r < ram_.size(); ++r) {
    RamRegion& region = ram_[r];
    const RamImage& image = images[r];
    S4E_CHECK_MSG(image.base == region.base &&
                      image.bytes.size() == region.bytes.size(),
                  "RAM restore shape mismatch");
    const RamDelta* pages_of = delta != nullptr ? &(*delta)[r] : nullptr;
    std::size_t slot = 0;  // cursor into pages_of->pages (ascending)
    const std::size_t pages =
        (region.bytes.size() + kRamPageBytes - 1) / kRamPageBytes;
    for (std::size_t word = 0; word < region.dirty.size(); ++word) {
      const u64 own = pages_of != nullptr ? pages_of->bitmap[word] : 0;
      u64 bits = region.dirty[word] | region.basis[word] | own;
      while (bits != 0) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t page = word * 64 + bit;
        if (page >= pages) break;
        const std::size_t offset = page * kRamPageBytes;
        const std::size_t size =
            std::min<std::size_t>(kRamPageBytes, region.bytes.size() - offset);
        const u8* source = image.bytes.data() + offset;
        if (((own >> bit) & 1) != 0) {
          while (pages_of->pages[slot] < page) ++slot;
          source = pages_of->bytes.data() + slot * kRamPageBytes;
        }
        const u64 page_lo = u64{region.base} + offset;
        const u64 lo = std::max<u64>(page_lo, watch.first);
        const u64 hi = std::min<u64>(page_lo + size, watch.second);
        if (lo < hi) {
          const std::size_t at = static_cast<std::size_t>(lo - page_lo);
          append_changed_runs(region.bytes.data() + offset + at, source + at,
                              static_cast<u32>(hi - lo),
                              static_cast<u32>(lo), changed);
        }
        std::memcpy(region.bytes.data() + offset, source, size);
        ++copied;
      }
      region.populated[word] |= region.dirty[word];
      region.dirty[word] = 0;
      region.basis[word] = own;
    }
  }
  if (ram_.size() > 1) std::sort(changed.begin(), changed.end());
  return copied;
}

u64 Bus::ram_capture(std::vector<RamDelta>& deltas, bool with_basis) const {
  deltas.resize(ram_.size());
  u64 copied = 0;
  for (std::size_t r = 0; r < ram_.size(); ++r) {
    const RamRegion& region = ram_[r];
    RamDelta& delta = deltas[r];
    delta.bitmap.assign(region.dirty.size(), 0);
    delta.pages.clear();
    delta.bytes.clear();
    for (std::size_t word = 0; word < region.dirty.size(); ++word) {
      u64 bits = region.dirty[word] | (with_basis ? region.basis[word] : 0);
      delta.bitmap[word] = bits;
      while (bits != 0) {
        const std::size_t page =
            word * 64 + static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t offset = page * kRamPageBytes;
        if (offset >= region.bytes.size()) break;
        const std::size_t size =
            std::min<std::size_t>(kRamPageBytes, region.bytes.size() - offset);
        delta.pages.push_back(static_cast<u32>(page));
        delta.bytes.resize(delta.bytes.size() + kRamPageBytes);
        std::memcpy(delta.bytes.data() + delta.bytes.size() - kRamPageBytes,
                    region.bytes.data() + offset, size);
        ++copied;
      }
    }
  }
  return copied;
}

bool Bus::ram_matches(const std::vector<RamDelta>& deltas) const {
  if (deltas.size() != ram_.size()) return false;
  for (std::size_t r = 0; r < ram_.size(); ++r) {
    const RamRegion& region = ram_[r];
    const RamDelta& delta = deltas[r];
    if (delta.bitmap != region.dirty) return false;
    for (std::size_t slot = 0; slot < delta.pages.size(); ++slot) {
      const std::size_t offset = std::size_t{delta.pages[slot]} * kRamPageBytes;
      const std::size_t size =
          std::min<std::size_t>(kRamPageBytes, region.bytes.size() - offset);
      if (std::memcmp(region.bytes.data() + offset,
                      delta.bytes.data() + slot * kRamPageBytes, size) != 0) {
        return false;
      }
    }
  }
  return true;
}

u64 Bus::ram_pages() const noexcept {
  u64 pages = 0;
  for (const auto& region : ram_) {
    pages += (region.bytes.size() + kRamPageBytes - 1) / kRamPageBytes;
  }
  return pages;
}

void Bus::save_device_state(std::vector<std::vector<u8>>& blobs) const {
  blobs.clear();
  blobs.reserve(devices_.size());
  for (const auto& mapping : devices_) {
    StateWriter writer;
    mapping.device->save_state(writer);
    blobs.push_back(writer.take());
  }
}

void Bus::restore_device_state(const std::vector<std::vector<u8>>& blobs) {
  S4E_CHECK_MSG(blobs.size() == devices_.size(),
                "device state restore from a foreign snapshot");
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    StateReader reader(blobs[d]);
    devices_[d].device->restore_state(reader);
    S4E_CHECK_MSG(reader.exhausted(),
                  "device state blob not fully consumed");
  }
}

}  // namespace s4e::vp
