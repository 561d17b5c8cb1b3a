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

Bus::Bus(u32 ram_base, u32 ram_size)
    : ram_base_(ram_base), ram_size_(ram_size), ram_(ram_size) {
  S4E_CHECK_MSG(ram_size > 0, "RAM must be non-empty");
  S4E_CHECK_MSG(u64{ram_base} + ram_size <= (u64{1} << 32),
                "RAM must end at or below 2^32");
  dirty_.assign((ram_pages() + 63) / 64, 0);
  populated_.assign(dirty_.size(), 0);
  basis_.assign(dirty_.size(), 0);
}

void Bus::add_device(u32 base, u32 size, std::unique_ptr<Device> device) {
  S4E_CHECK_MSG(device != nullptr, "null device");
  devices_.push_back(DeviceMapping{base, size, std::move(device)});
}

u32 Bus::load(u32 address, unsigned size) const noexcept {
  const u32 offset = address - ram_base_;
  u32 value = 0;
  for (unsigned i = 0; i < size; ++i) {
    value |= static_cast<u32>(ram_[offset + i]) << (8 * i);
  }
  return value;
}

Bus::DeviceMapping* Bus::find_device(u32 address) noexcept {
  for (auto& mapping : devices_) {
    if (address - mapping.base < mapping.size) {
      return &mapping;
    }
  }
  return nullptr;
}

Result<BusRead> Bus::read(u32 address, unsigned size) {
  if (is_ram(address, size)) return BusRead{load(address, size), false};
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
  if (is_ram(address, size)) {
    const u32 offset = address - ram_base_;
    for (unsigned i = 0; i < size; ++i) {
      ram_[offset + i] = static_cast<u8>(value >> (8 * i));
    }
    mark_dirty(offset, size);
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
  if (is_ram(address, 4)) return load(address, 4);
  return Error(ErrorCode::kOutOfRange,
               format("instruction access fault at 0x%08x", address));
}

Result<u32> Bus::fetch_half(u32 address) {
  if (is_ram(address, 2)) return load(address, 2);
  return Error(ErrorCode::kOutOfRange,
               format("instruction access fault at 0x%08x", address));
}

Status Bus::ram_read(u32 address, void* buffer, u32 size) const {
  if (!is_ram(address, size)) {
    return Error(ErrorCode::kOutOfRange,
                 format("RAM read outside RAM at 0x%08x", address));
  }
  std::memcpy(buffer, ram_.data() + (address - ram_base_), size);
  return Status();
}

Status Bus::ram_write(u32 address, const void* buffer, u32 size) {
  if (!is_ram(address, size)) {
    return Error(ErrorCode::kOutOfRange,
                 format("RAM write outside RAM at 0x%08x", address));
  }
  std::memcpy(ram_.data() + (address - ram_base_), buffer, size);
  if (size > 0) mark_dirty(address - ram_base_, size);
  return Status();
}

void Bus::tick(u64 now) {
  for (auto& mapping : devices_) mapping.device->tick(now);
}

void Bus::reset_devices() {
  for (auto& mapping : devices_) mapping.device->reset();
}

u64 Bus::ram_snapshot(RamImage& image) {
  image.bytes = PageBuffer(ram_size_);
  u64 copied = 0;
  for (std::size_t word = 0; word < dirty_.size(); ++word) {
    populated_[word] |= dirty_[word];
    dirty_[word] = 0;
    basis_[word] = 0;
    u64 bits = populated_[word];
    while (bits != 0) {
      const std::size_t offset =
          (word * 64 + static_cast<unsigned>(std::countr_zero(bits))) *
          kRamPageBytes;
      bits &= bits - 1;
      std::memcpy(image.bytes.data() + offset, ram_.data() + offset,
                  page_bytes(offset));
      ++copied;
    }
  }
  return copied;
}

u64 Bus::ram_restore(const RamImage& image, const RamDelta* delta,
                     std::pair<u32, u64> watch,
                     std::vector<std::pair<u32, u32>>& changed) {
  S4E_CHECK_MSG(image.bytes.size() == ram_size_,
                "RAM restore from a foreign snapshot");
  u64 copied = 0;
  std::size_t slot = 0;  // cursor into delta->pages (ascending)
  const u64 pages = ram_pages();
  for (std::size_t word = 0; word < dirty_.size(); ++word) {
    const u64 own = delta != nullptr ? delta->bitmap[word] : 0;
    u64 bits = dirty_[word] | basis_[word] | own;
    while (bits != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::size_t page = word * 64 + bit;
      if (page >= pages) break;
      const std::size_t offset = page * kRamPageBytes;
      const u32 size = page_bytes(offset);
      const u8* source = image.bytes.data() + offset;
      if (((own >> bit) & 1) != 0) {
        while (delta->pages[slot] < page) ++slot;
        source = delta->bytes.data() + slot * kRamPageBytes;
      }
      const u64 page_lo = u64{ram_base_} + offset;
      const u64 lo = std::max<u64>(page_lo, watch.first);
      const u64 hi = std::min<u64>(page_lo + size, watch.second);
      if (lo < hi) {
        const std::size_t at = static_cast<std::size_t>(lo - page_lo);
        append_changed_runs(ram_.data() + offset + at, source + at,
                            static_cast<u32>(hi - lo), static_cast<u32>(lo),
                            changed);
      }
      std::memcpy(ram_.data() + offset, source, size);
      ++copied;
    }
    populated_[word] |= dirty_[word];
    dirty_[word] = 0;
    basis_[word] = own;
  }
  return copied;
}

u64 Bus::ram_capture(RamDelta& delta, bool with_basis) const {
  delta.bitmap.assign(dirty_.size(), 0);
  delta.pages.clear();
  delta.bytes.clear();
  const u64 pages = ram_pages();
  u64 copied = 0;
  for (std::size_t word = 0; word < dirty_.size(); ++word) {
    u64 bits = dirty_[word] | (with_basis ? basis_[word] : 0);
    delta.bitmap[word] = bits;
    while (bits != 0) {
      const std::size_t page =
          word * 64 + static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      if (page >= pages) break;
      const std::size_t offset = page * kRamPageBytes;
      delta.pages.push_back(static_cast<u32>(page));
      delta.bytes.resize(delta.bytes.size() + kRamPageBytes);
      std::memcpy(delta.bytes.data() + delta.bytes.size() - kRamPageBytes,
                  ram_.data() + offset, page_bytes(offset));
      ++copied;
    }
  }
  return copied;
}

bool Bus::ram_matches(const RamDelta& delta) const {
  if (delta.bitmap != dirty_) return false;
  for (std::size_t slot = 0; slot < delta.pages.size(); ++slot) {
    const std::size_t offset = std::size_t{delta.pages[slot]} * kRamPageBytes;
    if (std::memcmp(ram_.data() + offset,
                    delta.bytes.data() + slot * kRamPageBytes,
                    page_bytes(offset)) != 0) {
      return false;
    }
  }
  return true;
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
