// Lazily zeroed byte buffer for guest RAM and snapshot images.
//
// Backed by a private anonymous mapping: the kernel hands out zero pages on
// first touch, so a buffer costs only the host pages the program actually
// reads or writes — never a memset of the configured size, and nothing at
// all for pages that stay untouched (transparent huge pages are declined so
// a touch never zeroes more than one small page). Move-only; the mapping is
// released on destruction.
#pragma once

#include <cstddef>
#include <utility>

#include "common/bits.hpp"

namespace s4e::vp {

class PageBuffer {
 public:
  PageBuffer() = default;
  // `size` zero bytes (no mapping when `size` is 0).
  explicit PageBuffer(std::size_t size);
  ~PageBuffer();

  PageBuffer(PageBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  PageBuffer& operator=(PageBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  u8* data() noexcept { return data_; }
  const u8* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  u8& operator[](std::size_t index) noexcept { return data_[index]; }
  const u8& operator[](std::size_t index) const noexcept {
    return data_[index];
  }

 private:
  void release() noexcept;

  u8* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace s4e::vp
