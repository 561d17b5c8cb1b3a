#include "vp/page_buffer.hpp"

#include <sys/mman.h>

#include "common/status.hpp"

namespace s4e::vp {

PageBuffer::PageBuffer(std::size_t size) {
  if (size == 0) return;
  void* mapping = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  S4E_CHECK_MSG(mapping != MAP_FAILED, "PageBuffer: mmap failed");
  // Keep first-touch cost at one small page: on hosts with transparent
  // huge pages set to "always", a touch would otherwise zero 2 MiB. Advice
  // only — a kernel without THP support may refuse it harmlessly.
  (void)madvise(mapping, size, MADV_NOHUGEPAGE);
  data_ = static_cast<u8*>(mapping);
  size_ = size;
}

PageBuffer::~PageBuffer() { release(); }

void PageBuffer::release() noexcept {
  if (data_ != nullptr) munmap(data_, size_);
  data_ = nullptr;
  size_ = 0;
}

}  // namespace s4e::vp
