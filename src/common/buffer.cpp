#include "common/buffer.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <limits>

namespace fastsc::detail {

namespace {

/// Requests at or above this size get their own anonymous mapping, so the
/// pages return to the OS on free.  glibc would serve them from its heap
/// once its dynamic mmap threshold has risen past them, and keep the freed
/// per-solve device buffers as resident free heap.  AddressSanitizer builds
/// keep every buffer on the heap, where its redzones catch overflows.
#if defined(__SANITIZE_ADDRESS__)
constexpr usize kMmapThresholdBytes = std::numeric_limits<usize>::max();
#else
constexpr usize kMmapThresholdBytes = usize{128} << 10;
#endif

usize page_rounded(usize bytes) {
  static const auto page = static_cast<usize>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

void* aligned_alloc_bytes(usize bytes, usize alignment) {
  if (bytes >= kMmapThresholdBytes) {
    // Page-aligned, which covers any alignment up to the page size.
    // Populated up front, like a cudaMalloc: the page faults land here, not
    // inside the first kernel that writes the buffer and its timed region.
    void* p = mmap(nullptr, page_rounded(bytes), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc{};
    return p;
  }
  // std::aligned_alloc requires the size to be a multiple of the alignment.
  const usize rounded = (bytes + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void aligned_free_bytes(void* p, usize bytes) noexcept {
  if (bytes >= kMmapThresholdBytes) {
    munmap(p, page_rounded(bytes));
  } else {
    std::free(p);
  }
}

}  // namespace fastsc::detail
