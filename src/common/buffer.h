// AlignedBuffer: a fixed-capacity, cache-line/SIMD aligned heap array.
//
// This is the storage primitive under both host vectors and the simulated
// device memory (device::DeviceBuffer).  Alignment to 64 bytes matches both
// x86 cache lines and AVX-512 lanes so the BLAS kernels can assume aligned
// loads on the leading element.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/types.h"

namespace fastsc {

/// Byte alignment used for all numeric storage.
inline constexpr usize kBufferAlignment = 64;

namespace detail {
/// Allocate `bytes` aligned to `alignment` (<= the page size); requests of
/// 128 KiB and up are page-rounded anonymous mappings.  Free with the same
/// byte count.
void* aligned_alloc_bytes(usize bytes, usize alignment);
void aligned_free_bytes(void* p, usize bytes) noexcept;
}  // namespace detail

/// Owning, aligned, non-resizable array of trivially-copyable T.
///
/// Unlike std::vector this never default-initializes on allocation paths that
/// immediately overwrite (see uninitialized tag), which matters for the large
/// scratch arrays in the Lanczos basis and the k-means distance matrix.
template <class T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedBuffer only supports trivially copyable types");

 public:
  struct uninitialized_t {};
  static constexpr uninitialized_t uninitialized{};

  AlignedBuffer() noexcept = default;

  /// Allocate and zero-fill n elements.
  explicit AlignedBuffer(usize n) : AlignedBuffer(n, uninitialized) {
    if (n != 0) std::memset(data_, 0, n * sizeof(T));
  }

  /// Allocate n elements without initializing them.
  AlignedBuffer(usize n, uninitialized_t) : size_(n) {
    if (n != 0) {
      data_ = static_cast<T*>(
          detail::aligned_alloc_bytes(n * sizeof(T), kBufferAlignment));
    }
  }

  AlignedBuffer(const AlignedBuffer& other)
      : AlignedBuffer(other.size_, uninitialized) {
    if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      AlignedBuffer tmp(other);
      swap(tmp);
    }
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept { swap(other); }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      swap(other);
    }
    return *this;
  }

  ~AlignedBuffer() { reset(); }

  void swap(AlignedBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  void reset() noexcept {
    if (data_ != nullptr) detail::aligned_free_bytes(data_, size_bytes());
    data_ = nullptr;
    size_ = 0;
  }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] usize size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] usize size_bytes() const noexcept { return size_ * sizeof(T); }

  T& operator[](usize i) noexcept { return data_[i]; }
  const T& operator[](usize i) const noexcept { return data_[i]; }

  [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data_, size_};
  }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  void fill(const T& value) {
    for (usize i = 0; i < size_; ++i) data_[i] = value;
  }

 private:
  T* data_ = nullptr;
  usize size_ = 0;
};

}  // namespace fastsc
