// A grow-only array of trivially copyable values that grows in place.
//
// std::vector grows by allocating a new block and copying the old one into
// it. For the event core's slot- and edge-indexed tables, which are as deep
// as the live backlog and only ever grow, that copy and the page faults of
// the fresh block are most of what admitting an instance costs. PodArray
// grows through std::realloc instead: glibc serves a large block with mmap
// and moves it with mremap, so a doubling neither copies the pages nor
// faults them in again. That is sound only for trivially copyable values,
// which a static_assert enforces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/contracts.hpp"

namespace apt::util {

template <typename T>
class PodArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodArray moves its block with realloc: T must be trivially "
                "copyable");

 public:
  PodArray() = default;
  PodArray(const PodArray& other) { *this = other; }
  PodArray& operator=(const PodArray& other) {
    if (this != &other) {
      size_ = 0;
      if (other.size_ > capacity_) reserve(other.size_);
      if (other.size_ != 0)
        std::memcpy(static_cast<void*>(data_), other.data_,
                    other.size_ * sizeof(T));
      size_ = other.size_;
    }
    return *this;
  }
  ~PodArray() { std::free(data_); }

  std::size_t size() const noexcept { return size_; }
  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }

  T& operator[](std::size_t i) noexcept {
    APT_ASSERT(i < size_, "PodArray index %zu out of range (size %zu)", i,
               size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const noexcept {
    APT_ASSERT(i < size_, "PodArray index %zu out of range (size %zu)", i,
               size_);
    return data_[i];
  }

  T& at(std::size_t i) {
    check(i);
    return data_[i];
  }
  const T& at(std::size_t i) const {
    check(i);
    return data_[i];
  }

  /// Grows to `n` elements, each new one a copy of `fill`; never shrinks,
  /// so a smaller `n` leaves the array as it is. Capacity at least doubles,
  /// and elements keep their values across the move.
  void resize(std::size_t n, T fill = T{}) {
    if (n <= size_) return;
    if (n > capacity_) reserve(std::max(n, 2 * capacity_));
    for (std::size_t i = size_; i < n; ++i) ::new (data_ + i) T(fill);
    size_ = n;
  }

 private:
  void reserve(std::size_t capacity) {
    if (capacity > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::length_error("PodArray: size overflow");
    void* grown = std::realloc(data_, capacity * sizeof(T));
    if (grown == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(grown);
    capacity_ = capacity;
  }

  void check(std::size_t i) const {
    if (i >= size_)
      throw std::out_of_range("PodArray::at: index " + std::to_string(i) +
                              " >= size " + std::to_string(size_));
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace apt::util
