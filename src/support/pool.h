// Size-classed memory pool for per-trial container state.
//
// The experiment runner executes thousands of trials back to back; each
// trial's node-local hash maps would otherwise malloc/free every map node
// and bucket array. Pool recycles that memory: allocations are served from
// size-class free lists backed by chunked slabs, deallocations
// push onto the free list, and nothing is returned to the system until the
// pool dies. After a warm-up trial has grown the free lists to the
// working-set size, a trial allocates nothing from the heap — the
// "zero allocations per trial" contract checked by
// bench_micro_primitives' BM_WarmTrialAllocations.
//
// PoolAllocator adapts a Pool to the std::allocator interface so standard
// containers can draw from it. Allocator identity does not affect
// unordered_map iteration order (bucket growth and hashing are unchanged),
// which the golden-fingerprint suite relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/types.h"

namespace fba::support {

class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void* allocate(std::size_t bytes) {
    const std::size_t cls = size_class(bytes);
    if (cls >= kNumClasses) {  // oversized: plain heap, not recycled
      return ::operator new(bytes);
    }
    if (FreeBlock* head = free_[cls]) {
      free_[cls] = head->next;
      return head;
    }
    return carve(cls);
  }

  void deallocate(void* p, std::size_t bytes) {
    const std::size_t cls = size_class(bytes);
    if (cls >= kNumClasses) {
      ::operator delete(p);
      return;
    }
    // Intrusive free list: the link lives in the freed block itself (the
    // minimum class is 16 bytes), so recycling never touches the heap.
    auto* block = static_cast<FreeBlock*>(p);
    block->next = free_[cls];
    free_[cls] = block;
  }

  /// Bytes held in chunks (diagnostics).
  std::size_t reserved_bytes() const { return reserved_; }

 private:
  // Classes step by 16 bytes up to 256 B, so a map node or a small bucket
  // array wastes under 16 bytes (a power-of-two class would round an 80-byte
  // node up to 128); above that they are powers of two up to 16 MiB (a large
  // trial's bucket array / row slab). Every class is a multiple of 16, so
  // blocks carved back to back stay 16-byte aligned.
  static constexpr std::size_t kStep = 16;
  static constexpr std::size_t kSteppedClasses = 16;   // 16 B .. 256 B
  static constexpr std::size_t kNumClasses = kSteppedClasses + 16;  // .. 16 MiB
  static constexpr std::size_t kChunkBytes = 1 << 18;  // 256 KiB slabs

  static std::size_t size_class(std::size_t bytes) {
    if (bytes <= kStep * kSteppedClasses) {
      return bytes <= kStep ? 0 : (bytes - 1) / kStep;
    }
    std::size_t cls = kSteppedClasses;
    while (class_bytes(cls) < bytes) ++cls;
    return cls;
  }

  static std::size_t class_bytes(std::size_t cls) {
    if (cls < kSteppedClasses) return (cls + 1) * kStep;
    return (kStep * kSteppedClasses) << (cls - kSteppedClasses + 1);
  }

  void* carve(std::size_t cls) {
    const std::size_t bytes = class_bytes(cls);
    if (bytes >= kChunkBytes) {  // one allocation per block at large sizes
      chunks_.emplace_back(static_cast<char*>(::operator new(bytes)));
      reserved_ += bytes;
      return chunks_.back().get();
    }
    if (bump_ == nullptr || bump_left_ < bytes) {
      chunks_.emplace_back(static_cast<char*>(::operator new(kChunkBytes)));
      reserved_ += kChunkBytes;
      bump_ = chunks_.back().get();
      bump_left_ = kChunkBytes;
    }
    void* p = bump_;
    bump_ += bytes;
    bump_left_ -= bytes;
    return p;
  }

  struct FreeBlock {
    FreeBlock* next;
  };
  struct OpDelete {
    void operator()(char* p) const { ::operator delete(p); }
  };
  std::vector<std::unique_ptr<char[], OpDelete>> chunks_;
  char* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  std::size_t reserved_ = 0;
  FreeBlock* free_[kNumClasses] = {};
};

/// std::allocator adapter over a Pool. The pool must outlive every container
/// bound to it.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(Pool* pool) : pool_(pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    pool_->deallocate(p, n * sizeof(T));
  }

  Pool* pool() const { return pool_; }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return pool_ == other.pool();
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>& other) const {
    return pool_ != other.pool();
  }

 private:
  Pool* pool_;
};

}  // namespace fba::support
