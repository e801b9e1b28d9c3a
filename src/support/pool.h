// Size-classed memory pool, and the order replay it backs.
//
// Flat containers (support/flat_map.h) have no iteration order, but some
// simulator state is iterated to *send*, and send order is behavior: the
// golden fingerprints pin the order in which libstdc++'s std::unordered_map
// used to iterate aer::SoaAerState's retained relay and responder maps.
// That state now lives in flat indexes plus a first-insertion-order chain,
// and OrderReplay rebuilds the old order on demand: with unique keys and no
// erase, a std::unordered_map's iteration order depends only on the
// sequence of distinct keys inserted (bucket growth and hashing are
// functions of that sequence; the mapped type and the allocator play no
// part), so re-inserting the same keys in the same order into a fresh map
// of the same key type iterates them the same way.
//
// Pool gives those short-lived replay maps their nodes and bucket arrays:
// allocations are served from size-class free lists backed by chunked
// slabs, deallocations push onto the free list, and nothing is returned to
// the system until the pool dies. After a warm-up trial has grown the free
// lists to the working-set size, a trial allocates nothing from the heap —
// the "zero allocations per trial" contract checked by
// bench_micro_primitives' BM_WarmTrialAllocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
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

/// Replays the iteration order of a std::unordered_map<K, V> (any V, any
/// allocator) that was built by inserting distinct keys in some order and
/// never erased from. Feed the same keys in the same first-insertion order
/// through add(), each tagged with a caller index (typically a record id);
/// for_each() then visits the tags in the live map's iteration order. The
/// replay map draws from `pool` and returns everything to it on
/// destruction, so a warm pool makes a replay allocation-free.
template <typename K>
class OrderReplay {
 public:
  explicit OrderReplay(Pool* pool) : map_(Alloc(pool)) {}

  /// Inserts `key`, tagged with `index`. A repeated key keeps its first tag
  /// and, like a repeated live insert, does not change the order.
  void add(K key, std::uint32_t index) { map_.emplace(key, index); }

  /// Calls visit(index) for every key, in the replayed iteration order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& entry : map_) visit(entry.second);
  }

 private:
  using Alloc = PoolAllocator<std::pair<const K, std::uint32_t>>;
  std::unordered_map<K, std::uint32_t, std::hash<K>, std::equal_to<K>, Alloc>
      map_;
};

}  // namespace fba::support
