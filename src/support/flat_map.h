// Open-addressed hash containers for the simulator's per-delivery state.
//
// FlatMap64 / FlatSet64 replace std::unordered_map / set on lookup-heavy
// protocol hot paths: one flat slot array, linear probing, power-of-two
// capacity, no per-entry allocation. clear() keeps capacity, so per-trial
// reuse performs no heap work once warm.
//
// IMPORTANT scope restriction: these containers are deliberately
// *unordered and non-iterable*, so results are identical regardless of
// capacity history, which keeps arena-reused trials bit-identical to fresh
// ones. Simulation behavior depends on the order messages are sent, so
// state that is iterated to send cannot be walked through a FlatMap64: it
// keeps its records in a first-insertion-order chain next to the index,
// and the one loop that iterates it replays the iteration order of the
// std::unordered_map it replaced (support::OrderReplay in support/pool.h;
// aer/soa.h's retained relay and responder state).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/types.h"

namespace fba::support {

/// Open-addressed map from a 64-bit key to V. The key 2^64-1 is reserved as
/// the empty sentinel (never legal here: keys are StringIds or packed
/// (node, string) pairs with node < n). No erase — per-trial state is
/// cleared wholesale.
template <typename V>
class FlatMap64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  FlatMap64() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drops all entries, keeping capacity.
  void clear() {
    if (size_ == 0) return;
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    size_ = 0;
  }

  V* find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &values_[i];
      if (keys_[i] == kEmptyKey) return nullptr;
    }
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Returns the value for `key`, default-constructing it on first sight.
  V& get_or_create(std::uint64_t key) {
    bool unused;
    return get_or_create(key, unused);
  }
  V& get_or_create(std::uint64_t key, bool& created) {
    FBA_ASSERT(key != kEmptyKey, "FlatMap64 key collides with the sentinel");
    if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3) grow();
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        created = false;
        return values_[i];
      }
      if (keys_[i] == kEmptyKey) {
        keys_[i] = key;
        values_[i] = V{};
        ++size_;
        created = true;
        return values_[i];
      }
    }
  }

 private:
  std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) &
           mask_;
  }

  void grow() {
    const std::size_t cap = keys_.empty() ? 16 : keys_.size() * 2;
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(cap, kEmptyKey);
    values_.assign(cap, V{});
    mask_ = cap - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      for (std::size_t j = slot_of(old_keys[i]);; j = (j + 1) & mask_) {
        if (keys_[j] != kEmptyKey) continue;
        keys_[j] = old_keys[i];
        values_[j] = std::move(old_values[i]);
        ++size_;
        break;
      }
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Open-addressed membership set over 64-bit keys; same restrictions as
/// FlatMap64.
class FlatSet64 {
 public:
  std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }
  bool contains(std::uint64_t key) const { return map_.contains(key); }

  /// Returns true when the key was newly inserted.
  bool insert(std::uint64_t key) {
    bool created;
    map_.get_or_create(key, created);
    return created;
  }

 private:
  struct Unit {};
  FlatMap64<Unit> map_;
};

}  // namespace fba::support
