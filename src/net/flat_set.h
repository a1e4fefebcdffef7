// Open-addressing hash set of 64-bit keys.
//
// The cold path reduces millions of hop and adjacency occurrences to a few
// thousand distinct addresses and (from, to) pairs. A node-based
// std::unordered_set allocates once per element; this set keeps every key
// in one power-of-two slot array with linear probing, so memory grows with
// distinct keys only and re-inserting a present key allocates nothing.
//
// kEmpty marks a free slot and is not a valid key. Address keys (< 2^32)
// and pair keys `from << 32 | to` with from != to never reach it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/ipv4.h"

namespace mapit::net {

class FlatSet64 {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Inserts `key` (must not be kEmpty). True when it was not present.
  bool insert(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t at = slot_of(key);
    if (slots_[at] == key) return false;
    slots_[at] = key;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return !slots_.empty() && slots_[slot_of(key)] == key;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Calls fn(key) for every key, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t key : slots_) {
      if (key != kEmpty) fn(key);
    }
  }

 private:
  /// The slot holding `key`, or the free slot where it belongs.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    // murmur3's 64-bit finalizer: consecutive addresses and pair keys that
    // differ only in their low word still spread over the whole table.
    std::uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = static_cast<std::size_t>(h) & mask;
    while (slots_[at] != kEmpty && slots_[at] != key) at = (at + 1) & mask;
    return at;
  }

  void grow() {
    std::vector<std::uint64_t> old(std::max<std::size_t>(64, 2 * slots_.size()),
                                   kEmpty);
    old.swap(slots_);
    for (std::uint64_t key : old) {
      if (key != kEmpty) slots_[slot_of(key)] = key;
    }
  }

  std::vector<std::uint64_t> slots_;  // size 0 or a power of two
  std::size_t size_ = 0;
};

/// The address keys of `set`, ascending.
[[nodiscard]] inline std::vector<Ipv4Address> sorted_addresses(
    const FlatSet64& set) {
  std::vector<Ipv4Address> out;
  out.reserve(set.size());
  set.for_each([&](std::uint64_t key) {
    out.emplace_back(static_cast<std::uint32_t>(key));
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mapit::net
