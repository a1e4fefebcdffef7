// Open-addressing hash containers keyed by 64-bit and address keys.
//
// The cold path reduces millions of hop and adjacency occurrences to a few
// thousand distinct addresses and (from, to) pairs. A node-based
// std::unordered_set allocates once per element; these containers keep
// every entry in one power-of-two slot array with linear probing, so memory
// grows with distinct keys only and re-inserting a present key allocates
// nothing.
//
// kEmpty marks a free slot and is not a valid entry. Address keys (< 2^32)
// and pair keys `from << 32 | to` with from != to never reach it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/ipv4.h"

namespace mapit::net {

namespace detail {

/// The probing core both containers share: a power-of-two array of 64-bit
/// slots, at most half full. A slot is kEmpty or holds one entry, whose
/// key is `entry >> kKeyShift`.
template <unsigned kKeyShift>
class FlatSlots {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Stores `entry` (not kEmpty) unless an entry with its key is present.
  /// True when it was not.
  bool insert(std::uint64_t entry) {
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    const std::size_t at = slot_of(entry >> kKeyShift);
    if (slots_[at] != kEmpty) return false;
    slots_[at] = entry;
    ++size_;
    return true;
  }

  /// The entry with `key`, or kEmpty.
  [[nodiscard]] std::uint64_t find(std::uint64_t key) const {
    return slots_.empty() ? kEmpty : slots_[slot_of(key)];
  }

  /// Sizes the table once for `count` entries, so inserting that many
  /// never grows it.
  void reserve(std::size_t count) {
    if (2 * count > slots_.size()) rehash(std::bit_ceil(2 * count));
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Calls fn(entry) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t entry : slots_) {
      if (entry != kEmpty) fn(entry);
    }
  }

 private:
  /// The slot holding `key`'s entry, or the free slot where it belongs.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    // murmur3's 64-bit finalizer: consecutive addresses and pair keys that
    // differ only in their low word still spread over the whole table.
    std::uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = static_cast<std::size_t>(h) & mask;
    while (slots_[at] != kEmpty && (slots_[at] >> kKeyShift) != key) {
      at = (at + 1) & mask;
    }
    return at;
  }

  void rehash(std::size_t slots) {
    std::vector<std::uint64_t> old(std::max<std::size_t>(64, slots), kEmpty);
    old.swap(slots_);
    for (std::uint64_t entry : old) {
      if (entry != kEmpty) slots_[slot_of(entry >> kKeyShift)] = entry;
    }
  }

  std::vector<std::uint64_t> slots_;  // size 0 or a power of two
  std::size_t size_ = 0;
};

}  // namespace detail

/// Set of 64-bit keys.
class FlatSet64 {
 public:
  static constexpr std::uint64_t kEmpty = detail::FlatSlots<0>::kEmpty;

  /// Inserts `key` (must not be kEmpty). True when it was not present.
  bool insert(std::uint64_t key) { return slots_.insert(key); }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return slots_.find(key) != kEmpty;
  }

  /// Sizes the set once for `count` keys.
  void reserve(std::size_t count) { slots_.reserve(count); }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Calls fn(key) for every key, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    slots_.for_each(fn);
  }

 private:
  detail::FlatSlots<0> slots_;
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

/// Map from an address to a dense index (< kAbsent). Each entry packs
/// `address << 32 | index`; an index is never kAbsent, so no entry, not
/// even 255.255.255.255's, equals the empty slot.
class AddressIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// Maps `address` to `index` unless the address is already present (its
  /// index is then kept). True when it was not present.
  bool insert(Ipv4Address address, std::uint32_t index) {
    return slots_.insert(std::uint64_t{address.value()} << 32 | index);
  }

  /// The index of `address`, or kAbsent.
  [[nodiscard]] std::uint32_t find(Ipv4Address address) const {
    const std::uint64_t entry = slots_.find(address.value());
    return entry == detail::FlatSlots<32>::kEmpty
               ? kAbsent
               : static_cast<std::uint32_t>(entry);
  }

  /// Sizes the index once for `count` addresses.
  void reserve(std::size_t count) { slots_.reserve(count); }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

 private:
  detail::FlatSlots<32> slots_;
};

}  // namespace mapit::net
