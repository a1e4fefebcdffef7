// Other-side determination heuristic (paper §4.2).
//
// Point-to-point links are numbered from /30 or /31 prefixes. For every
// address seen in the dataset (including traces the sanitizer discards) the
// heuristic decides which prefix length applies and therefore which address
// sits on the far end of the link:
//
//   * addresses that are reserved in their /30 (low bits 00 or 11) can only
//     be /31-numbered -> other side is the /31 sibling;
//   * valid /30 host addresses are /31-numbered iff some *different*
//     address in the dataset occupies a reserved slot of their /30;
//     otherwise they are assumed /30-numbered -> other side is the /30
//     partner host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "net/flat_set.h"
#include "net/ipv4.h"

namespace mapit::graph {

/// How an interface's point-to-point prefix length was decided.
enum class PrefixInference : std::uint8_t {
  kSlash31Reserved,  ///< address is reserved in its /30, must be /31
  kSlash31Witness,   ///< a reserved /30 slot was seen in the dataset
  kSlash30,          ///< default assumption
};

struct OtherSide {
  net::Ipv4Address address;       ///< far end of the link prefix
  PrefixInference inference = PrefixInference::kSlash30;

  [[nodiscard]] bool is_slash31() const {
    return inference != PrefixInference::kSlash30;
  }
};

/// Immutable map from every dataset address to its inferred other side.
/// The decision is a pure function of the address and the witnesses: the
/// dataset addresses that are reserved in their /30 (low bits 00 or 11),
/// the only ones a decision ever asks about. The map stores just those, in
/// a flat hash set, and decides each query with at most two probes.
class OtherSideMap {
 public:
  /// Builds the map from all addresses seen in any trace (any order,
  /// duplicates allowed; sorted input is not copied).
  explicit OtherSideMap(std::span<const net::Ipv4Address> addresses);

  /// The other side of `address`. Addresses not in the build set still get
  /// a deterministic answer (computed against the build set's witnesses).
  [[nodiscard]] OtherSide other_side(net::Ipv4Address address) const;

  /// Shorthand for other_side().address.
  [[nodiscard]] net::Ipv4Address other_address(net::Ipv4Address a) const {
    return other_side(a).address;
  }

  /// Fraction of build-set addresses inferred to be /31-numbered (the paper
  /// reports 40.4% on Ark).
  [[nodiscard]] double slash31_fraction() const { return slash31_fraction_; }

  /// Distinct build-set addresses.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  net::FlatSet64 witnesses_;
  std::size_t size_ = 0;
  double slash31_fraction_ = 0.0;
};

}  // namespace mapit::graph
