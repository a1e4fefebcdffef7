// IPv4 address value type.
//
// Addresses are stored in host byte order so that arithmetic (prefix masks,
// /31 sibling computation) is plain integer math. Conversion to and from
// dotted-quad text lives here as well.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace mapit::net {

/// An IPv4 address. A small, trivially copyable value type.
class Ipv4Address {
 public:
  /// Zero address (0.0.0.0).
  constexpr Ipv4Address() = default;

  /// Constructs from a host-byte-order 32-bit value.
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}

  /// Constructs from four octets, most significant first.
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  /// Host-byte-order integer value.
  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }

  /// Octet `i` (0 = most significant). Precondition: i < 4.
  [[nodiscard]] constexpr std::uint8_t octet(int i) const {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  /// Parses dotted-quad text ("198.71.46.180"). Returns nullopt on any
  /// syntax error (extra characters, octet overflow, missing octets).
  [[nodiscard]] static std::optional<Ipv4Address> parse(std::string_view text);

  /// Like parse() but throws mapit::ParseError with context on failure.
  [[nodiscard]] static Ipv4Address parse_or_throw(std::string_view text);

  /// Longest dotted quad ("255.255.255.255").
  static constexpr std::size_t kMaxTextBytes = 15;

  /// Writes the dotted quad (7 to kMaxTextBytes bytes, each octet as
  /// std::to_string prints it) at `out` and returns the end of the text.
  [[nodiscard]] char* to_chars(char* out) const;

  /// Dotted-quad representation.
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

 private:
  std::uint32_t value_ = 0;
};

std::ostream& operator<<(std::ostream& os, Ipv4Address addr);

}  // namespace mapit::net

template <>
struct std::hash<mapit::net::Ipv4Address> {
  std::size_t operator()(mapit::net::Ipv4Address a) const noexcept {
    // Splitmix-style avalanche so consecutive addresses spread across
    // unordered_map buckets.
    std::uint64_t x = a.value();
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};
