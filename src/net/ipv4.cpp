#include "net/ipv4.h"

#include <array>
#include <ostream>

#include "net/error.h"

namespace mapit::net {

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::array<std::uint32_t, 4> octets{};
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
      return std::nullopt;
    }
    std::uint32_t value = 0;
    std::size_t digits = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      value = value * 10 + static_cast<std::uint32_t>(text[pos] - '0');
      ++digits;
      ++pos;
      if (digits > 3 || value > 255) return std::nullopt;
    }
    octets[static_cast<std::size_t>(i)] = value;
    if (i < 3) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
  }
  if (pos != text.size()) return std::nullopt;
  return Ipv4Address((octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) |
                     octets[3]);
}

Ipv4Address Ipv4Address::parse_or_throw(std::string_view text) {
  auto parsed = parse(text);
  if (!parsed) {
    throw ParseError("invalid IPv4 address: '" + std::string(text) + "'");
  }
  return *parsed;
}

char* Ipv4Address::to_chars(char* out) const {
  for (int i = 0; i < 4; ++i) {
    if (i > 0) *out++ = '.';
    const unsigned value = octet(i);
    if (value >= 100) *out++ = static_cast<char>('0' + value / 100);
    if (value >= 10) *out++ = static_cast<char>('0' + value / 10 % 10);
    *out++ = static_cast<char>('0' + value % 10);
  }
  return out;
}

std::string Ipv4Address::to_string() const {
  char text[kMaxTextBytes];
  return std::string(text, to_chars(text));
}

std::ostream& operator<<(std::ostream& os, Ipv4Address addr) {
  return os << addr.to_string();
}

}  // namespace mapit::net
