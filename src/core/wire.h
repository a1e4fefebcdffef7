// Low-level wire helpers shared by the checkpoint/journal artifact family
// (checkpoint.cpp, journal.cpp, and the engine state blob in engine.cpp):
// host-endian integer append and a bounds-checked cursor. Their CRC-32 is
// net/crc32.h, shared with store/.
//
// Internal to core — not part of the public surface.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "core/checkpoint.h"

namespace mapit::core::wire {

inline void append_u16(std::string& out, std::uint16_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void append_u32(std::string& out, std::uint32_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void append_u64(std::string& out, std::uint64_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Bounds-checked forward reader over a byte buffer; every overrun is a
/// CheckpointError naming `what`, never an out-of-range memory read.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes,
                  std::string what = "checkpoint payload")
      : bytes_(bytes), what_(std::move(what)) {}

  [[nodiscard]] std::uint8_t read_u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[offset_++]);
  }

  [[nodiscard]] std::uint16_t read_u16() {
    need(2);
    std::uint16_t value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(value));
    offset_ += sizeof(value);
    return value;
  }

  [[nodiscard]] std::uint32_t read_u32() {
    need(4);
    std::uint32_t value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(value));
    offset_ += sizeof(value);
    return value;
  }

  [[nodiscard]] std::uint64_t read_u64() {
    need(8);
    std::uint64_t value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(value));
    offset_ += sizeof(value);
    return value;
  }

  [[nodiscard]] std::string_view read_bytes(std::uint64_t count) {
    need(count);
    std::string_view out = bytes_.substr(offset_, count);
    offset_ += count;
    return out;
  }

  [[nodiscard]] std::string_view rest() {
    std::string_view out = bytes_.substr(offset_);
    offset_ = bytes_.size();
    return out;
  }

  [[nodiscard]] bool exhausted() const { return offset_ == bytes_.size(); }

 private:
  void need(std::uint64_t count) const {
    if (count > bytes_.size() - offset_) {
      throw CheckpointError(what_ + " truncated");
    }
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
  std::string what_;
};

}  // namespace mapit::core::wire
