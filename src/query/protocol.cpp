#include "query/protocol.h"

#include <algorithm>
#include <cstring>

namespace mapit::query {

namespace {

std::uint32_t read_le32(const char* bytes) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3]))
             << 24;
}

}  // namespace

void append_binary_frame(std::string& out, std::string_view payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  const char header[4] = {
      static_cast<char>(length & 0xFF),
      static_cast<char>((length >> 8) & 0xFF),
      static_cast<char>((length >> 16) & 0xFF),
      static_cast<char>((length >> 24) & 0xFF),
  };
  out.append(header, sizeof(header));
  out.append(payload);
}

ProtocolSession::ProtocolSession(const QueryEngine& engine,
                                 std::size_t max_line_bytes, HealthFn health)
    : engine_(&engine),
      max_line_bytes_(max_line_bytes),
      health_(std::move(health)) {}

std::string ProtocolSession::answer_health() {
  // Without a server behind it there is no health to report; the engine's
  // ERR answer keeps the one-answer-per-request invariant.
  return health_ ? health_() : engine_->answer("HEALTH");
}

void ProtocolSession::feed(std::string_view bytes, std::string& out) {
  in_.append(bytes);
  process(out);
}

void ProtocolSession::feed(const QueryEngine& engine, std::string_view bytes,
                           std::string& out) {
  engine_ = &engine;
  feed(bytes, out);
}

void ProtocolSession::process(std::string& out) {
  if (mode_ == Mode::kUndecided) {
    const std::size_t probe =
        std::min(in_.size(), sizeof(kBinaryProtocolMagic));
    if (std::memcmp(in_.data(), kBinaryProtocolMagic, probe) != 0) {
      // Not a prefix of the magic: an ordinary line client (no query verb
      // starts with 'M', so this decides on the very first byte).
      mode_ = Mode::kLine;
    } else if (in_.size() >= sizeof(kBinaryProtocolMagic)) {
      mode_ = Mode::kBinary;
      in_.erase(0, sizeof(kBinaryProtocolMagic));
    } else {
      return;  // a strict prefix of the magic: wait for more bytes
    }
  }
  if (mode_ == Mode::kLine) {
    process_line(out);
  } else {
    process_binary(out);
  }
}

void ProtocolSession::process_line(std::string& out) {
  std::size_t start = 0;
  if (discarding_line_) {
    const std::size_t newline = in_.find('\n');
    if (newline == std::string::npos) {
      in_.clear();
      return;
    }
    start = newline + 1;
    discarding_line_ = false;
  }
  while (true) {
    const std::size_t newline = in_.find('\n', start);
    if (newline == std::string::npos) break;
    std::string_view line(in_.data() + start, newline - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = newline + 1;
    if (line.empty()) continue;  // blank keep-alive lines get no answer
    if (line.size() > max_line_bytes_) {
      out += "ERR request line exceeds " + std::to_string(max_line_bytes_) +
             " bytes";
    } else if (line == "HEALTH") {
      out += answer_health();
    } else {
      out += engine_->answer(line);
    }
    out += '\n';
  }
  in_.erase(0, start);
  // An incomplete line past the bound is answered and discarded NOW — the
  // buffer must stay bounded no matter how much the client streams without
  // a newline.
  if (in_.size() > max_line_bytes_) {
    out += "ERR request line exceeds " + std::to_string(max_line_bytes_) +
           " bytes\n";
    in_.clear();
    in_.shrink_to_fit();
    discarding_line_ = true;
  }
}

void ProtocolSession::process_binary(std::string& out) {
  std::size_t start = 0;
  while (true) {
    if (discard_frame_bytes_ > 0) {
      const std::size_t available = in_.size() - start;
      const std::size_t eaten = static_cast<std::size_t>(
          std::min<std::uint64_t>(discard_frame_bytes_, available));
      start += eaten;
      discard_frame_bytes_ -= eaten;
      if (discard_frame_bytes_ > 0) break;  // need more to skip
    }
    if (in_.size() - start < 4) break;
    const std::uint32_t length = read_le32(in_.data() + start);
    if (length > max_line_bytes_) {
      // Oversized frame: one ERR response frame, payload skipped, the
      // session survives — the binary protocol's ERR-and-discard rule.
      append_binary_frame(out, "ERR request frame exceeds " +
                                   std::to_string(max_line_bytes_) +
                                   " bytes");
      discard_frame_bytes_ = length;
      start += 4;
      continue;
    }
    if (in_.size() - start < 4 + static_cast<std::size_t>(length)) {
      break;  // frame not complete yet
    }
    const std::string_view query(in_.data() + start + 4, length);
    if (query == "HEALTH") {
      append_binary_frame(out, answer_health());
    } else {
      append_binary_frame(out, engine_->answer(query));
    }
    start += 4 + static_cast<std::size_t>(length);
  }
  in_.erase(0, start);
}

}  // namespace mapit::query
