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

/// Appends a frame header whose payload length close_frame fills in, and
/// returns its offset in `out`.
std::size_t open_frame(std::string& out) {
  const std::size_t header = out.size();
  out.append(4, '\0');
  return header;
}

/// Patches the little-endian payload length (everything appended after the
/// 4-byte header) into the header open_frame left at `header`.
void close_frame(std::string& out, std::size_t header) {
  const auto length = static_cast<std::uint32_t>(out.size() - header - 4);
  char* bytes = out.data() + header;
  bytes[0] = static_cast<char>(length & 0xFF);
  bytes[1] = static_cast<char>((length >> 8) & 0xFF);
  bytes[2] = static_cast<char>((length >> 16) & 0xFF);
  bytes[3] = static_cast<char>((length >> 24) & 0xFF);
}

/// "ERR request <what> exceeds <bound> bytes".
void append_oversized(std::string& out, std::string_view what,
                      std::size_t bound) {
  out.append("ERR request ").append(what).append(" exceeds ");
  append_decimal(out, bound);
  out.append(" bytes");
}

}  // namespace

void append_binary_frame(std::string& out, std::string_view payload) {
  const std::size_t header = open_frame(out);
  out.append(payload);
  close_frame(out, header);
}

ProtocolSession::ProtocolSession(const QueryEngine& engine,
                                 std::size_t max_line_bytes, HealthFn health)
    : engine_(&engine),
      max_line_bytes_(max_line_bytes),
      health_(std::move(health)) {}

void ProtocolSession::append_answer(std::string& out,
                                    std::string_view query) const {
  // Without a server behind it there is no health to report; the engine's
  // ERR answer keeps the one-answer-per-request invariant.
  if (query == "HEALTH" && health_) {
    health_(out);
  } else {
    engine_->append_answer(out, query);
  }
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
      append_oversized(out, "line", max_line_bytes_);
    } else {
      append_answer(out, line);
    }
    out += '\n';
  }
  in_.erase(0, start);
  // An incomplete line past the bound is answered and discarded NOW — the
  // buffer must stay bounded no matter how much the client streams without
  // a newline. One trailing '\r' does not count: it may be the first half
  // of the CRLF that ends a line of exactly the bound, which must get the
  // same answer however the reads split it.
  std::size_t pending = in_.size();
  if (pending > 0 && in_.back() == '\r') --pending;
  if (pending > max_line_bytes_) {
    append_oversized(out, "line", max_line_bytes_);
    out += '\n';
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
      const std::size_t header = open_frame(out);
      append_oversized(out, "frame", max_line_bytes_);
      close_frame(out, header);
      discard_frame_bytes_ = length;
      start += 4;
      continue;
    }
    if (in_.size() - start < 4 + static_cast<std::size_t>(length)) {
      break;  // frame not complete yet
    }
    const std::size_t header = open_frame(out);
    append_answer(out, std::string_view(in_.data() + start + 4, length));
    close_frame(out, header);
    start += 4 + static_cast<std::size_t>(length);
  }
  in_.erase(0, start);
}

}  // namespace mapit::query
