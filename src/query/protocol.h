// Socketless protocol state machine shared by the query servers and the
// in-process fuzz/replay harnesses.
//
// A ProtocolSession is exactly one connection's request-side framing,
// factored out of the event loop so the same production code can be driven
// from an epoll readiness callback, a unit test, or a libFuzzer harness —
// bytes in, answer bytes out, no sockets anywhere.
//
// Protocols (identical to the AsyncServer wire behavior, which delegates
// here):
//   * Line protocol — one '\n'-terminated query per line (CRLF tolerated),
//     exactly one answer line per non-empty request line. A line longer
//     than `max_line_bytes` is answered with an ERR line and discarded
//     through its terminating newline; the session survives.
//   * Binary protocol — a session whose first four bytes are the magic
//     "MQB1" switches to length-prefixed framing: `uint32 little-endian
//     payload length` + payload, one protocol line per request frame, one
//     answer frame per request. An oversized frame is answered with an ERR
//     frame and its payload is skipped; the session survives. The magic
//     contains no '\n' and no query verb starts with 'M', so mode sniffing
//     is decided by the very first byte; a strict prefix of the magic
//     simply waits for more bytes.
//
// The "HEALTH" request is server-level, not engine-level: the owner
// supplies a callback appending the health line (servers report uptime and
// connection counters); without one, HEALTH falls through to the engine,
// which answers ERR — harnesses that only care about framing need no fake
// server state.
//
// Buffering is bounded: an unterminated line is answered-and-discarded the
// moment it exceeds `max_line_bytes` (not counting a trailing '\r', which
// may start the CRLF of a line exactly at the bound), and a
// complete-but-oversized frame is never buffered at all, so a peer
// streaming garbage can pin at most max_line_bytes + one read chunk of
// memory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "query/query_engine.h"

namespace mapit::query {

/// First bytes of a binary-protocol session ("MQB1").
inline constexpr char kBinaryProtocolMagic[4] = {'M', 'Q', 'B', '1'};

/// Appends one binary-protocol frame (little-endian uint32 length +
/// payload) to `out`. Shared with clients in tests and benches.
void append_binary_frame(std::string& out, std::string_view payload);

class ProtocolSession {
 public:
  /// Appends the answer for the server-level "HEALTH" probe (no trailing
  /// newline) to its argument.
  using HealthFn = std::function<void(std::string&)>;

  /// `engine` must outlive the session (or every feed must use the
  /// engine-explicit overload below, which re-points the session first).
  /// `max_line_bytes` bounds both a request line and a binary frame
  /// payload. `health` may be empty (see above).
  explicit ProtocolSession(const QueryEngine& engine,
                           std::size_t max_line_bytes = 1 << 20,
                           HealthFn health = {});

  /// Consumes `bytes` and appends the answer bytes for every request they
  /// complete to `out`. Each answer is formatted, and each binary frame's
  /// length patched, in place, so once `out` has grown a request allocates
  /// nothing. Incomplete trailing input is buffered for the next feed, so
  /// arbitrary chunking produces byte-identical output.
  void feed(std::string_view bytes, std::string& out);

  /// Same, answering from `engine` instead of the constructor's — the
  /// hot-swap path: a server pins one snapshot generation per read batch
  /// and feeds with it, so every answer in the batch (all frames, all
  /// lines) comes from exactly that generation. Framing state carries
  /// across feeds regardless of which engine each one used.
  void feed(const QueryEngine& engine, std::string_view bytes,
            std::string& out);

  /// True once the magic decided this is a binary-framing session.
  [[nodiscard]] bool binary_mode() const { return mode_ == Mode::kBinary; }

  /// Unparsed request bytes currently buffered (bounded, see above).
  [[nodiscard]] std::size_t buffered_bytes() const { return in_.size(); }

 private:
  enum class Mode { kUndecided, kLine, kBinary };

  void process(std::string& out);
  void process_line(std::string& out);
  void process_binary(std::string& out);
  /// Appends the answer to one request: HEALTH or the engine's.
  void append_answer(std::string& out, std::string_view query) const;

  const QueryEngine* engine_;
  std::size_t max_line_bytes_;
  HealthFn health_;
  Mode mode_ = Mode::kUndecided;
  std::string in_;                         ///< unparsed request bytes
  std::uint64_t discard_frame_bytes_ = 0;  ///< oversized-frame payload left
  bool discarding_line_ = false;  ///< inside an oversized line (answered)
};

}  // namespace mapit::query
