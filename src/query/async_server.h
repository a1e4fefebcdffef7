// Epoll event-loop TCP server over a QueryEngine: what `mapit serve` runs.
//
// The server is readiness-driven: one event loop owns every connection,
// sockets are non-blocking, and nothing ever blocks in send or recv, so a
// stalled peer can cost memory bounds it cannot exceed and nothing else.
// N independent processes can serve the same immutable mmap'd snapshot
// behind SO_REUSEPORT (`ServerOptions::reuse_port`) for per-core
// scale-out.
//
// Protocols. Both run on the same port, implemented by the socketless
// query::ProtocolSession (protocol.h) — one session per connection, so the
// exact framing code that answers TCP clients is also driven directly by
// unit tests and the fuzz harnesses:
//   * Line protocol — one '\n'-terminated query per line, exactly one
//     answer line each (QueryEngine::answer, the bytes `mapit query`
//     prints), CRLF tolerated, blank lines unanswered, HEALTH answered by
//     the server. tests/query/async_server_test.cpp pins the answer stream
//     byte for byte.
//   * Binary protocol — for bulk clients. A connection whose first four
//     bytes are the magic "MQB1" switches to length-prefixed framing:
//     requests and responses are `uint32 little-endian payload length`
//     followed by the payload; a request payload is exactly one protocol
//     line (no newline), its response payload exactly the answer line.
//     A frame longer than `max_line_bytes` is answered with an ERR frame
//     and its payload is discarded (the connection survives, mirroring the
//     line protocol's oversized-line rule). The magic contains no '\n' and
//     no query verb starts with 'M', so sniffing is unambiguous; a client
//     that sends fewer than 4 bytes that prefix the magic simply waits.
//
// Event-loop state machine (DESIGN.md §12): each connection is
//   reading ──(write buffer > max_write_buffer)──▶ paused
//   paused ──(write buffer < half)──▶ reading
//   reading/paused ──(EOF from peer)──▶ flushing ──(drained)──▶ closed
// Input is parsed as it arrives; every complete request appends its answer,
// formatted in place, to the connection's write buffer, which is flushed
// opportunistically and re-armed on EPOLLOUT when the socket would block.
// Write backpressure pauses *reading* (EPOLLIN off), so a slow reader
// throttles itself instead of growing server state.
//
// Overload and failure behavior (DESIGN.md §9): past `max_connections` a
// client gets the one-line capacity refusal and a close; an oversized
// request line gets an ERR line and is discarded through its newline;
// idle connections close after `idle_timeout`; transient accept failures
// disarm the listener until a capped backoff deadline instead of sleeping;
// past `max_inflight_bytes` a batch is shed with "ERR overloaded retry".
// stop() drains gracefully but boundedly: pending answers are flushed
// until `drain_timeout`, then stragglers are closed — a stalled reader can
// never block shutdown. All socket/epoll syscalls go through fault::Io, so
// the chaos matrix (tests/query/server_fault_test.cpp) injects failures
// at every one of them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "fault/io.h"
#include "query/protocol.h"
#include "query/query_engine.h"
#include "query/server.h"

namespace mapit::query {

class SnapshotHub;      // hub.h — live snapshot hot-swap
struct LoadedSnapshot;  // hub.h — one pinned snapshot generation

class AsyncServer {
 public:
  /// Binds and listens on 127.0.0.1:`options.port` and sets up the epoll
  /// instance. Throws mapit::Error when sockets or epoll cannot be set up.
  /// `engine` must outlive the server.
  AsyncServer(const QueryEngine& engine, const ServerOptions& options);

  /// Convenience: default options with an explicit port.
  AsyncServer(const QueryEngine& engine, std::uint16_t port);

  /// Hot-swap mode: answers from `hub`'s current snapshot generation,
  /// pinned once per readiness event's read batch, so a republish never
  /// tears a batch and never drops a connection. `hub` must outlive the
  /// server.
  AsyncServer(SnapshotHub& hub, const ServerOptions& options);

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Stops and joins the event loop.
  ~AsyncServer();

  /// The bound port (the chosen one when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread until stop() from another
  /// thread (or a fatally dead listener). `mapit serve` sits here.
  void serve_forever();

  /// Runs the event loop on a background thread (tests and benches).
  void start();

  /// Closes the listener, flushes pending answers (bounded by
  /// `drain_timeout`), closes every connection, joins the loop. Idempotent.
  void stop();

  /// Connections refused with the capacity line so far.
  [[nodiscard]] std::uint64_t refused_connections() const {
    return refused_.load(std::memory_order_relaxed);
  }

  /// accept4 failures absorbed by backoff so far.
  [[nodiscard]] std::uint64_t accept_retries() const {
    return accept_retries_.load(std::memory_order_relaxed);
  }

  /// Connections closed with the overload answer (max_inflight_bytes).
  [[nodiscard]] std::uint64_t shed_connections() const {
    return shed_.load(std::memory_order_relaxed);
  }

  /// Live connections right now (the HEALTH line reports this too).
  [[nodiscard]] std::size_t active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    explicit Connection(ProtocolSession session_in)
        : session(std::move(session_in)) {}

    int fd = -1;
    /// Request framing + answering (mode sniff, line/binary protocols).
    ProtocolSession session;
    std::string out;           ///< answer bytes not yet written
    std::size_t out_off = 0;   ///< bytes of `out` already sent
    bool want_close = false;   ///< peer EOF: close once `out` is flushed
    bool paused = false;       ///< EPOLLIN off (write backpressure)
    std::uint32_t armed = 0;   ///< epoll events currently registered
    std::chrono::steady_clock::time_point last_activity;

    [[nodiscard]] std::size_t pending_out() const {
      return out.size() - out_off;
    }
  };

  /// Listener + epoll + wake-pipe setup shared by both constructors.
  void init_sockets();
  void event_loop();
  /// Appends the HEALTH answer for the batch being fed right now to `out`
  /// (loop thread only).
  void health_line(std::string& out) const;
  /// Accepts until the listener would block; transient failures disarm the
  /// listener and set `accept_rearm_at_` instead of sleeping.
  void accept_ready(std::chrono::steady_clock::time_point now);
  void handle_readable(Connection& connection,
                       std::chrono::steady_clock::time_point now);
  /// Answers "ERR overloaded retry" in the connection's protocol mode and
  /// schedules the close (load shedding past max_inflight_bytes).
  void shed_connection(Connection& connection);
  /// Sends as much of `out` as the socket takes. False = connection dead.
  [[nodiscard]] bool flush(Connection& connection);
  /// Recomputes and applies the epoll event mask for the connection.
  void rearm(Connection& connection);
  void close_connection(Connection& connection);
  /// Closes idle connections; returns the next idle deadline if any.
  void scan_idle(std::chrono::steady_clock::time_point now);
  /// Enters drain mode: listener closed, no more reads, bounded flush.
  void begin_drain(std::chrono::steady_clock::time_point now);
  /// epoll_wait timeout until the nearest deadline (-1 = block).
  [[nodiscard]] int wait_timeout_ms(
      std::chrono::steady_clock::time_point now) const;
  void close_listener();

  const QueryEngine* engine_ = nullptr;  ///< fixed-engine mode; else null
  SnapshotHub* hub_ = nullptr;           ///< hot-swap mode; else null
  ServerOptions options_;
  fault::Io* io_ = nullptr;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: stop() wakes epoll_wait
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> accept_retries_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::size_t> active_{0};
  std::thread loop_thread_;

  /// When the server came up (HEALTH uptime). Set once in the constructor.
  std::chrono::steady_clock::time_point started_;

  // ---- event-loop-thread state (no locking: only the loop touches it) ----
  /// fd -> connection. Ordered map: deterministic idle-scan order.
  std::map<int, std::unique_ptr<Connection>> connections_;
  /// The generation pinned by the feed in progress (hub mode): set for the
  /// duration of handle_readable so the HEALTH callback reports exactly
  /// the generation answering the rest of the batch. Null between feeds.
  const LoadedSnapshot* feeding_ = nullptr;
  bool listener_registered_ = false;
  /// Σ pending_out() over all connections — the quantity the in-flight
  /// budget (ServerOptions::max_inflight_bytes) sheds against. Maintained
  /// incrementally at every point `out`/`out_off` change.
  std::size_t total_pending_ = 0;
  std::chrono::milliseconds accept_backoff_{0};
  std::chrono::steady_clock::time_point accept_rearm_at_{};
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  /// Guards loop_active_; loop_cv_ signals loop exit so stop() can wait
  /// out a serve_forever() caller it cannot join.
  std::mutex loop_mutex_;
  std::condition_variable loop_cv_;
  bool loop_active_ = false;
  std::mutex stop_mutex_;  ///< serializes stop() (explicit stop + destructor)
};

}  // namespace mapit::query
