// What the query server (AsyncServer, async_server.h) shares with the
// ingest listeners: the options every listener takes, the 127.0.0.1
// listener setup, the accept4 errnos that mean "retry" rather than "stop",
// the refusal line past the connection cap, and the HEALTH probe answer
// (format_health). Overload and failure behavior is described in
// DESIGN.md §9.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "fault/io.h"
#include "query/query_engine.h"

namespace mapit::query {

/// AsyncServer's options; the ingest listeners pass theirs to
/// detail::bind_listener too.
struct ServerOptions {
  /// 127.0.0.1 port to bind (0 picks an ephemeral port, see port()).
  std::uint16_t port = 0;
  /// Close connections with no traffic for this long. zero = no timeout.
  std::chrono::milliseconds idle_timeout{0};
  /// listen(2) backlog; 0 = SOMAXCONN. Accept bursts beyond the backlog
  /// get SYN drops/refusals the server never sees, so default to the
  /// kernel cap rather than a magic small number.
  int backlog = 0;
  /// Set SO_REUSEPORT so N independent server processes can share one
  /// port and the kernel load-balances connections across them (each
  /// process mmaps the same immutable snapshot).
  bool reuse_port = false;
  /// Live-connection cap; the excess client gets a refusal line + close.
  std::size_t max_connections = 256;
  /// Longest accepted request line (bytes, excluding the newline).
  std::size_t max_line_bytes = 1 << 20;
  /// Upper bound for the accept-failure backoff sleep.
  std::chrono::milliseconds max_accept_backoff{200};
  /// Write-buffer high-water mark: once a connection owes this many unsent
  /// bytes, the server stops *reading* from it (EPOLLIN off) until the
  /// peer drains below half — a stalled reader caps its own memory and
  /// never blocks the loop.
  std::size_t max_write_buffer = 1 << 20;
  /// stop() drain bound: connections that cannot flush their pending
  /// answers within this budget are closed anyway, so a stalled reader
  /// cannot block graceful shutdown.
  std::chrono::milliseconds drain_timeout{5000};
  /// Load-shedding budget: aggregate answer bytes accepted but not yet
  /// handed to the kernel, across all connections of this server. A batch
  /// that would push past the budget is not processed — the client gets
  /// "ERR overloaded retry" and a close instead of queueing unboundedly.
  /// 0 = unlimited (the default; per-connection bounds still apply).
  std::size_t max_inflight_bytes = 0;
  /// Injectable syscall boundary (nullptr = fault::system_io()).
  fault::Io* io = nullptr;
};

namespace detail {

/// Creates, binds, and starts listening on a 127.0.0.1:`options.port`
/// listener socket (SO_REUSEADDR, optional SO_REUSEPORT, `options.backlog`
/// or SOMAXCONN). Returns the fd and writes the bound port; throws
/// mapit::Error on any failure.
[[nodiscard]] int bind_listener(const ServerOptions& options, bool nonblocking,
                                std::uint16_t* port_out);

/// accept4 errnos that mean "right now", not "never again".
[[nodiscard]] bool transient_accept_error(int err);

/// The refusal line clients past `max_connections` receive.
inline constexpr char kCapacityRefusal[] =
    "ERR server at connection capacity (try again later)\n";

}  // namespace detail

/// Appends the HEALTH probe answer (no trailing newline) to `out`, leaving
/// the bytes already there alone. `generation` and `swaps`
/// describe the live snapshot hot-swap state (generation 1 / 0 swaps for a
/// server bound to a fixed engine); the snapshot's own format version
/// comes from the engine's reader. `shed` counts connections refused by
/// the in-flight budget; `last_swap_error` is the most recent hot-swap
/// failure ("" = none yet — reported as `last_swap_error=none`, spaces
/// become '_' so the line stays key=value parseable). New fields append at
/// the end — probes match the line's prefix.
void format_health(std::string& out, const QueryEngine& engine,
                   std::uint64_t generation, std::uint64_t swaps,
                   std::chrono::steady_clock::time_point started,
                   std::size_t connections, std::uint64_t refused,
                   std::uint64_t accept_retries, std::uint64_t shed,
                   const std::string& last_swap_error);

}  // namespace mapit::query
