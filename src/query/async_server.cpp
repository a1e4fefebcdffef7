#include "query/async_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <vector>

#include "net/error.h"
#include "query/hub.h"

namespace mapit::query {

namespace {

/// One epoll_wait batch. Level-triggered events re-report, so a small batch
/// only costs extra wakeups, never lost readiness.
constexpr int kMaxEvents = 128;

/// recv chunk size.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Compact the write buffer once this many sent bytes sit in front of the
/// unsent tail — keeps memory bounded without erasing on every flush.
constexpr std::size_t kCompactThreshold = 256 * 1024;

int clamp_ms(std::chrono::steady_clock::duration d) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  if (ms <= 0) return 0;
  if (ms > 60'000) return 60'000;
  // Round up: waking one tick early busy-spins, one tick late is harmless.
  return static_cast<int>(ms) + 1;
}

}  // namespace

AsyncServer::AsyncServer(const QueryEngine& engine,
                         const ServerOptions& options)
    : engine_(&engine),
      options_(options),
      io_(options.io != nullptr ? options.io : &fault::system_io()),
      started_(std::chrono::steady_clock::now()) {
  init_sockets();
}

AsyncServer::AsyncServer(SnapshotHub& hub, const ServerOptions& options)
    : hub_(&hub),
      options_(options),
      io_(options.io != nullptr ? options.io : &fault::system_io()),
      started_(std::chrono::steady_clock::now()) {
  init_sockets();
}

void AsyncServer::init_sockets() {
  listen_fd_ = detail::bind_listener(options_, /*nonblocking=*/true, &port_);
  epoll_fd_ = io_->epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(std::string("serve: epoll_create1: ") + std::strerror(err));
  }
  if (::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    ::close(epoll_fd_);
    listen_fd_ = epoll_fd_ = -1;
    throw Error(std::string("serve: pipe2: ") + std::strerror(err));
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wake_fds_[0];
  if (io_->epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &event) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    ::close(epoll_fd_);
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    listen_fd_ = epoll_fd_ = wake_fds_[0] = wake_fds_[1] = -1;
    throw Error(std::string("serve: epoll_ctl(wake pipe): ") +
                std::strerror(err));
  }
}

AsyncServer::AsyncServer(const QueryEngine& engine, std::uint16_t port)
    : AsyncServer(engine, ServerOptions{.port = port}) {}

AsyncServer::~AsyncServer() { stop(); }

void AsyncServer::serve_forever() { event_loop(); }

void AsyncServer::start() {
  loop_thread_ = std::thread([this] { event_loop(); });
}

void AsyncServer::close_listener() {
  if (listen_fd_ >= 0) {
    if (listener_registered_) {
      io_->epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      listener_registered_ = false;
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void AsyncServer::rearm(Connection& connection) {
  std::uint32_t want = 0;
  const bool may_read =
      !connection.paused && !connection.want_close && !draining_;
  if (may_read) want |= EPOLLIN;
  if (connection.pending_out() > 0) want |= EPOLLOUT;
  if (want == connection.armed) return;
  epoll_event event{};
  event.events = want;
  event.data.fd = connection.fd;
  // A mask of 0 still watches EPOLLHUP/EPOLLERR (they cannot be masked
  // out), which is exactly what a paused connection needs: no reads, but a
  // vanished peer is still noticed.
  if (io_->epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection.fd, &event) != 0) {
    // EPOLL_CTL_MOD on a registered fd only fails when the kernel is in
    // real trouble (ENOMEM); drop the connection rather than serve it with
    // a stale mask.
    close_connection(connection);
    return;
  }
  connection.armed = want;
}

void AsyncServer::close_connection(Connection& connection) {
  const int fd = connection.fd;
  total_pending_ -= connection.pending_out();
  io_->epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(fd);  // destroys `connection`
  active_.store(connections_.size(), std::memory_order_relaxed);
}

bool AsyncServer::flush(Connection& connection) {
  const std::size_t before = connection.pending_out();
  while (connection.out_off < connection.out.size()) {
    const ssize_t n = io_->send(connection.fd,
                                connection.out.data() + connection.out_off,
                                connection.out.size() - connection.out_off,
                                MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      // Peer vanished (EPIPE/ECONNRESET/...): the caller closes the
      // connection, which settles the in-flight accounting itself.
      total_pending_ -= before - connection.pending_out();
      return false;
    }
    connection.out_off += static_cast<std::size_t>(n);
  }
  total_pending_ -= before - connection.pending_out();
  if (connection.out_off >= connection.out.size()) {
    connection.out.clear();
    connection.out_off = 0;
  } else if (connection.out_off > kCompactThreshold) {
    connection.out.erase(0, connection.out_off);
    connection.out_off = 0;
  }
  // Backpressure release: the peer drained below half the high-water mark,
  // reading may resume.
  if (connection.paused &&
      connection.pending_out() < options_.max_write_buffer / 2) {
    connection.paused = false;
  }
  return true;
}

void AsyncServer::health_line(std::string& out) const {
  // Loop thread only: `feeding_` is set for exactly the feed that can call
  // this (HEALTH is answered synchronously inside session.feed), so the
  // probe reports the generation answering the rest of its batch.
  const QueryEngine& engine =
      feeding_ != nullptr ? feeding_->engine : *engine_;
  const std::uint64_t generation =
      feeding_ != nullptr ? feeding_->generation : 1;
  format_health(out, engine, generation,
                hub_ != nullptr ? hub_->swap_count() : 0, started_,
                connections_.size(), refused_connections(), accept_retries(),
                shed_connections(),
                hub_ != nullptr ? hub_->last_error() : std::string());
}

void AsyncServer::shed_connection(Connection& connection) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  // One refusal in the peer's own framing, then close once it is flushed.
  // The answer is a few dozen bytes — bounded even though the budget is
  // already blown; anything less (a silent close) reads as a server bug to
  // clients instead of a back-off signal.
  const std::size_t before = connection.pending_out();
  constexpr std::string_view kAnswer = "ERR overloaded retry";
  if (connection.session.binary_mode()) {
    append_binary_frame(connection.out, kAnswer);
  } else {
    connection.out.append(kAnswer);
    connection.out += '\n';
  }
  total_pending_ += connection.pending_out() - before;
  connection.want_close = true;
  if (!flush(connection) || connection.pending_out() == 0) {
    close_connection(connection);
    return;
  }
  rearm(connection);
}

void AsyncServer::handle_readable(Connection& connection,
                                  std::chrono::steady_clock::time_point now) {
  // Load shedding: past the aggregate in-flight budget, stop taking on new
  // work — this readable connection gets one overload answer and a close.
  // Checked before reading so a shed batch is never parsed or answered,
  // and pressure can only fall while the server is over budget.
  if (options_.max_inflight_bytes > 0 &&
      total_pending_ > options_.max_inflight_bytes) {
    shed_connection(connection);
    return;
  }
  // Pin exactly one snapshot generation for this readiness event's whole
  // read batch (hub mode): every answer it produces comes from it, so a
  // concurrent republish can never tear a batch. The pin drops on return.
  std::shared_ptr<const LoadedSnapshot> pin;
  const QueryEngine* engine = engine_;
  if (hub_ != nullptr) {
    pin = hub_->current();
    engine = &pin->engine;
  }
  feeding_ = pin.get();
  struct FeedScope {
    AsyncServer& server;
    ~FeedScope() { server.feeding_ = nullptr; }
  } feed_scope{*this};

  char buffer[kReadChunk];
  while (!connection.paused && !connection.want_close) {
    const ssize_t n = io_->recv(connection.fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0) {  // connection error: answers owed are undeliverable anyway
      close_connection(connection);
      return;
    }
    if (n == 0) {
      // Peer half-closed: no more requests, flush what it is owed, then
      // close.
      connection.want_close = true;
      break;
    }
    connection.last_activity = now;
    const std::size_t before = connection.pending_out();
    connection.session.feed(*engine,
                            std::string_view(buffer,
                                             static_cast<std::size_t>(n)),
                            connection.out);
    total_pending_ += connection.pending_out() - before;
    if (!flush(connection)) {
      close_connection(connection);
      return;
    }
    // Backpressure: the peer is not draining its answers; stop reading
    // (and therefore answering) until it does. The write buffer is bounded
    // by high-water + one chunk's worth of answers.
    if (connection.pending_out() > options_.max_write_buffer) {
      connection.paused = true;
    }
  }
  if (connection.want_close && connection.pending_out() == 0) {
    close_connection(connection);
    return;
  }
  rearm(connection);
}

void AsyncServer::accept_ready(std::chrono::steady_clock::time_point now) {
  while (true) {
    const int fd = io_->accept4(listen_fd_, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) {
        accept_backoff_ = std::chrono::milliseconds{0};
        return;
      }
      if (detail::transient_accept_error(err)) {
        // Back off without sleeping: deregister the listener and re-add it
        // once the deadline passes — the loop keeps serving live
        // connections in the meantime, and level-triggered epoll
        // re-reports the pending backlog on re-add.
        accept_retries_.fetch_add(1, std::memory_order_relaxed);
        accept_backoff_ =
            accept_backoff_.count() == 0
                ? std::chrono::milliseconds{1}
                : std::min(accept_backoff_ * 2, options_.max_accept_backoff);
        accept_rearm_at_ = now + accept_backoff_;
        if (listener_registered_) {
          io_->epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          listener_registered_ = false;
        }
        return;
      }
      // Unrecoverable (EBADF, EINVAL): the listener is dead; the loop ends.
      stopping_.store(true);
      return;
    }
    accept_backoff_ = std::chrono::milliseconds{0};
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connections_.size() >= options_.max_connections) {
      refused_.fetch_add(1, std::memory_order_relaxed);
      // Best-effort: one refusal line, then close. A full socket buffer on
      // a brand-new connection cannot happen on purpose; if it does the
      // client just sees the close.
      (void)io_->send(fd, detail::kCapacityRefusal,
                      sizeof(detail::kCapacityRefusal) - 1, MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    // The HEALTH callback reports this server's live counters; everything
    // else about request handling lives in the session. In hub mode the
    // construction-time engine is only a placeholder — every feed re-points
    // the session at the generation it pinned.
    const QueryEngine& setup_engine =
        hub_ != nullptr ? hub_->current()->engine : *engine_;
    auto connection = std::make_unique<Connection>(ProtocolSession(
        setup_engine, options_.max_line_bytes,
        [this](std::string& out) { health_line(out); }));
    connection->fd = fd;
    connection->last_activity = now;
    connection->armed = EPOLLIN;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (io_->epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(connection));
    active_.store(connections_.size(), std::memory_order_relaxed);
  }
}

void AsyncServer::scan_idle(std::chrono::steady_clock::time_point now) {
  if (options_.idle_timeout.count() <= 0) return;
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& connection = *it->second;
    ++it;  // close_connection erases; advance first
    if (now - connection.last_activity >= options_.idle_timeout) {
      close_connection(connection);
    }
  }
}

void AsyncServer::begin_drain(std::chrono::steady_clock::time_point now) {
  draining_ = true;
  drain_deadline_ = now + options_.drain_timeout;
  close_listener();
  // Stop reading everywhere; flush what each connection is owed. A
  // connection that owes nothing closes immediately, the rest get until
  // the drain deadline — a stalled reader cannot block shutdown.
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& connection = *it->second;
    ++it;
    if (!flush(connection) || connection.pending_out() == 0) {
      close_connection(connection);
      continue;
    }
    rearm(connection);
  }
}

int AsyncServer::wait_timeout_ms(
    std::chrono::steady_clock::time_point now) const {
  bool bounded = false;
  std::chrono::steady_clock::time_point nearest{};
  const auto consider = [&](std::chrono::steady_clock::time_point deadline) {
    if (!bounded || deadline < nearest) nearest = deadline;
    bounded = true;
  };
  if (draining_) consider(drain_deadline_);
  if (!listener_registered_ && !draining_ && listen_fd_ >= 0) {
    consider(accept_rearm_at_);
  }
  if (options_.idle_timeout.count() > 0 && !connections_.empty()) {
    // O(connections) per wakeup; fine at the 256-connection default. A
    // timer wheel earns its keep only far past that.
    for (const auto& [fd, connection] : connections_) {
      consider(connection->last_activity + options_.idle_timeout);
    }
  }
  if (!bounded) return -1;
  return clamp_ms(nearest - now);
}

void AsyncServer::event_loop() {
  {
    const std::lock_guard<std::mutex> lock(loop_mutex_);
    loop_active_ = true;
  }
  // Register the listener here rather than the constructor so a stop()
  // racing a never-started loop has nothing to unwind.
  epoll_event listen_event{};
  listen_event.events = EPOLLIN;
  listen_event.data.fd = listen_fd_;
  if (listen_fd_ >= 0 && io_->epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_,
                                        &listen_event) == 0) {
    listener_registered_ = true;
  }

  std::vector<epoll_event> events(kMaxEvents);
  while (true) {
    auto now = std::chrono::steady_clock::now();
    if (stopping_.load() && !draining_) begin_drain(now);
    if (draining_ &&
        (connections_.empty() || now >= drain_deadline_)) {
      break;
    }
    // Re-arm the listener once the accept backoff deadline passes.
    if (!draining_ && !listener_registered_ && listen_fd_ >= 0 &&
        now >= accept_rearm_at_) {
      if (io_->epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_,
                         &listen_event) == 0) {
        listener_registered_ = true;
      } else {
        accept_rearm_at_ = now + std::chrono::milliseconds{10};
      }
    }

    const int ready = io_->epoll_wait(epoll_fd_, events.data(),
                                      static_cast<int>(events.size()),
                                      wait_timeout_ms(now));
    now = std::chrono::steady_clock::now();
    if (ready < 0) {
      if (errno == EINTR) continue;
      // epoll_wait only fails fatally on EBADF/EINVAL/EFAULT — the loop's
      // own state is broken; serving blind would spin. Shut down.
      stopping_.store(true);
      continue;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (fd == wake_fds_[0]) {
        char drain[64];
        while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (!draining_) accept_ready(now);
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection& connection = *it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0 &&
          (mask & (EPOLLIN | EPOLLOUT)) == 0) {
        // Pure hangup/error with nothing readable or writable left.
        close_connection(connection);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) {
        if (!flush(connection)) {
          close_connection(connection);
          continue;
        }
        if (connection.pending_out() == 0 &&
            (connection.want_close || draining_)) {
          close_connection(connection);
          continue;
        }
      }
      if ((mask & EPOLLIN) != 0 && !draining_) {
        handle_readable(connection, now);  // may close; touch nothing after
        continue;
      }
      rearm(connection);
    }
    if (!draining_) scan_idle(now);
  }

  // Loop exit: everything still open is torn down here, including the
  // serve_forever() path stop() cannot join.
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& connection = *it->second;
    ++it;
    close_connection(connection);
  }
  close_listener();
  {
    const std::lock_guard<std::mutex> lock(loop_mutex_);
    loop_active_ = false;
  }
  loop_cv_.notify_all();
}

void AsyncServer::stop() {
  const std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  stopping_.store(true);
  if (wake_fds_[1] >= 0) {
    const char byte = 1;
    (void)!::write(wake_fds_[1], &byte, 1);
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    // A serve_forever() caller runs the loop on a thread stop() cannot
    // join; wait for the loop to report exit. A loop that never ran leaves
    // loop_active_ false and falls straight through.
    std::unique_lock<std::mutex> lock(loop_mutex_);
    loop_cv_.wait(lock, [&] { return !loop_active_; });
  }
  // Safe now: the loop has provably exited (or never started).
  close_listener();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

}  // namespace mapit::query
