#include "ingest/transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <utility>

#include "core/wire.h"
#include "net/crc32.h"
#include "query/server.h"

namespace mapit::ingest {

namespace {

using wire_cursor = core::wire::Cursor;
using core::wire::append_u16;
using core::wire::append_u32;
using core::wire::append_u64;
using net::crc32;

using Clock = std::chrono::steady_clock;

// ---- SHA-256 (FIPS 180-4; self-contained like core/wire's CRC table) ----

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

[[nodiscard]] std::uint32_t rotr(std::uint32_t value, int bits) {
  return (value >> bits) | (value << (32 - bits));
}

void sha256_block(std::uint32_t state[8], const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

/// Constant-time digest comparison: an attacker probing HELLO must not
/// learn a prefix of the expected MAC from response timing.
[[nodiscard]] bool digest_equal(const std::array<std::uint8_t, 32>& a,
                                const std::array<std::uint8_t, 32>& b) {
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<unsigned>(a[i] ^ b[i]);
  }
  return diff == 0;
}

/// Wraps a Cursor-based payload parse, converting the cursor's
/// CheckpointError overruns into TransportError — wire garbage is a
/// connection problem, never the exit-4 artifact-corruption family.
template <typename Parse>
[[nodiscard]] auto parse_payload(const char* what, Parse parse) {
  try {
    return parse();
  } catch (const TransportError&) {
    throw;
  } catch (const core::CheckpointError& error) {
    throw TransportError(std::string("malformed MDP1 ") + what + ": " +
                         error.what());
  }
}

void set_socket_timeout(int fd, double seconds) {
  struct ::timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                             tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Poll granularity of the connection read loop: short enough to notice a
/// missed heartbeat promptly, long enough to stay off the scheduler.
constexpr double kReadSliceSeconds = 0.2;

}  // namespace

// ---- Crypto --------------------------------------------------------------

std::array<std::uint8_t, 32> sha256(std::string_view message) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::size_t offset = 0;
  while (message.size() - offset >= 64) {
    sha256_block(state,
                 reinterpret_cast<const std::uint8_t*>(message.data()) +
                     offset);
    offset += 64;
  }
  // Final block(s): message tail, 0x80, zero pad, 64-bit bit length.
  std::uint8_t tail[128] = {};
  const std::size_t rest = message.size() - offset;
  std::memcpy(tail, message.data() + offset, rest);
  tail[rest] = 0x80;
  const std::size_t tail_blocks = (rest + 1 + 8 > 64) ? 2 : 1;
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_blocks * 64 - 1 - i] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
  sha256_block(state, tail);
  if (tail_blocks == 2) sha256_block(state, tail + 64);
  std::array<std::uint8_t, 32> digest{};
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return digest;
}

std::array<std::uint8_t, 32> hmac_sha256(std::string_view key,
                                         std::string_view message) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const auto digest = sha256(key);
    std::memcpy(block.data(), digest.data(), digest.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }
  std::string inner;
  inner.reserve(block.size() + message.size());
  for (const std::uint8_t byte : block) {
    inner.push_back(static_cast<char>(byte ^ 0x36));
  }
  inner.append(message);
  const auto inner_digest = sha256(inner);
  std::string outer;
  outer.reserve(block.size() + inner_digest.size());
  for (const std::uint8_t byte : block) {
    outer.push_back(static_cast<char>(byte ^ 0x5c));
  }
  outer.append(reinterpret_cast<const char*>(inner_digest.data()),
               inner_digest.size());
  return sha256(outer);
}

std::uint64_t combined_fingerprint(const core::CheckpointMeta& meta) {
  std::string bytes;
  bytes.reserve(32);
  append_u64(bytes, meta.config_hash);
  append_u64(bytes, meta.corpus_fingerprint);
  append_u64(bytes, meta.rib_fingerprint);
  append_u64(bytes, meta.datasets_fingerprint);
  return core::fingerprint_bytes(core::kFingerprintSeed, bytes);
}

std::array<std::uint8_t, 32> compute_hello_mac(
    std::string_view secret,
    const std::array<std::uint8_t, kTransportNonceSize>& nonce,
    std::uint64_t base_fingerprint, std::string_view session) {
  std::string message;
  message.reserve(4 + 4 + nonce.size() + 8 + session.size());
  message.append(kTransportMagic, sizeof(kTransportMagic));
  append_u32(message, kTransportVersion);
  message.append(reinterpret_cast<const char*>(nonce.data()), nonce.size());
  append_u64(message, base_fingerprint);
  message.append(session);
  return hmac_sha256(secret, message);
}

// ---- Frame (de)serialization --------------------------------------------

std::string serialize_frame(FrameType type, std::string_view payload) {
  MAPIT_ENSURE(payload.size() <= kMaxTransportPayload,
               "MDP1 frame payload exceeds cap");
  std::string out;
  out.reserve(kTransportFrameSize + payload.size());
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  append_u32(out, crc32(payload));
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(type)));
  out.append(3, '\0');  // reserved
  out.append(payload);
  return out;
}

std::string serialize_challenge(const ChallengeFrame& frame) {
  std::string payload;
  append_u32(payload, frame.version);
  append_u64(payload, frame.base_fingerprint);
  payload.append(reinterpret_cast<const char*>(frame.nonce.data()),
                 frame.nonce.size());
  return serialize_frame(FrameType::kChallenge, payload);
}

std::string serialize_hello(const HelloFrame& frame) {
  MAPIT_ENSURE(!frame.session.empty() &&
                   frame.session.size() <= kMaxTransportSession,
               "MDP1 session name length out of range");
  std::string payload;
  append_u32(payload, frame.version);
  append_u64(payload, frame.base_fingerprint);
  append_u16(payload, static_cast<std::uint16_t>(frame.session.size()));
  payload.append(frame.session);
  payload.append(reinterpret_cast<const char*>(frame.mac.data()),
                 frame.mac.size());
  return serialize_frame(FrameType::kHello, payload);
}

std::string serialize_hello_ack(const HelloAckFrame& frame) {
  std::string payload;
  append_u64(payload, frame.last_seq);
  append_u64(payload, frame.last_offset);
  return serialize_frame(FrameType::kHelloAck, payload);
}

std::string serialize_batch(const BatchFrame& frame) {
  std::string payload;
  append_u64(payload, frame.seq);
  append_u64(payload, frame.end_offset);
  append_u32(payload, static_cast<std::uint32_t>(frame.lines.size()));
  for (const std::string& line : frame.lines) {
    append_u32(payload, static_cast<std::uint32_t>(line.size()));
    payload.append(line);
  }
  return serialize_frame(FrameType::kBatch, payload);
}

std::string serialize_ack(const AckFrame& frame) {
  std::string payload;
  append_u64(payload, frame.seq);
  append_u64(payload, frame.end_offset);
  return serialize_frame(FrameType::kAck, payload);
}

std::string serialize_error(const ErrorFrame& frame) {
  std::string payload;
  append_u16(payload, static_cast<std::uint16_t>(frame.code));
  payload.append(frame.message);
  return serialize_frame(FrameType::kError, payload);
}

ChallengeFrame parse_challenge(std::string_view payload) {
  return parse_payload("CHALLENGE", [&] {
    wire_cursor cursor(payload, "MDP1 CHALLENGE");
    ChallengeFrame out;
    out.version = cursor.read_u32();
    out.base_fingerprint = cursor.read_u64();
    const std::string_view nonce = cursor.read_bytes(kTransportNonceSize);
    std::memcpy(out.nonce.data(), nonce.data(), nonce.size());
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 CHALLENGE has trailing bytes");
    }
    return out;
  });
}

HelloFrame parse_hello(std::string_view payload) {
  return parse_payload("HELLO", [&] {
    wire_cursor cursor(payload, "MDP1 HELLO");
    HelloFrame out;
    out.version = cursor.read_u32();
    out.base_fingerprint = cursor.read_u64();
    const std::size_t session_len = cursor.read_u16();
    if (session_len == 0 || session_len > kMaxTransportSession) {
      throw TransportError("MDP1 HELLO session name length " +
                           std::to_string(session_len) + " out of range");
    }
    out.session = std::string(cursor.read_bytes(session_len));
    const std::string_view mac = cursor.read_bytes(kTransportMacSize);
    std::memcpy(out.mac.data(), mac.data(), mac.size());
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 HELLO has trailing bytes");
    }
    return out;
  });
}

HelloAckFrame parse_hello_ack(std::string_view payload) {
  return parse_payload("HELLO_ACK", [&] {
    wire_cursor cursor(payload, "MDP1 HELLO_ACK");
    HelloAckFrame out;
    out.last_seq = cursor.read_u64();
    out.last_offset = cursor.read_u64();
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 HELLO_ACK has trailing bytes");
    }
    return out;
  });
}

BatchFrame parse_batch(std::string_view payload) {
  return parse_payload("BATCH", [&] {
    wire_cursor cursor(payload, "MDP1 BATCH");
    BatchFrame out;
    out.seq = cursor.read_u64();
    out.end_offset = cursor.read_u64();
    const std::uint32_t count = cursor.read_u32();
    out.lines.reserve(std::min<std::uint32_t>(count, 4096));
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t len = cursor.read_u32();
      if (len > kMaxTransportLine) {
        throw TransportError("MDP1 BATCH line length " +
                             std::to_string(len) + " exceeds cap");
      }
      out.lines.emplace_back(cursor.read_bytes(len));
    }
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 BATCH has trailing bytes");
    }
    return out;
  });
}

AckFrame parse_ack(std::string_view payload) {
  return parse_payload("ACK", [&] {
    wire_cursor cursor(payload, "MDP1 ACK");
    AckFrame out;
    out.seq = cursor.read_u64();
    out.end_offset = cursor.read_u64();
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 ACK has trailing bytes");
    }
    return out;
  });
}

ErrorFrame parse_error(std::string_view payload) {
  return parse_payload("ERROR", [&] {
    wire_cursor cursor(payload, "MDP1 ERROR");
    ErrorFrame out;
    out.code = static_cast<TransportErrorCode>(cursor.read_u16());
    out.message = std::string(cursor.rest());
    return out;
  });
}

// ---- FrameReader ---------------------------------------------------------

bool FrameReader::next(Frame& out) {
  if (buffer_.size() < kTransportFrameSize) return false;
  wire_cursor header(std::string_view(buffer_).substr(0, kTransportFrameSize),
                     "MDP1 frame header");
  const std::uint32_t payload_size = header.read_u32();
  const std::uint32_t expected_crc = header.read_u32();
  const std::uint8_t type = header.read_u8();
  const bool reserved_zero = header.read_u8() == 0 && header.read_u8() == 0 &&
                             header.read_u8() == 0;
  if (payload_size > kMaxTransportPayload) {
    throw TransportError("MDP1 frame payload size " +
                         std::to_string(payload_size) + " exceeds cap");
  }
  if (!reserved_zero) {
    throw TransportError("MDP1 frame reserved bytes are nonzero");
  }
  if (type < static_cast<std::uint8_t>(FrameType::kChallenge) ||
      type > static_cast<std::uint8_t>(FrameType::kError)) {
    throw TransportError("MDP1 frame has unknown type " +
                         std::to_string(type));
  }
  if (buffer_.size() - kTransportFrameSize < payload_size) return false;
  const std::string_view payload =
      std::string_view(buffer_).substr(kTransportFrameSize, payload_size);
  if (crc32(payload) != expected_crc) {
    throw TransportError("MDP1 frame CRC mismatch");
  }
  out.type = static_cast<FrameType>(type);
  out.payload = std::string(payload);
  buffer_.erase(0, kTransportFrameSize + payload_size);
  return true;
}

// ---- WatermarkTable ------------------------------------------------------

void WatermarkTable::set(const std::string& session, std::uint64_t seq,
                         std::uint64_t offset) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Watermark& mark = marks_[session];
  MAPIT_ENSURE(seq >= mark.seq && offset >= mark.offset,
               "session watermark may never regress");
  mark.seq = seq;
  mark.offset = offset;
  last_ack_session_ = session;
}

std::optional<WatermarkTable::Watermark> WatermarkTable::get(
    const std::string& session) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = marks_.find(session);
  if (it == marks_.end()) return std::nullopt;
  return it->second;
}

std::size_t WatermarkTable::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return marks_.size();
}

std::optional<std::pair<std::string, WatermarkTable::Watermark>>
WatermarkTable::last_ack() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = marks_.find(last_ack_session_);
  if (it == marks_.end()) return std::nullopt;
  return std::make_pair(it->first, it->second);
}

void WatermarkTable::note_ack(const std::string& session) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (marks_.count(session) != 0) last_ack_session_ = session;
}

// ---- TransportServer -----------------------------------------------------

TransportServer::TransportServer(const TransportServerOptions& options,
                                 WatermarkTable& watermarks, fault::Io& io)
    : options_(options), watermarks_(&watermarks), io_(&io) {
  MAPIT_ENSURE(!options_.secret.empty(),
               "MDP1 transport requires a shared secret");
  query::ServerOptions listener;
  listener.port = options_.port;
  listen_fd_ = query::detail::bind_listener(listener, /*nonblocking=*/false,
                                            &port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TransportServer::~TransportServer() {
  stopping_.store(true);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (const auto& [id, conn] : connections_) {
      conn->dead.store(true);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  space_cv_.notify_all();
  quota_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, thread] : threads_) threads.push_back(std::move(thread));
    threads_.clear();
    for (std::thread& thread : finished_threads_) {
      threads.push_back(std::move(thread));
    }
    finished_threads_.clear();
  }
  for (std::thread& thread : threads) thread.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TransportServer::accept_loop() {
  while (!stopping_.load()) {
    // Join handler threads that finished since the last accept, so
    // reconnect churn cannot accumulate unjoined threads and their stacks.
    reap_finished_threads();
    const int fd = io_->accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      if (query::detail::transient_accept_error(errno)) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
        continue;
      }
      // A fatal accept error with no re-arm would go deaf; keep polling —
      // shutdown() from the destructor unblocks us either way.
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->id = next_connection_id_.fetch_add(1, std::memory_order_relaxed);
    conn->fd = fd;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    connections_.emplace(conn->id, conn);
    threads_.emplace(conn->id,
                     std::thread([this, conn] { handle_connection(conn); }));
  }
}

void TransportServer::handle_connection(
    const std::shared_ptr<Connection>& conn) {
  try {
    run_connection(conn);
  } catch (const TransportError& error) {
    send_error(*conn, TransportErrorCode::kProtocol, error.what());
  } catch (...) {
    // Injected I/O faults and the like: isolated to this connection.
  }
  {
    // Unregister first (the destructor only shutdown()s fds still in the
    // map), then park our own thread handle for accept_loop to join.
    const std::lock_guard<std::mutex> lock(mutex_);
    connections_.erase(conn->id);
    const auto it = threads_.find(conn->id);
    if (it != threads_.end()) {
      finished_threads_.push_back(std::move(it->second));
      threads_.erase(it);
    }
  }
  {
    // Mark dead and close under send_mutex: the ingest loop's ack() checks
    // `dead` under the same mutex, so it can never write to a closed (and
    // possibly reused) fd and inject an ACK into another session's stream.
    const std::lock_guard<std::mutex> lock(conn->send_mutex);
    conn->dead.store(true);
    ::close(conn->fd);
    conn->fd = -1;
  }
  quota_cv_.notify_all();
}

void TransportServer::reap_finished_threads() {
  std::vector<std::thread> finished;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    finished.swap(finished_threads_);
  }
  for (std::thread& thread : finished) thread.join();
}

bool TransportServer::send_locked(Connection& conn, std::string_view bytes) {
  const std::lock_guard<std::mutex> lock(conn.send_mutex);
  if (conn.dead.load()) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = io_->send(conn.fd, bytes.data() + sent,
                                bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      conn.dead.store(true);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void TransportServer::send_error(Connection& conn, TransportErrorCode code,
                                 const std::string& message) {
  ErrorFrame frame;
  frame.code = code;
  frame.message = message;
  (void)send_locked(conn, serialize_error(frame));
}

void TransportServer::run_connection(const std::shared_ptr<Connection>& conn) {
  if (options_.deadline_seconds > 0) {
    set_socket_timeout(conn->fd, kReadSliceSeconds);
  }
  {
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  auto last_rx = Clock::now();
  auto last_tx = last_rx;
  FrameReader reader;
  char buffer[16 * 1024];

  // Reads more bytes into `reader`, enforcing the heartbeat schedule and
  // the read deadline. False on EOF / dead peer / shutdown.
  const auto pump = [&]() -> bool {
    while (!stopping_.load() && !conn->dead.load()) {
      const ssize_t n = io_->recv(conn->fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        reader.append(std::string_view(buffer, static_cast<std::size_t>(n)));
        last_rx = Clock::now();
        return true;
      }
      if (n == 0) return false;  // clean EOF
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      const auto now = Clock::now();
      const std::chrono::duration<double> idle = now - last_rx;
      if (options_.deadline_seconds > 0 &&
          idle.count() > options_.deadline_seconds) {
        return false;  // peer presumed dead
      }
      const std::chrono::duration<double> quiet = now - last_tx;
      if (options_.heartbeat_seconds > 0 &&
          quiet.count() > options_.heartbeat_seconds) {
        if (!send_locked(*conn, serialize_frame(FrameType::kHeartbeat, "")))
          return false;
        last_tx = now;
      }
    }
    return false;
  };

  // Pulls the next frame, pumping the socket as needed.
  const auto next_frame = [&](Frame& frame) -> bool {
    while (true) {
      if (reader.next(frame)) return true;
      if (!pump()) return false;
    }
  };

  // --- Stream magic: decide MDP1 vs something else in the first 4 bytes.
  std::string magic;
  while (magic.size() < sizeof(kTransportMagic)) {
    const ssize_t n = io_->recv(conn->fd, buffer,
                                sizeof(kTransportMagic) - magic.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const std::chrono::duration<double> idle = Clock::now() - last_rx;
      if (options_.deadline_seconds > 0 &&
          idle.count() > options_.deadline_seconds) {
        return;
      }
      continue;
    }
    if (n <= 0) return;
    magic.append(buffer, static_cast<std::size_t>(n));
  }
  if (std::memcmp(magic.data(), kTransportMagic, sizeof(kTransportMagic)) !=
      0) {
    // Not an MDP1 client. One-line diagnosis, clean close.
    refused_plaintext_.fetch_add(1, std::memory_order_relaxed);
    (void)send_locked(*conn,
                      "ERR this port speaks MDP1 (framed transport); use "
                      "`mapit send` to ship delta lines\n");
    return;
  }
  last_rx = Clock::now();

  // --- Handshake: CHALLENGE out, HELLO in, HELLO_ACK out.
  const std::uint64_t fingerprint = combined_fingerprint(options_.meta);
  ChallengeFrame challenge;
  challenge.base_fingerprint = fingerprint;
  {
    // The nonce only needs uniqueness per connection (it keys the HELLO
    // MAC to this challenge, preventing replayed HELLOs).
    std::random_device device;
    std::mt19937_64 rng(
        (static_cast<std::uint64_t>(device()) << 32) ^ device() ^
        (conn->id * 0x9e3779b97f4a7c15ull));
    for (std::size_t i = 0; i < challenge.nonce.size(); i += 8) {
      const std::uint64_t word = rng();
      std::memcpy(challenge.nonce.data() + i, &word,
                  std::min<std::size_t>(8, challenge.nonce.size() - i));
    }
  }
  if (!send_locked(*conn, serialize_challenge(challenge))) return;
  last_tx = Clock::now();

  Frame frame;
  HelloFrame hello;
  while (true) {
    if (!next_frame(frame)) return;
    if (frame.type == FrameType::kHeartbeat) continue;
    if (frame.type != FrameType::kHello) {
      handshake_rejects_.fetch_add(1, std::memory_order_relaxed);
      send_error(*conn, TransportErrorCode::kProtocol,
                 "expected HELLO after CHALLENGE");
      return;
    }
    hello = parse_hello(frame.payload);
    break;
  }
  if (hello.version != kTransportVersion) {
    handshake_rejects_.fetch_add(1, std::memory_order_relaxed);
    send_error(*conn, TransportErrorCode::kProtocol,
               "unsupported MDP1 version " + std::to_string(hello.version));
    return;
  }
  if (hello.base_fingerprint != fingerprint) {
    handshake_rejects_.fetch_add(1, std::memory_order_relaxed);
    send_error(*conn, TransportErrorCode::kBaseMismatch,
               "sender pins a different base run (fingerprint mismatch)");
    return;
  }
  const auto expected_mac = compute_hello_mac(
      options_.secret, challenge.nonce, fingerprint, hello.session);
  if (!digest_equal(expected_mac, hello.mac)) {
    handshake_rejects_.fetch_add(1, std::memory_order_relaxed);
    send_error(*conn, TransportErrorCode::kAuthFailed,
               "HELLO authentication failed");
    return;
  }
  conn->session = hello.session;

  const auto mark = watermarks_->get(hello.session);
  HelloAckFrame hello_ack;
  if (mark.has_value()) {
    hello_ack.last_seq = mark->seq;
    hello_ack.last_offset = mark->offset;
  }
  if (!send_locked(*conn, serialize_hello_ack(hello_ack))) return;
  last_tx = Clock::now();

  // --- Authenticated stream: BATCH in, ACK out (from the ingest loop).
  std::uint64_t next_seq = hello_ack.last_seq + 1;
  while (true) {
    if (!next_frame(frame)) return;
    switch (frame.type) {
      case FrameType::kHeartbeat:
        continue;
      case FrameType::kBatch: {
        BatchFrame batch = parse_batch(frame.payload);
        if (batch.seq == 0) {
          send_error(*conn, TransportErrorCode::kBadSequence,
                     "batch sequence numbers are 1-based");
          return;
        }
        const auto current = watermarks_->get(conn->session);
        const std::uint64_t durable_seq =
            current.has_value() ? current->seq : 0;
        if (batch.seq <= durable_seq) {
          // Replayed frame from a sender that missed our ACK: dedupe and
          // re-ACK the durable watermark so it advances.
          duplicates_.fetch_add(1, std::memory_order_relaxed);
          watermarks_->note_ack(conn->session);
          AckFrame ack;
          ack.seq = current->seq;
          ack.end_offset = current->offset;
          if (!send_locked(*conn, serialize_ack(ack))) return;
          last_tx = Clock::now();
          continue;
        }
        if (batch.seq != next_seq) {
          send_error(*conn, TransportErrorCode::kBadSequence,
                     "expected seq " + std::to_string(next_seq) + ", got " +
                         std::to_string(batch.seq));
          return;
        }
        // Inflight quota: block until the ingest loop ACKs something or
        // the connection dies — TCP backpressure does the actual shaping.
        {
          std::unique_lock<std::mutex> lock(mutex_);
          quota_cv_.wait(lock, [&] {
            return stopping_.load() || conn->dead.load() ||
                   conn->inflight.load() < options_.max_inflight_batches;
          });
          if (stopping_.load() || conn->dead.load()) return;
        }
        ReceivedBatch received;
        received.connection_id = conn->id;
        received.session = conn->session;
        received.seq = batch.seq;
        received.end_offset = batch.end_offset;
        received.lines = std::move(batch.lines);
        conn->inflight.fetch_add(1, std::memory_order_relaxed);
        if (!enqueue(std::move(received))) return;
        batches_.fetch_add(1, std::memory_order_relaxed);
        ++next_seq;
        continue;
      }
      default:
        send_error(*conn, TransportErrorCode::kProtocol,
                   "unexpected frame type " +
                       std::to_string(static_cast<int>(frame.type)));
        return;
    }
  }
}

bool TransportServer::enqueue(ReceivedBatch batch) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [&] {
    return stopping_.load() || queue_.size() < options_.max_queued_batches;
  });
  if (stopping_.load()) return false;
  queue_.push_back(std::move(batch));
  return true;
}

std::size_t TransportServer::drain(std::vector<ReceivedBatch>& out) {
  std::deque<ReceivedBatch> batches;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    batches.swap(queue_);
  }
  if (!batches.empty()) space_cv_.notify_all();
  const std::size_t count = batches.size();
  for (ReceivedBatch& batch : batches) out.push_back(std::move(batch));
  return count;
}

void TransportServer::ack(std::uint64_t connection_id, std::uint64_t seq,
                          std::uint64_t end_offset) {
  std::shared_ptr<Connection> conn;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = connections_.find(connection_id);
    if (it == connections_.end()) {
      return;  // sender re-syncs via HELLO_ACK on reconnect
    }
    conn = it->second;
    // Decrement under mutex_: the reader's quota wait evaluates its
    // predicate under the same mutex, so the notify below cannot land in
    // the window between its predicate check and its block (lost wakeup).
    if (conn->inflight.load() > 0) {
      conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  quota_cv_.notify_all();
  AckFrame frame;
  frame.seq = seq;
  frame.end_offset = end_offset;
  (void)send_locked(*conn, serialize_ack(frame));
}

std::size_t TransportServer::sessions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [id, conn] : connections_) {
    if (!conn->session.empty() && !conn->dead.load()) ++count;
  }
  return count;
}

}  // namespace mapit::ingest
