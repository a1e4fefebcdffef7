// MDP1: the framed, authenticated delta transport for remote ingestion.
//
// MDP1 is the one way deltas reach `mapit ingest` over the network (a
// local producer can append to a `--follow` file instead). It survives
// sender crashes, receiver crashes, partitions, and duplicate delivery
// without ever violating the byte-identical-to-cold-run invariant:
//
//   client                               server
//     "MDP1"              ------------>            (4-byte stream magic)
//                         <------------  CHALLENGE (version, base
//                                        fingerprint, 16-byte nonce)
//     HELLO (version, fingerprint echo,
//            session name, HMAC-SHA256) ------------>
//                         <------------  HELLO_ACK (last durable seq,
//                                        last durable source offset)
//     BATCH (seq, end offset, lines)    ------------>
//                         <------------  ACK (seq, end offset) — sent only
//                                        AFTER the journal fsync
//     HEARTBEAT                         <---------->  (both directions)
//
// Every frame after the magic is length-prefixed and CRC-framed with the
// exact header shape of a journal record (u32 size | u32 CRC-32 | u8 type
// | u8[3] reserved), so one fuzzed parser family covers both formats.
//
// Exactly-once contract: a batch is journaled as ONE atomic kRemoteBatch
// record carrying its (session, seq) watermark, fsynced, and only then
// ACKed. ACKs are cumulative (an ACK for seq covers everything <= seq).
// A sender that never saw the ACK resends; the receiver compares seq
// against the session watermark and drops duplicates idempotently —
// re-ACKing the watermark so the sender advances. A torn journal tail
// drops lines and watermark together, so there is no crash window where
// traces are durable but their dedupe key is not.
//
// Authentication: HELLO carries HMAC-SHA256(secret, "MDP1" || version ||
// nonce || fingerprint || session). A wrong secret or a mismatched base
// fingerprint is rejected at HELLO with a typed ERROR frame and a clean
// close — before any journal write. The fingerprint (a FNV-1a fold of the
// base run's CheckpointMeta) pins which engine state the deltas extend.
//
// Liveness: both ends send HEARTBEAT frames when idle and enforce a read
// deadline; a peer that goes silent is closed (server) or reconnected to
// (client). Per-connection inflight quotas bound unACKed batches, so a
// fast sender is throttled by TCP backpressure like the plain socket.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/journal.h"
#include "fault/io.h"
#include "net/error.h"

namespace mapit::ingest {

/// Malformed or unexpected MDP1 bytes (bad CRC, oversized frame, protocol
/// state violation). Connection-fatal, never journal-corrupting.
class TransportError : public Error {
 public:
  using Error::Error;
};

/// Rejected at HELLO: wrong HMAC or mismatched base fingerprint. Its own
/// type so `mapit send` can map it to a distinct exit code (7) instead of
/// retrying a credential that will never work.
class TransportAuthError : public TransportError {
 public:
  using TransportError::TransportError;
};

inline constexpr char kTransportMagic[4] = {'M', 'D', 'P', '1'};
inline constexpr std::uint32_t kTransportVersion = 1;
/// Frame header: u32 payload size | u32 CRC-32 | u8 type | u8[3] reserved.
inline constexpr std::size_t kTransportFrameSize = 12;
/// Sanity cap on one frame payload; a larger size field is corruption.
inline constexpr std::uint32_t kMaxTransportPayload = 4u << 20;
/// Cap on one trace line inside a BATCH (same bound the plain socket uses).
inline constexpr std::uint32_t kMaxTransportLine = 1u << 20;
inline constexpr std::size_t kTransportNonceSize = 16;
inline constexpr std::size_t kTransportMacSize = 32;
inline constexpr std::size_t kMaxTransportSession = core::kMaxJournalSessionName;

enum class FrameType : std::uint8_t {
  kChallenge = 1,
  kHello = 2,
  kHelloAck = 3,
  kBatch = 4,
  kAck = 5,
  kHeartbeat = 6,
  kError = 7,
};

/// Typed rejection codes carried by ERROR frames.
enum class TransportErrorCode : std::uint16_t {
  kProtocol = 1,      ///< malformed frame or wrong state
  kAuthFailed = 2,    ///< HELLO HMAC did not verify
  kBaseMismatch = 3,  ///< HELLO echoed a different base fingerprint
  kBadSequence = 4,   ///< BATCH seq gap or in-flight duplicate
  kOverloaded = 5,    ///< receiver shedding load; retry later
};

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

// ---- Crypto (self-contained; the repo links no external libraries) ------

[[nodiscard]] std::array<std::uint8_t, 32> sha256(std::string_view message);
[[nodiscard]] std::array<std::uint8_t, 32> hmac_sha256(
    std::string_view key, std::string_view message);

/// FNV-1a fold of the base run's CheckpointMeta into the single u64 the
/// handshake pins (logged at ingest startup; `mapit send --expect-base`
/// verifies it client-side).
[[nodiscard]] std::uint64_t combined_fingerprint(const core::CheckpointMeta&);

/// The HMAC a well-formed HELLO must carry for this challenge.
[[nodiscard]] std::array<std::uint8_t, 32> compute_hello_mac(
    std::string_view secret,
    const std::array<std::uint8_t, kTransportNonceSize>& nonce,
    std::uint64_t base_fingerprint, std::string_view session);

// ---- Frame (de)serialization --------------------------------------------

struct ChallengeFrame {
  std::uint32_t version = kTransportVersion;
  std::uint64_t base_fingerprint = 0;
  std::array<std::uint8_t, kTransportNonceSize> nonce{};
};

struct HelloFrame {
  std::uint32_t version = kTransportVersion;
  std::uint64_t base_fingerprint = 0;
  std::string session;
  std::array<std::uint8_t, kTransportMacSize> mac{};
};

struct HelloAckFrame {
  std::uint64_t last_seq = 0;
  std::uint64_t last_offset = 0;
};

struct BatchFrame {
  std::uint64_t seq = 0;
  std::uint64_t end_offset = 0;
  std::vector<std::string> lines;
};

struct AckFrame {
  std::uint64_t seq = 0;
  std::uint64_t end_offset = 0;
};

struct ErrorFrame {
  TransportErrorCode code = TransportErrorCode::kProtocol;
  std::string message;
};

/// Wraps a payload in the 12-byte CRC frame header.
[[nodiscard]] std::string serialize_frame(FrameType type,
                                          std::string_view payload);

[[nodiscard]] std::string serialize_challenge(const ChallengeFrame&);
[[nodiscard]] std::string serialize_hello(const HelloFrame&);
[[nodiscard]] std::string serialize_hello_ack(const HelloAckFrame&);
[[nodiscard]] std::string serialize_batch(const BatchFrame&);
[[nodiscard]] std::string serialize_ack(const AckFrame&);
[[nodiscard]] std::string serialize_error(const ErrorFrame&);

/// Payload parsers; every malformed payload throws TransportError.
[[nodiscard]] ChallengeFrame parse_challenge(std::string_view payload);
[[nodiscard]] HelloFrame parse_hello(std::string_view payload);
[[nodiscard]] HelloAckFrame parse_hello_ack(std::string_view payload);
[[nodiscard]] BatchFrame parse_batch(std::string_view payload);
[[nodiscard]] AckFrame parse_ack(std::string_view payload);
[[nodiscard]] ErrorFrame parse_error(std::string_view payload);

/// Incremental MDP1 frame parser: feed arbitrary byte chunks, pull
/// complete frames. Chunking-invariant by construction (the fuzz harness
/// aborts if whole-buffer and byte-at-a-time feeds ever disagree). Throws
/// TransportError on a bad CRC, oversized size field, nonzero reserved
/// bytes, or unknown frame type; a partial frame is simply "no frame yet".
class FrameReader {
 public:
  void append(std::string_view bytes) { buffer_.append(bytes); }

  /// Extracts the next complete frame. False when more bytes are needed.
  [[nodiscard]] bool next(Frame& out);

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

// ---- Session watermarks --------------------------------------------------

/// Last durable (seq, sender offset) per session — the dedupe key for
/// exactly-once folds. Restored from kRemoteBatch records at journal
/// replay; advanced by the ingest loop only after the journal fsync.
class WatermarkTable {
 public:
  struct Watermark {
    std::uint64_t seq = 0;
    std::uint64_t offset = 0;
  };

  /// Advances `session` to (seq, offset). Watermarks never regress.
  void set(const std::string& session, std::uint64_t seq,
           std::uint64_t offset);

  [[nodiscard]] std::optional<Watermark> get(const std::string& session) const;

  /// Distinct sessions ever journaled.
  [[nodiscard]] std::size_t size() const;

  /// The most recently ACKed (session, watermark), for the HEALTH report.
  [[nodiscard]] std::optional<std::pair<std::string, Watermark>> last_ack()
      const;

  /// Records that an ACK went out for `session` at its current watermark
  /// (duplicate re-ACKs refresh last_ack() without moving the watermark).
  void note_ack(const std::string& session);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Watermark> marks_;
  std::string last_ack_session_;
};

// ---- Server --------------------------------------------------------------

struct TransportServerOptions {
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port
  std::string secret;      ///< shared HMAC secret (required)
  core::CheckpointMeta meta;  ///< base run the handshake pins
  /// Global bound on accepted-but-not-yet-journaled batches; past it the
  /// reader threads block (TCP backpressure), same as the plain socket.
  std::size_t max_queued_batches = 256;
  /// Per-connection bound on unACKed batches (the inflight quota).
  std::size_t max_inflight_batches = 8;
  /// Idle interval before a HEARTBEAT is sent; 0 disables (tests).
  double heartbeat_seconds = 2.0;
  /// A peer silent this long is presumed dead; 0 disables (tests).
  double deadline_seconds = 15.0;
};

/// One authenticated batch pulled off the wire, not yet journaled.
struct ReceivedBatch {
  std::uint64_t connection_id = 0;
  std::string session;
  std::uint64_t seq = 0;
  std::uint64_t end_offset = 0;
  std::vector<std::string> lines;
};

/// The MDP1 listener: accept thread plus one reader thread per connection,
/// a bounded batch queue and a clean shutdown.
/// The ingest loop drains batches, journals + fsyncs them, then calls
/// ack() — the server itself never touches the journal.
class TransportServer {
 public:
  TransportServer(const TransportServerOptions& options,
                  WatermarkTable& watermarks,
                  fault::Io& io = fault::system_io());
  TransportServer(const TransportServer&) = delete;
  TransportServer& operator=(const TransportServer&) = delete;
  ~TransportServer();

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Moves every queued batch into `out`. Never blocks.
  std::size_t drain(std::vector<ReceivedBatch>& out);

  /// Sends a cumulative ACK (seq, end_offset) to `connection_id` and
  /// releases one slot of its inflight quota. A connection that already
  /// died is silently skipped — its sender will re-sync on reconnect.
  void ack(std::uint64_t connection_id, std::uint64_t seq,
           std::uint64_t end_offset);

  /// Authenticated connections right now (HEALTH `sessions=`).
  [[nodiscard]] std::size_t sessions() const;

  /// Batches accepted onto the queue.
  [[nodiscard]] std::uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  /// BATCH frames at-or-below the session watermark, re-ACKed and dropped.
  [[nodiscard]] std::uint64_t duplicates() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  /// Connections rejected at HELLO (bad HMAC / fingerprint / protocol).
  [[nodiscard]] std::uint64_t handshake_rejects() const {
    return handshake_rejects_.load(std::memory_order_relaxed);
  }
  /// Connections that opened with non-MDP1 bytes and were refused.
  [[nodiscard]] std::uint64_t refused_plaintext() const {
    return refused_plaintext_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    std::string session;
    std::mutex send_mutex;  ///< ACKs (ingest loop) vs heartbeats (reader)
    std::atomic<std::size_t> inflight{0};
    std::atomic<bool> dead{false};
  };

  void accept_loop();
  void handle_connection(const std::shared_ptr<Connection>& conn);
  /// Joins handler threads parked on finished_threads_.
  void reap_finished_threads();
  void run_connection(const std::shared_ptr<Connection>& conn);
  /// Sends bytes under the connection's send mutex; marks it dead on error.
  bool send_locked(Connection& conn, std::string_view bytes);
  void send_error(Connection& conn, TransportErrorCode code,
                  const std::string& message);
  /// Blocks while the global queue is full; false once stopping.
  bool enqueue(ReceivedBatch batch);

  TransportServerOptions options_;
  WatermarkTable* watermarks_;
  fault::Io* io_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_connection_id_{1};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> handshake_rejects_{0};
  std::atomic<std::uint64_t> refused_plaintext_{0};

  mutable std::mutex mutex_;  ///< guards queue_, connections_, thread lists
  std::condition_variable space_cv_;  ///< signalled when the queue drains
  std::condition_variable quota_cv_;  ///< signalled when an ACK frees quota
  std::deque<ReceivedBatch> queue_;
  std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  /// Live reader threads keyed by connection id. A finished handler moves
  /// its own handle to finished_threads_; accept_loop joins them, so
  /// reconnect churn never accumulates unjoined threads.
  std::map<std::uint64_t, std::thread> threads_;
  std::vector<std::thread> finished_threads_;
  std::thread accept_thread_;
};

}  // namespace mapit::ingest
