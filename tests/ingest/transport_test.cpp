// MDP1 transport unit tests: frame (de)serialization round-trips, the
// incremental FrameReader (chunking invariance, corruption rejection),
// the self-contained SHA-256/HMAC against published test vectors, the
// watermark table's never-regress contract, and a live TransportServer
// driven by a hand-rolled client through every handshake outcome —
// success, wrong HMAC, wrong base fingerprint, plaintext refusal,
// duplicate batches, and sequence gaps.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "ingest/transport.h"
#include "net/error.h"

namespace mapit {
namespace {

using namespace std::chrono_literals;
using ingest::Frame;
using ingest::FrameReader;
using ingest::FrameType;
using ingest::TransportError;
using ingest::TransportErrorCode;

std::string hex(const std::array<std::uint8_t, 32>& digest) {
  std::string out;
  for (const std::uint8_t byte : digest) {
    static const char* kDigits = "0123456789abcdef";
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

TEST(TransportCrypto, Sha256KnownVectors) {
  EXPECT_EQ(hex(ingest::sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(ingest::sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(ingest::sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One block-boundary case: 64 'a's forces the two-block tail path.
  EXPECT_EQ(hex(ingest::sha256(std::string(64, 'a'))),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(TransportCrypto, HmacSha256Rfc4231Vectors) {
  // RFC 4231 test case 1.
  EXPECT_EQ(hex(ingest::hmac_sha256(std::string(20, '\x0b'), "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2: a key shorter than the block size.
  EXPECT_EQ(hex(ingest::hmac_sha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 6: a key longer than the block size (forces the key hash).
  EXPECT_EQ(
      hex(ingest::hmac_sha256(
          std::string(131, '\xaa'),
          "Test Using Larger Than Block-Size Key - Hash Key First")),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(TransportCrypto, HelloMacBindsEveryHandshakeField) {
  std::array<std::uint8_t, ingest::kTransportNonceSize> nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<std::uint8_t>(i);
  }
  const auto mac = ingest::compute_hello_mac("secret", nonce, 42, "mon-1");
  EXPECT_EQ(mac, ingest::compute_hello_mac("secret", nonce, 42, "mon-1"));
  EXPECT_NE(mac, ingest::compute_hello_mac("secret2", nonce, 42, "mon-1"));
  EXPECT_NE(mac, ingest::compute_hello_mac("secret", nonce, 43, "mon-1"));
  EXPECT_NE(mac, ingest::compute_hello_mac("secret", nonce, 42, "mon-2"));
  auto other_nonce = nonce;
  other_nonce[0] ^= 1;
  EXPECT_NE(mac, ingest::compute_hello_mac("secret", other_nonce, 42,
                                           "mon-1"));
}

TEST(TransportFrames, TypedRoundTripsThroughReader) {
  ingest::ChallengeFrame challenge;
  challenge.base_fingerprint = 0xdeadbeefcafef00dULL;
  for (std::size_t i = 0; i < challenge.nonce.size(); ++i) {
    challenge.nonce[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  ingest::HelloFrame hello;
  hello.base_fingerprint = challenge.base_fingerprint;
  hello.session = "mon-east-1";
  hello.mac = ingest::compute_hello_mac("s", challenge.nonce,
                                        hello.base_fingerprint,
                                        hello.session);
  ingest::HelloAckFrame hello_ack{.last_seq = 7, .last_offset = 4096};
  ingest::BatchFrame batch;
  batch.seq = 8;
  batch.end_offset = 5000;
  batch.lines = {"0|10.2.0.2|10.1.0.1@1 10.2.0.1@2", "", "# comment"};
  ingest::AckFrame ack{.seq = 8, .end_offset = 5000};
  ingest::ErrorFrame error{.code = TransportErrorCode::kOverloaded,
                           .message = "busy"};

  const std::string stream =
      ingest::serialize_challenge(challenge) + ingest::serialize_hello(hello) +
      ingest::serialize_hello_ack(hello_ack) + ingest::serialize_batch(batch) +
      ingest::serialize_ack(ack) + ingest::serialize_error(error) +
      ingest::serialize_frame(FrameType::kHeartbeat, "");

  // Whole-buffer and byte-at-a-time feeds must decode identically.
  for (const std::size_t chunk : {stream.size(), std::size_t{1}}) {
    FrameReader reader;
    std::vector<Frame> frames;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      reader.append(std::string_view(stream).substr(i, chunk));
      Frame frame;
      while (reader.next(frame)) frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 7u) << "chunk=" << chunk;
    EXPECT_EQ(reader.buffered(), 0u);

    const auto parsed_challenge = ingest::parse_challenge(frames[0].payload);
    EXPECT_EQ(parsed_challenge.version, ingest::kTransportVersion);
    EXPECT_EQ(parsed_challenge.base_fingerprint, challenge.base_fingerprint);
    EXPECT_EQ(parsed_challenge.nonce, challenge.nonce);
    const auto parsed_hello = ingest::parse_hello(frames[1].payload);
    EXPECT_EQ(parsed_hello.session, hello.session);
    EXPECT_EQ(parsed_hello.mac, hello.mac);
    const auto parsed_hello_ack = ingest::parse_hello_ack(frames[2].payload);
    EXPECT_EQ(parsed_hello_ack.last_seq, 7u);
    EXPECT_EQ(parsed_hello_ack.last_offset, 4096u);
    const auto parsed_batch = ingest::parse_batch(frames[3].payload);
    EXPECT_EQ(parsed_batch.seq, 8u);
    EXPECT_EQ(parsed_batch.lines, batch.lines);
    const auto parsed_ack = ingest::parse_ack(frames[4].payload);
    EXPECT_EQ(parsed_ack.seq, 8u);
    const auto parsed_error = ingest::parse_error(frames[5].payload);
    EXPECT_EQ(parsed_error.code, TransportErrorCode::kOverloaded);
    EXPECT_EQ(parsed_error.message, "busy");
    EXPECT_EQ(frames[6].type, FrameType::kHeartbeat);
  }
}

TEST(TransportFrames, ReaderRejectsCorruption) {
  const std::string good =
      ingest::serialize_ack(ingest::AckFrame{.seq = 1, .end_offset = 2});
  Frame frame;

  {  // Flipped payload byte: CRC mismatch.
    std::string bad = good;
    bad[ingest::kTransportFrameSize] ^= 0x1;
    FrameReader reader;
    reader.append(bad);
    EXPECT_THROW((void)reader.next(frame), TransportError);
  }
  {  // Oversized size field.
    std::string bad = good;
    bad[3] = '\x7f';
    FrameReader reader;
    reader.append(bad);
    EXPECT_THROW((void)reader.next(frame), TransportError);
  }
  {  // Nonzero reserved byte.
    std::string bad = good;
    bad[10] = '\x1';
    FrameReader reader;
    reader.append(bad);
    EXPECT_THROW((void)reader.next(frame), TransportError);
  }
  {  // Unknown frame type.
    std::string bad = good;
    bad[8] = '\x9';
    FrameReader reader;
    reader.append(bad);
    EXPECT_THROW((void)reader.next(frame), TransportError);
  }
  {  // A partial frame is "no frame yet", never an error.
    FrameReader reader;
    reader.append(std::string_view(good).substr(0, good.size() - 1));
    EXPECT_FALSE(reader.next(frame));
    EXPECT_GT(reader.buffered(), 0u);
    reader.append(std::string_view(good).substr(good.size() - 1));
    EXPECT_TRUE(reader.next(frame));
    EXPECT_EQ(frame.type, FrameType::kAck);
  }
}

TEST(TransportFrames, PayloadParsersRejectMalformedPayloads) {
  EXPECT_THROW((void)ingest::parse_ack("short"), TransportError);
  EXPECT_THROW((void)ingest::parse_ack(std::string(16, '\0') + "trailing"),
               TransportError);
  EXPECT_THROW((void)ingest::parse_challenge(""), TransportError);
  EXPECT_THROW((void)ingest::parse_hello(std::string(14, '\0')),
               TransportError);
  // A BATCH whose count field promises more lines than the payload holds.
  std::string truncated;
  truncated.append(16, '\0');                  // seq + end_offset
  truncated.append("\xff\xff\xff\xff", 4);     // count = 2^32 - 1
  EXPECT_THROW((void)ingest::parse_batch(truncated), TransportError);
}

TEST(TransportWatermarks, NeverRegressAndTrackLastAck) {
  ingest::WatermarkTable table;
  EXPECT_FALSE(table.get("a").has_value());
  EXPECT_FALSE(table.last_ack().has_value());
  table.set("a", 1, 100);
  table.set("b", 5, 900);
  table.note_ack("b");
  ASSERT_TRUE(table.get("a").has_value());
  EXPECT_EQ(table.get("a")->seq, 1u);
  EXPECT_EQ(table.get("a")->offset, 100u);
  EXPECT_EQ(table.size(), 2u);
  const auto last = table.last_ack();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->first, "b");
  EXPECT_EQ(last->second.seq, 5u);
  table.set("a", 2, 150);
  EXPECT_EQ(table.get("a")->seq, 2u);
  // Watermarks never move backwards — a regression is a caller bug.
  EXPECT_THROW(table.set("a", 1, 150), InvariantError);
  EXPECT_THROW(table.set("a", 2, 100), InvariantError);
}

// ---- live server ---------------------------------------------------------

/// Minimal blocking client used to drive TransportServer directly.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    struct ::timeval timeout{};
    timeout.tv_usec = 100000;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
    struct ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<struct ::sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_raw(std::string_view bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  void send_magic() {
    send_raw(std::string_view(ingest::kTransportMagic,
                              sizeof(ingest::kTransportMagic)));
  }

  /// Reads until one complete frame is available (5s budget).
  std::optional<Frame> read_frame() {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    Frame frame;
    while (std::chrono::steady_clock::now() < deadline) {
      if (reader_.next(frame)) return frame;
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        reader_.append(std::string_view(buffer,
                                        static_cast<std::size_t>(n)));
      } else if (n == 0) {
        return std::nullopt;  // peer closed
      }
    }
    return std::nullopt;
  }

  /// Reads raw bytes until EOF (for the plaintext refusal line).
  std::string read_until_eof() {
    std::string out;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        out.append(buffer, static_cast<std::size_t>(n));
      } else if (n == 0) {
        break;
      }
    }
    return out;
  }

  /// Full successful handshake; returns the server's CHALLENGE.
  ingest::ChallengeFrame handshake(const std::string& secret,
                                   const std::string& session) {
    send_magic();
    const auto frame = read_frame();
    EXPECT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kChallenge);
    const auto challenge = ingest::parse_challenge(frame->payload);
    ingest::HelloFrame hello;
    hello.base_fingerprint = challenge.base_fingerprint;
    hello.session = session;
    hello.mac = ingest::compute_hello_mac(secret, challenge.nonce,
                                          challenge.base_fingerprint,
                                          session);
    send_raw(ingest::serialize_hello(hello));
    const auto ack = read_frame();
    EXPECT_TRUE(ack.has_value());
    EXPECT_EQ(ack->type, FrameType::kHelloAck);
    return challenge;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

class TransportServerTest : public ::testing::Test {
 protected:
  TransportServerTest() {
    meta_.config_hash = 11;
    meta_.corpus_fingerprint = 22;
    meta_.rib_fingerprint = 33;
    meta_.datasets_fingerprint = 44;
    options_.port = 0;
    options_.secret = "open sesame";
    options_.meta = meta_;
    options_.heartbeat_seconds = 0;  // deterministic send sequences
    options_.deadline_seconds = 0;
  }

  /// Polls drain() until at least one batch arrives (5s budget).
  std::vector<ingest::ReceivedBatch> drain_one(
      ingest::TransportServer& server) {
    std::vector<ingest::ReceivedBatch> out;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (out.empty() && std::chrono::steady_clock::now() < deadline) {
      server.drain(out);
      if (out.empty()) std::this_thread::sleep_for(2ms);
    }
    return out;
  }

  core::CheckpointMeta meta_;
  ingest::TransportServerOptions options_;
};

TEST_F(TransportServerTest, HandshakeBatchAckDuplicateAndGap) {
  ingest::WatermarkTable watermarks;
  ingest::TransportServer server(options_, watermarks);
  TestClient client(server.port());

  const auto challenge = client.handshake("open sesame", "mon-1");
  EXPECT_EQ(challenge.base_fingerprint,
            ingest::combined_fingerprint(meta_));

  ingest::BatchFrame batch;
  batch.seq = 1;
  batch.end_offset = 120;
  batch.lines = {"0|10.2.0.2|10.1.0.1@1 10.2.0.1@2"};
  client.send_raw(ingest::serialize_batch(batch));
  const auto received = drain_one(server);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].session, "mon-1");
  EXPECT_EQ(received[0].seq, 1u);
  EXPECT_EQ(received[0].end_offset, 120u);
  EXPECT_EQ(received[0].lines, batch.lines);
  EXPECT_EQ(server.sessions(), 1u);

  // The ingest loop's contract: journal + fsync, then watermark, then ACK.
  watermarks.set("mon-1", 1, 120);
  server.ack(received[0].connection_id, 1, 120);
  const auto ack = client.read_frame();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, FrameType::kAck);
  EXPECT_EQ(ingest::parse_ack(ack->payload).seq, 1u);

  // A duplicate at-or-below the watermark is re-ACKed, never enqueued.
  client.send_raw(ingest::serialize_batch(batch));
  const auto re_ack = client.read_frame();
  ASSERT_TRUE(re_ack.has_value());
  ASSERT_EQ(re_ack->type, FrameType::kAck);
  EXPECT_EQ(ingest::parse_ack(re_ack->payload).seq, 1u);
  EXPECT_EQ(ingest::parse_ack(re_ack->payload).end_offset, 120u);
  EXPECT_EQ(server.duplicates(), 1u);
  EXPECT_EQ(server.batches(), 1u);

  // A sequence gap is connection-fatal: typed ERROR, then close.
  batch.seq = 5;
  client.send_raw(ingest::serialize_batch(batch));
  const auto error = client.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(ingest::parse_error(error->payload).code,
            TransportErrorCode::kBadSequence);
  EXPECT_FALSE(client.read_frame().has_value());  // EOF
}

TEST_F(TransportServerTest, WrongHmacRejectedWithAuthError) {
  ingest::WatermarkTable watermarks;
  ingest::TransportServer server(options_, watermarks);
  TestClient client(server.port());
  client.send_magic();
  const auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  const auto challenge = ingest::parse_challenge(frame->payload);

  ingest::HelloFrame hello;
  hello.base_fingerprint = challenge.base_fingerprint;
  hello.session = "mon-1";
  hello.mac = ingest::compute_hello_mac("wrong secret", challenge.nonce,
                                        challenge.base_fingerprint, "mon-1");
  client.send_raw(ingest::serialize_hello(hello));
  const auto error = client.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(ingest::parse_error(error->payload).code,
            TransportErrorCode::kAuthFailed);
  EXPECT_FALSE(client.read_frame().has_value());
  EXPECT_EQ(server.handshake_rejects(), 1u);
  EXPECT_EQ(server.sessions(), 0u);
  EXPECT_EQ(server.batches(), 0u);
}

TEST_F(TransportServerTest, BaseFingerprintMismatchRejected) {
  ingest::WatermarkTable watermarks;
  ingest::TransportServer server(options_, watermarks);
  TestClient client(server.port());
  client.send_magic();
  const auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  const auto challenge = ingest::parse_challenge(frame->payload);

  // A sender configured against a different base run: the MAC is honest
  // (right secret) but pins the wrong fingerprint.
  const std::uint64_t other = challenge.base_fingerprint ^ 1;
  ingest::HelloFrame hello;
  hello.base_fingerprint = other;
  hello.session = "mon-1";
  hello.mac = ingest::compute_hello_mac("open sesame", challenge.nonce,
                                        other, "mon-1");
  client.send_raw(ingest::serialize_hello(hello));
  const auto error = client.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(ingest::parse_error(error->payload).code,
            TransportErrorCode::kBaseMismatch);
  EXPECT_EQ(server.handshake_rejects(), 1u);
}

TEST_F(TransportServerTest, PlaintextOpenerRefusedWithOneLine) {
  ingest::WatermarkTable watermarks;
  ingest::TransportServer server(options_, watermarks);
  {
    TestClient client(server.port());
    client.send_raw("0|10.2.0.2|10.1.0.1@1 10.2.0.1@2\n");
    const std::string reply = client.read_until_eof();
    EXPECT_NE(reply.find("ERR"), std::string::npos) << reply;
    EXPECT_NE(reply.find("MDP1"), std::string::npos) << reply;
    EXPECT_NE(reply.find("`mapit send`"), std::string::npos) << reply;
    EXPECT_EQ(reply.find('\n'), reply.size() - 1) << reply;  // one line
  }
  {  // An HTTP prober gets the same one-line refusal.
    TestClient client(server.port());
    client.send_raw("GET / HTTP/1.1\r\n\r\n");
    const std::string reply = client.read_until_eof();
    EXPECT_NE(reply.find("ERR"), std::string::npos) << reply;
  }
  EXPECT_EQ(server.refused_plaintext(), 2u);
  EXPECT_EQ(server.batches(), 0u);
}

TEST_F(TransportServerTest, BatchSequenceZeroRejected) {
  ingest::WatermarkTable watermarks;
  ingest::TransportServer server(options_, watermarks);
  TestClient client(server.port());
  (void)client.handshake("open sesame", "mon-1");
  ingest::BatchFrame batch;
  batch.seq = 0;
  batch.lines = {"x"};
  client.send_raw(ingest::serialize_batch(batch));
  const auto error = client.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(ingest::parse_error(error->payload).code,
            TransportErrorCode::kBadSequence);
}

}  // namespace
}  // namespace mapit
