// AsyncServer functional tests: line-protocol answers byte-identical to
// QueryEngine::answer, the length-prefixed binary protocol (framing, oversized
// frames, split delivery, sniffing), write backpressure end-to-end, and
// SO_REUSEPORT scale-out. Concurrency tests here are exercised by the TSan
// CI job (the whole mapit_query_test binary runs under it).
#include "query/async_server.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/server.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace mapit::query {
namespace {

using store::InferenceRecord;
using store::PrefixRecord;
using store::SnapshotData;
using store::SnapshotReader;
using testutil::addr;

SnapshotData sample_data() {
  SnapshotData data;
  data.inferences.push_back(
      InferenceRecord{addr("10.0.0.1").value(), 0, 0, 0, 0, 100, 200, 3, 4});
  data.inferences.push_back(
      InferenceRecord{addr("10.0.0.2").value(), 1, 1, 0, 0, 200, 100, 2, 3});
  data.bgp_prefixes.push_back(
      PrefixRecord{addr("10.0.0.0").value(), 100, 8, {0, 0, 0}});
  return data;
}

int connect_to(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)),
            0)
      << std::strerror(errno);
  return fd;
}

void send_exactly(int fd, const std::string& request) {
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

std::string drain(int fd) {
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  return response;
}

std::string roundtrip(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  send_exactly(fd, request);
  shutdown(fd, SHUT_WR);
  const std::string response = drain(fd);
  close(fd);
  return response;
}

/// Splits a drained binary-protocol byte stream back into payloads.
std::vector<std::string> parse_frames(const std::string& stream) {
  std::vector<std::string> payloads;
  std::size_t offset = 0;
  while (offset + 4 <= stream.size()) {
    std::uint32_t length = 0;
    std::memcpy(&length, stream.data() + offset, 4);  // LE host assumed
    EXPECT_LE(offset + 4 + length, stream.size()) << "torn frame";
    payloads.emplace_back(stream, offset + 4, length);
    offset += 4 + length;
  }
  EXPECT_EQ(offset, stream.size()) << "trailing bytes after last frame";
  return payloads;
}

/// The query mix every protocol test answers (exercises OK/ERR/multi-word
/// paths; no HEALTH — its uptime field is not run-deterministic).
const std::vector<std::string>& golden_queries() {
  static const std::vector<std::string> queries = {
      "lookup 10.0.0.1 f", "lookup 10.0.0.2 b", "lookup 10.9.9.9 f",
      "addr 10.0.0.1",     "ip2as 10.0.0.7",    "ip2as 99.99.99.99",
      "links 100 200",     "links 1 2",         "stats",
      "bogus query",
  };
  return queries;
}

class AsyncServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reader_ = std::make_unique<SnapshotReader>(SnapshotReader::from_bytes(
        store::serialize_snapshot(sample_data())));
    engine_ = std::make_unique<QueryEngine>(*reader_);
  }

  std::unique_ptr<SnapshotReader> reader_;
  std::unique_ptr<QueryEngine> engine_;
};

// A pipelined line-protocol batch is answered with exactly the bytes of
// per-line QueryEngine::answer — what `mapit query` prints — one line per
// non-blank request, in order.
TEST_F(AsyncServerTest, LineProtocolMatchesQueryEngineByteForByte) {
  std::string request;
  std::string expected;
  for (int i = 0; i < 25; ++i) {
    for (const std::string& query : golden_queries()) {
      request += query + "\n";
      expected += engine_->answer(query) + "\n";
    }
  }
  // CRLF and blank lines are part of the tolerated dialect — include them.
  request += "stats\r\n\r\n\nlookup 10.0.0.1 f\n";
  expected += engine_->answer("stats") + "\n" +
              engine_->answer("lookup 10.0.0.1 f") + "\n";

  AsyncServer server(*engine_, ServerOptions{});
  server.start();
  EXPECT_EQ(roundtrip(server.port(), request), expected);
  server.stop();
}

TEST_F(AsyncServerTest, BinaryProtocolAnswersFrameForFrame) {
  AsyncServer server(*engine_, ServerOptions{});
  server.start();

  std::string request(kBinaryProtocolMagic, sizeof(kBinaryProtocolMagic));
  std::vector<std::string> expected;
  for (const std::string& query : golden_queries()) {
    append_binary_frame(request, query);
    expected.push_back(engine_->answer(query));
  }
  // A zero-length frame is a legal frame holding an empty query.
  append_binary_frame(request, "");
  expected.push_back(engine_->answer(""));

  const std::vector<std::string> payloads =
      parse_frames(roundtrip(server.port(), request));
  EXPECT_EQ(payloads, expected);
  server.stop();
}

TEST_F(AsyncServerTest, BinaryHealthFrameReportsTheSnapshot) {
  AsyncServer server(*engine_, ServerOptions{});
  server.start();
  std::string request(kBinaryProtocolMagic, sizeof(kBinaryProtocolMagic));
  append_binary_frame(request, "HEALTH");
  const std::vector<std::string> payloads =
      parse_frames(roundtrip(server.port(), request));
  ASSERT_EQ(payloads.size(), 1u);
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", reader_->payload_crc32());
  EXPECT_EQ(payloads[0].rfind("OK crc32=" + std::string(crc_hex), 0), 0u)
      << payloads[0];
  server.stop();
}

TEST_F(AsyncServerTest, OversizedBinaryFrameGetsErrAndConnectionSurvives) {
  ServerOptions options;
  options.max_line_bytes = 64;
  AsyncServer server(*engine_, options);
  server.start();

  std::string request(kBinaryProtocolMagic, sizeof(kBinaryProtocolMagic));
  append_binary_frame(request, std::string(500, 'a'));  // over the limit
  append_binary_frame(request, "stats");                // must still answer
  const std::vector<std::string> payloads =
      parse_frames(roundtrip(server.port(), request));
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "ERR request frame exceeds 64 bytes");
  EXPECT_EQ(payloads[1], engine_->answer("stats"));
  server.stop();
}

// Framing must survive arbitrary TCP segmentation: the magic, a frame
// header, and a payload each dribble in over multiple sends (TCP_NODELAY
// on the client keeps the segments separate in practice; correctness must
// not depend on it either way).
TEST_F(AsyncServerTest, BinaryFramesSplitAcrossSendsReassemble) {
  AsyncServer server(*engine_, ServerOptions{});
  server.start();

  std::string request(kBinaryProtocolMagic, sizeof(kBinaryProtocolMagic));
  append_binary_frame(request, "lookup 10.0.0.1 f");
  append_binary_frame(request, "stats");

  const int fd = connect_to(server.port());
  for (std::size_t i = 0; i < request.size(); i += 3) {
    send_exactly(fd, request.substr(i, 3));
    // A pause mid-magic and mid-frame forces the server through its
    // incomplete-prefix paths.
    if (i < 12) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  shutdown(fd, SHUT_WR);
  const std::vector<std::string> payloads = parse_frames(drain(fd));
  close(fd);
  EXPECT_EQ(payloads, std::vector<std::string>(
                          {engine_->answer("lookup 10.0.0.1 f"),
                           engine_->answer("stats")}));
  server.stop();
}

// End-to-end write backpressure: answers far exceeding max_write_buffer
// reach a slow reader completely and in order — the server pauses reading
// at the high-water mark and resumes as the client drains, instead of
// buffering without bound or dropping the connection.
TEST_F(AsyncServerTest, BackpressureDeliversEverythingToASlowReader) {
  ServerOptions options;
  options.max_write_buffer = 8 * 1024;
  AsyncServer server(*engine_, options);
  server.start();

  constexpr int kQueries = 20000;
  std::string batch;
  std::string expected;
  for (int i = 0; i < kQueries; ++i) {
    batch += "lookup 10.0.0.1 f\n";
    expected += engine_->answer("lookup 10.0.0.1 f") + "\n";
  }

  const int fd = connect_to(server.port());
  std::thread sender([&] {
    std::size_t sent = 0;
    while (sent < batch.size()) {
      const ssize_t n = send(fd, batch.data() + sent, batch.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    shutdown(fd, SHUT_WR);
  });

  // Read deliberately slowly at first so the write buffer actually hits
  // its high-water mark before the drain.
  std::string response;
  char buffer[512];
  for (int i = 0; i < 20; ++i) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  response += drain(fd);
  sender.join();
  close(fd);
  EXPECT_EQ(response, expected);
  server.stop();
}

TEST_F(AsyncServerTest, ReuseportSpreadsClientsAcrossTwoServers) {
  ServerOptions options;
  options.reuse_port = true;
  AsyncServer first(*engine_, options);
  options.port = first.port();
  AsyncServer second(*engine_, options);  // same port, second process stand-in
  ASSERT_EQ(first.port(), second.port());
  first.start();
  second.start();

  // The kernel picks the server per connection; every client must get the
  // right answer no matter which one it lands on.
  const std::string expected = engine_->answer("stats") + "\n";
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(roundtrip(first.port(), "stats\n"), expected);
  }
  second.stop();
  // With one listener gone the port still serves.
  EXPECT_EQ(roundtrip(first.port(), "stats\n"), expected);
  first.stop();
}

// TSan-exercised concurrency: pipelined line clients and a binary client
// hammer one event loop at once; every response stream must be exact.
TEST_F(AsyncServerTest, ConcurrentLineAndBinaryClients) {
  AsyncServer server(*engine_, ServerOptions{});
  server.start();

  std::string line_request;
  std::string line_expected;
  for (int i = 0; i < 50; ++i) {
    for (const std::string& query : golden_queries()) {
      line_request += query + "\n";
      line_expected += engine_->answer(query) + "\n";
    }
  }
  std::string binary_request(kBinaryProtocolMagic,
                             sizeof(kBinaryProtocolMagic));
  std::string binary_expected;
  for (int i = 0; i < 50; ++i) {
    for (const std::string& query : golden_queries()) {
      append_binary_frame(binary_request, query);
      append_binary_frame(binary_expected, engine_->answer(query));
    }
  }

  std::vector<std::thread> clients;
  std::vector<std::string> responses(4);
  std::vector<std::string> expectations(4);
  for (std::size_t c = 0; c < responses.size(); ++c) {
    const bool binary = c % 2 == 1;
    expectations[c] = binary ? binary_expected : line_expected;
    clients.emplace_back([&, c, binary] {
      responses[c] =
          roundtrip(server.port(), binary ? binary_request : line_request);
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::size_t c = 0; c < responses.size(); ++c) {
    EXPECT_EQ(responses[c], expectations[c]) << "client " << c;
  }
  EXPECT_EQ(server.refused_connections(), 0u);
  server.stop();
}

}  // namespace
}  // namespace mapit::query
