// AsyncServer over loopback: pipelined batches from concurrent clients
// must each get exactly the answers QueryEngine::answer produces, in order,
// and start/stop must be clean (no leaked threads or fds — TSan and ASan
// jobs run this test).
#include "query/async_server.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

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

/// Connects to 127.0.0.1:port, sends `request`, half-closes, and drains the
/// response until EOF.
std::string roundtrip(std::uint16_t port, const std::string& request) {
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
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        send(fd, request.data() + sent, request.size() - sent, 0);
    EXPECT_GT(n, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  close(fd);
  return response;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reader_ = std::make_unique<SnapshotReader>(SnapshotReader::from_bytes(
        store::serialize_snapshot(sample_data())));
    engine_ = std::make_unique<QueryEngine>(*reader_);
  }

  std::unique_ptr<SnapshotReader> reader_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(ServerTest, AnswersOneClient) {
  AsyncServer server(*engine_, 0);
  ASSERT_NE(server.port(), 0);
  server.start();
  const std::string response =
      roundtrip(server.port(), "lookup 10.0.0.1 f\nip2as 10.0.0.5\n");
  EXPECT_EQ(response,
            engine_->answer("lookup 10.0.0.1 f") + "\n" +
                engine_->answer("ip2as 10.0.0.5") + "\n");
  server.stop();
}

TEST_F(ServerTest, ToleratesCrlfBlankAndBadLines) {
  AsyncServer server(*engine_, 0);
  server.start();
  const std::string response = roundtrip(
      server.port(), "lookup 10.0.0.1 f\r\n\r\n\nbogus line here\nstats\n");
  // Blank lines produce no answer; bad lines produce ERR, not a hangup.
  const std::string expected = engine_->answer("lookup 10.0.0.1 f") + "\n" +
                               engine_->answer("bogus line here") + "\n" +
                               engine_->answer("stats") + "\n";
  EXPECT_EQ(response, expected);
  server.stop();
}

TEST_F(ServerTest, FourConcurrentPipelinedClients) {
  AsyncServer server(*engine_, 0);
  server.start();

  // Each client pipelines a deep batch in one write; answers must come back
  // complete and in order.
  const std::vector<std::string> queries = {
      "lookup 10.0.0.1 f", "lookup 10.0.0.2 b", "lookup 10.0.0.9 f",
      "ip2as 10.0.0.7",    "links 100 200",     "stats",
  };
  constexpr int kBatches = 50;
  std::string request;
  std::string expected;
  for (int i = 0; i < kBatches; ++i) {
    for (const std::string& query : queries) {
      request += query + "\n";
      expected += engine_->answer(query) + "\n";
    }
  }

  std::vector<std::thread> clients;
  std::vector<std::string> responses(4);
  for (std::size_t c = 0; c < responses.size(); ++c) {
    clients.emplace_back([&, c] {
      responses[c] = roundtrip(server.port(), request);
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::size_t c = 0; c < responses.size(); ++c) {
    EXPECT_EQ(responses[c], expected) << "client " << c;
  }
  server.stop();
}

TEST_F(ServerTest, StopIsIdempotentAndUnblocksDestructor) {
  auto server = std::make_unique<AsyncServer>(*engine_, 0);
  server->start();
  server->stop();
  server->stop();      // second stop is a no-op
  server.reset();      // destructor after stop must not hang or double-join
}

TEST_F(ServerTest, StopWithLiveConnection) {
  AsyncServer server(*engine_, 0);
  server.start();
  // Open a connection and leave it idle; stop() must shut it down rather
  // than wait forever for the client to hang up.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)),
            0);
  // Make sure the server has accepted before stopping: one full roundtrip.
  const char* ping = "stats\n";
  ASSERT_GT(send(fd, ping, std::strlen(ping), 0), 0);
  char buffer[512];
  ASSERT_GT(recv(fd, buffer, sizeof(buffer), 0), 0);
  server.stop();
  close(fd);
}

TEST_F(ServerTest, EphemeralPortsAreIndependent) {
  AsyncServer first(*engine_, 0);
  AsyncServer second(*engine_, 0);
  EXPECT_NE(first.port(), 0);
  EXPECT_NE(second.port(), 0);
  EXPECT_NE(first.port(), second.port());
}

}  // namespace
}  // namespace mapit::query
