// Server hardening under injected faults and hostile clients: EMFILE
// bursts on accept, idle connections, oversized request lines, connection
// caps, clients that vanish mid-batch, stalled readers, and graceful drain
// on stop — the contract of DESIGN.md §9 and §12. The matrix is a typed
// suite over the AsyncServer, named "Async", which keeps its ctest names
// (ServerFaultTest/Async.*) stable. The soak test at the end runs all of
// it at once and still expects golden answers; the TSan CI job runs this
// whole binary (the `fault` stage of tools/ci.sh).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/plan.h"
#include "query/async_server.h"
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

/// Connects, sends `request`, half-closes, drains the response until EOF.
std::string roundtrip(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  send_exactly(fd, request);
  shutdown(fd, SHUT_WR);
  const std::string response = drain(fd);
  close(fd);
  return response;
}

template <typename ServerT>
class ServerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reader_ = std::make_unique<SnapshotReader>(SnapshotReader::from_bytes(
        store::serialize_snapshot(sample_data())));
    engine_ = std::make_unique<QueryEngine>(*reader_);
  }

  std::unique_ptr<SnapshotReader> reader_;
  std::unique_ptr<QueryEngine> engine_;
};

using ServerTypes = ::testing::Types<AsyncServer>;

class ServerTypeNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return "Async";
  }
};

TYPED_TEST_SUITE(ServerFaultTest, ServerTypes, ServerTypeNames);

TYPED_TEST(ServerFaultTest, SurvivesEmfileBurstOnAccept) {
  fault::FaultPlan plan;
  // The first four accepts fail with fd exhaustion, the fifth with a
  // connection that died in the backlog; the accept path must back off and
  // keep serving, never exit.
  plan.add(fault::Fault{.op = fault::Op::kAccept, .nth = 1, .repeat = 4,
                        .inject_errno = EMFILE});
  plan.add(fault::Fault{.op = fault::Op::kAccept, .nth = 5,
                        .inject_errno = ECONNABORTED});
  ServerOptions options;
  options.max_accept_backoff = std::chrono::milliseconds(10);
  options.io = &plan;
  TypeParam server(*this->engine_, options);
  server.start();
  const std::string response = roundtrip(server.port(), "lookup 10.0.0.1 f\n");
  EXPECT_EQ(response, this->engine_->answer("lookup 10.0.0.1 f") + "\n");
  EXPECT_GE(server.accept_retries(), 5u);
  server.stop();
}

TYPED_TEST(ServerFaultTest, EnfileThenStopDoesNotHangInBackoff) {
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kAccept, .nth = 1, .repeat = 1000,
                        .inject_errno = ENFILE});
  ServerOptions options;
  options.max_accept_backoff = std::chrono::milliseconds(5000);
  options.io = &plan;
  TypeParam server(*this->engine_, options);
  server.start();
  // Let the loop reach a long backoff wait, then stop: the wait must be
  // interrupted, not waited out.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto begin = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::seconds(2));
}

TYPED_TEST(ServerFaultTest, IdleConnectionIsClosedAfterTimeout) {
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  TypeParam server(*this->engine_, options);
  server.start();
  const int fd = connect_to(server.port());
  // An active roundtrip first: activity must not trip the idle timer.
  send_exactly(fd, "stats\n");
  char buffer[512];
  ASSERT_GT(recv(fd, buffer, sizeof(buffer), 0), 0);
  // Now idle. The server must close us — recv unblocks with EOF.
  const auto begin = std::chrono::steady_clock::now();
  const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
  EXPECT_EQ(n, 0);
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::seconds(5));
  close(fd);
  server.stop();
}

TYPED_TEST(ServerFaultTest, RefusesConnectionsPastTheCap) {
  ServerOptions options;
  options.max_connections = 1;
  TypeParam server(*this->engine_, options);
  server.start();

  const int occupant = connect_to(server.port());
  send_exactly(occupant, "stats\n");
  char buffer[512];
  ASSERT_GT(recv(occupant, buffer, sizeof(buffer), 0), 0);

  // The cap is hit: the next client gets one refusal line, then EOF.
  const int refused = connect_to(server.port());
  const std::string refusal = drain(refused);
  EXPECT_EQ(refusal, "ERR server at connection capacity (try again later)\n");
  close(refused);
  EXPECT_EQ(server.refused_connections(), 1u);

  // Freeing the slot reopens the door.
  close(occupant);
  std::string accepted;
  for (int attempt = 0; attempt < 100 && accepted.empty(); ++attempt) {
    accepted = roundtrip(server.port(), "stats\n");
    if (accepted == "ERR server at connection capacity (try again later)\n") {
      accepted.clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(accepted, this->engine_->answer("stats") + "\n");
  server.stop();
}

TYPED_TEST(ServerFaultTest, OversizedCompleteLineGetsErrAndBatchContinues) {
  ServerOptions options;
  options.max_line_bytes = 64;
  TypeParam server(*this->engine_, options);
  server.start();
  const std::string request =
      std::string(200, 'a') + "\nlookup 10.0.0.1 f\n";
  const std::string response = roundtrip(server.port(), request);
  EXPECT_EQ(response, "ERR request line exceeds 64 bytes\n" +
                          this->engine_->answer("lookup 10.0.0.1 f") + "\n");
  server.stop();
}

TYPED_TEST(ServerFaultTest, UnterminatedGiantLineIsBoundedAndAnswered) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  TypeParam server(*this->engine_, options);
  server.start();
  const int fd = connect_to(server.port());
  // Stream 1 MiB with no newline: the server must answer the ERR line
  // while the flood is still in progress (bounded buffer) and discard the
  // rest of the line.
  const std::string flood(1 << 20, 'x');
  send_exactly(fd, flood);
  send_exactly(fd, "\nstats\n");
  shutdown(fd, SHUT_WR);
  const std::string response = drain(fd);
  close(fd);
  EXPECT_EQ(response, "ERR request line exceeds 1024 bytes\n" +
                          this->engine_->answer("stats") + "\n");
  server.stop();
}

TYPED_TEST(ServerFaultTest, ClientDisconnectMidBatchDoesNotKillServer) {
  TypeParam server(*this->engine_, ServerOptions{});
  server.start();
  // A client pipelines a deep batch and vanishes without reading a byte:
  // the server's sends must fail with EPIPE/ECONNRESET (never SIGPIPE) and
  // only that connection dies.
  std::string batch;
  for (int i = 0; i < 2000; ++i) batch += "lookup 10.0.0.1 f\n";
  const int fd = connect_to(server.port());
  send_exactly(fd, batch);
  struct linger hard_reset {.l_onoff = 1, .l_linger = 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof(hard_reset));
  close(fd);  // RST: the server's in-flight answers hit a dead peer

  // The server survives and keeps answering fresh clients.
  const std::string response = roundtrip(server.port(), "stats\n");
  EXPECT_EQ(response, this->engine_->answer("stats") + "\n");
  server.stop();
}

TYPED_TEST(ServerFaultTest, InjectedSendResetKillsOneConnectionOnly) {
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kSend, .nth = 1,
                        .inject_errno = ECONNRESET});
  ServerOptions options;
  options.io = &plan;
  TypeParam server(*this->engine_, options);
  server.start();
  // First client: its answer send is reset mid-batch; it observes EOF.
  const std::string first = roundtrip(server.port(), "stats\n");
  EXPECT_EQ(first, "");
  // Second client: the fault is spent, service continues.
  const std::string second = roundtrip(server.port(), "stats\n");
  EXPECT_EQ(second, this->engine_->answer("stats") + "\n");
  server.stop();
}

/// Value of `key=<integer>` in a HEALTH answer line, or -1 when absent.
long long health_field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(line.c_str() + pos + needle.size());
}

// The server-level HEALTH probe: answered in-order alongside engine lines,
// reporting the served snapshot's CRC and live server counters — including
// a refusal that happened moments earlier.
TYPED_TEST(ServerFaultTest, HealthProbeReportsSnapshotCrcAndCounters) {
  ServerOptions options;
  options.max_connections = 1;
  TypeParam server(*this->engine_, options);
  server.start();

  // Occupy the single slot, then get one client refused so the probe has a
  // nonzero counter to report.
  const int occupant = connect_to(server.port());
  send_exactly(occupant, "stats\n");
  char buffer[512];
  ASSERT_GT(recv(occupant, buffer, sizeof(buffer), 0), 0);
  const int refused = connect_to(server.port());
  EXPECT_EQ(drain(refused),
            "ERR server at connection capacity (try again later)\n");
  close(refused);

  // HEALTH pipelines like any other line; the occupant still holds its
  // connection while the probe is answered, so connections=1.
  send_exactly(occupant, "HEALTH\nstats\n");
  shutdown(occupant, SHUT_WR);
  const std::string response = drain(occupant);
  close(occupant);

  const std::size_t newline = response.find('\n');
  ASSERT_NE(newline, std::string::npos) << response;
  const std::string health = response.substr(0, newline);
  EXPECT_EQ(response.substr(newline + 1),
            this->engine_->answer("stats") + "\n");

  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                this->reader_->payload_crc32());
  EXPECT_EQ(health.rfind("OK crc32=" + std::string(crc_hex) + " uptime=",
                         0),
            0u)
      << health;
  EXPECT_GE(health_field(health, "uptime"), 0) << health;
  EXPECT_EQ(health_field(health, "connections"), 1) << health;
  EXPECT_EQ(health_field(health, "inferences"), 2) << health;
  EXPECT_EQ(health_field(health, "refused"), 1) << health;
  EXPECT_EQ(health_field(health, "accept_retries"), 0) << health;
  EXPECT_EQ(health_field(health, "shed"), 0) << health;
  // A fixed-engine server has no hub, so no swap ever failed.
  EXPECT_NE(health.find(" last_swap_error=none"), std::string::npos)
      << health;
  server.stop();
}

TYPED_TEST(ServerFaultTest, StopDrainsInFlightAnswersWholeLines) {
  TypeParam server(*this->engine_, ServerOptions{});
  server.start();
  std::string batch;
  std::string expected;
  for (int i = 0; i < 500; ++i) {
    batch += "lookup 10.0.0.1 f\n";
    expected += this->engine_->answer("lookup 10.0.0.1 f") + "\n";
  }
  const int fd = connect_to(server.port());
  send_exactly(fd, batch);
  // Stop while the batch may still be in flight: the drain must finish the
  // lines the server already read and send their answers before closing.
  server.stop();
  const std::string response = drain(fd);
  close(fd);
  // Never torn mid-line, never reordered: what arrives is a prefix of the
  // full expected answer stream ending on a line boundary.
  EXPECT_LE(response.size(), expected.size());
  EXPECT_EQ(response, expected.substr(0, response.size()));
  if (!response.empty()) {
    EXPECT_EQ(response.back(), '\n');
  }
}

// The stalled-reader regression: a client that pipelines a deep batch and
// never reads a byte must not hang stop(). Write backpressure stops
// reading from it and the bounded drain closes it, so stop() returns
// promptly.
TYPED_TEST(ServerFaultTest, StalledReaderCannotBlockStop) {
  ServerOptions options;
  options.max_write_buffer = 32 * 1024;
  options.drain_timeout = std::chrono::milliseconds(300);
  TypeParam server(*this->engine_, options);
  server.start();

  // A tiny receive window makes the kernel buffers fill fast, wedging the
  // server's sends while most answers are still unsent.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)),
            0)
      << std::strerror(errno);

  std::string batch;
  for (int i = 0; i < 8000; ++i) batch += "lookup 10.0.0.1 f\n";
  // Send from a helper thread: once the server stops reading (wedged send
  // or write backpressure), our own send would block too. The helper
  // tolerates the server dropping us — that IS the expected outcome.
  std::thread stalled_sender([&] {
    std::size_t sent = 0;
    while (sent < batch.size()) {
      const ssize_t n = send(fd, batch.data() + sent, batch.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
  });
  // Let the batch land and the server wedge against the never-read socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto begin = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::seconds(3));
  close(fd);
  stalled_sender.join();
}

// The listen backlog is SOMAXCONN (not the old magic 64): while accepts
// are stalled by injected fd exhaustion, a burst of clients well past 64
// must all complete their handshakes immediately out of the backlog — with
// a 64-deep backlog the kernel drops the overflow SYNs and every dropped
// client stalls in a >=1s retransmit. Afterwards every one of them gets a
// real answer.
TYPED_TEST(ServerFaultTest, BacklogAbsorbsBurstWhileAcceptsAreStalled) {
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kAccept, .nth = 1, .repeat = 10,
                        .inject_errno = EMFILE});
  ServerOptions options;
  options.max_accept_backoff = std::chrono::milliseconds(100);
  options.io = &plan;
  TypeParam server(*this->engine_, options);
  server.start();

  // ~430ms of stalled accepts (10 injections through the doubling backoff)
  // covers the whole burst below, which takes a few milliseconds.
  constexpr int kBurst = 150;
  std::vector<int> fds;
  fds.reserve(kBurst);
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < kBurst; ++i) fds.push_back(connect_to(server.port()));
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::seconds(1));

  const std::string expected = this->engine_->answer("stats") + "\n";
  for (const int fd : fds) {
    send_exactly(fd, "stats\n");
    shutdown(fd, SHUT_WR);
    EXPECT_EQ(drain(fd), expected);
    close(fd);
  }
  EXPECT_GE(server.accept_retries(), 10u);
  server.stop();
}

TYPED_TEST(ServerFaultTest, ServeForeverStopReleasesTheListenerPort) {
  auto server = std::make_unique<TypeParam>(*this->engine_, ServerOptions{});
  const std::uint16_t port = server->port();
  std::thread serving([&] { server->serve_forever(); });
  // One roundtrip proves the loop is up before we stop it.
  EXPECT_EQ(roundtrip(port, "stats\n"), this->engine_->answer("stats") + "\n");
  server->stop();
  serving.join();
  server.reset();
  // The fd must be closed by now (the old bug leaked it on this path):
  // binding the same port again succeeds only if the listener is gone.
  EXPECT_NO_THROW({
    TypeParam rebound(*this->engine_, port);
    EXPECT_EQ(rebound.port(), port);
  });
}

// Everything at once: fd exhaustion, an idle client, a line flood, a
// vanishing client — and the golden batch must still come back exact, with
// a clean TSan-checked shutdown.
TYPED_TEST(ServerFaultTest, SoakKeepsGoldenAnswersUnderChaos) {
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kAccept, .nth = 2, .repeat = 3,
                        .inject_errno = EMFILE});
  plan.add(fault::Fault{.op = fault::Op::kAccept, .nth = 7,
                        .inject_errno = ECONNABORTED});
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(150);
  options.max_connections = 4;
  options.max_line_bytes = 2048;
  options.max_accept_backoff = std::chrono::milliseconds(10);
  options.io = &plan;
  TypeParam server(*this->engine_, options);
  server.start();

  // Chaos phase. An idle client that will be timed out...
  const int idle_fd = connect_to(server.port());
  // ...a flooder whose giant line is bounded and answered...
  const std::string flood_response =
      roundtrip(server.port(), std::string(100 * 1024, 'z') + "\nstats\n");
  EXPECT_EQ(flood_response, "ERR request line exceeds 2048 bytes\n" +
                                this->engine_->answer("stats") + "\n");
  // ...and a client that vanishes with answers in flight.
  {
    const int fd = connect_to(server.port());
    std::string batch;
    for (int i = 0; i < 500; ++i) batch += "links 100 200\n";
    send_exactly(fd, batch);
    struct linger hard_reset {.l_onoff = 1, .l_linger = 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof(hard_reset));
    close(fd);
  }

  // Let the vanished client's handler notice the reset and free its
  // connection slot before the golden clients compete for the cap.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Golden phase: pipelined batches from concurrent clients, answers must
  // be exact and in order despite the chaos above.
  const std::vector<std::string> queries = {
      "lookup 10.0.0.1 f", "lookup 10.0.0.2 b", "ip2as 10.0.0.7",
      "links 100 200",     "stats",
  };
  std::string request;
  std::string expected;
  for (int i = 0; i < 40; ++i) {
    for (const std::string& query : queries) {
      request += query + "\n";
      expected += this->engine_->answer(query) + "\n";
    }
  }
  std::vector<std::thread> clients;
  std::vector<std::string> responses(2);
  for (std::size_t c = 0; c < responses.size(); ++c) {
    clients.emplace_back([&, c] {
      responses[c] = roundtrip(server.port(), request);
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::size_t c = 0; c < responses.size(); ++c) {
    EXPECT_EQ(responses[c], expected) << "client " << c;
  }

  // The idle client was closed by the server, not by our stop().
  char buffer[64];
  EXPECT_EQ(recv(idle_fd, buffer, sizeof(buffer), 0), 0);
  close(idle_fd);
  server.stop();
  EXPECT_GE(server.accept_retries(), 4u);
}

}  // namespace
}  // namespace mapit::query
