// Live snapshot hot-swap: the SnapshotHub swaps republished snapshots in
// without dropping connections, HEALTH reports the loaded generation, and —
// the TSan-relevant part — clients hammering the server while the file
// is republished repeatedly always get answers that are internally
// consistent with exactly one generation per read batch.
#include "query/hub.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/io.h"
#include "query/async_server.h"
#include "query/server.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace mapit::query {
namespace {

namespace fs = std::filesystem;

using store::InferenceRecord;
using store::PrefixRecord;
using store::SnapshotData;
using store::SnapshotReader;
using testutil::addr;

/// Snapshot content parameterized by ASN so generations are telling:
/// lookup answers embed `asn`, letting a client attribute every answer to
/// the generation that produced it.
SnapshotData data_for(std::uint32_t asn) {
  SnapshotData data;
  data.inferences.push_back(InferenceRecord{addr("10.0.0.1").value(), 0, 0,
                                            0, 0, asn, asn + 1, 3, 4});
  data.inferences.push_back(InferenceRecord{addr("10.0.0.2").value(), 1, 1,
                                            0, 0, asn + 1, asn, 2, 3});
  data.bgp_prefixes.push_back(
      PrefixRecord{addr("10.0.0.0").value(), asn, 8, {0, 0, 0}});
  return data;
}

/// Publishes `data` to `path` the way `mapit ingest` does: serialize,
/// write to a temp file, atomic rename.
void publish(const std::string& path, const SnapshotData& data) {
  (void)store::write_snapshot_file(data, path);
}

class PersistentClient {
 public:
  explicit PersistentClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                        sizeof(address)),
              0)
        << std::strerror(errno);
  }
  ~PersistentClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends `request` in one segment and reads until `lines` full answer
  /// lines arrived. Returns the raw response ("" on connection loss).
  std::string batch(const std::string& request, std::size_t lines) {
    if (::send(fd_, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      return {};
    }
    std::string response;
    char buffer[4096];
    while (static_cast<std::size_t>(std::count(response.begin(),
                                               response.end(), '\n')) <
           lines) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return {};
      response.append(buffer, static_cast<std::size_t>(n));
    }
    return response;
  }

 private:
  int fd_ = -1;
};

class HotSwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("mapit_hot_swap_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    path_ = (dir_ / "live.snap").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The engine-level answer a given generation's content produces.
  static std::string answer_for(std::uint32_t asn,
                                const std::string& query) {
    const SnapshotReader reader = SnapshotReader::from_bytes(
        store::serialize_snapshot(data_for(asn)));
    const QueryEngine engine(reader);
    return engine.answer(query);
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(HotSwapTest, HubSwapsGenerationsAndSurvivesBadPublishes) {
  publish(path_, data_for(100));
  SnapshotHub hub(path_);
  EXPECT_EQ(hub.current()->generation, 1u);
  EXPECT_EQ(hub.current()->engine.answer("lookup 10.0.0.1 f"),
            answer_for(100, "lookup 10.0.0.1 f"));
  EXPECT_FALSE(hub.refresh());  // unchanged file: no swap
  EXPECT_EQ(hub.swap_count(), 0u);
  EXPECT_EQ(hub.last_error(), "");  // nothing failed yet

  publish(path_, data_for(300));
  EXPECT_TRUE(hub.refresh());
  EXPECT_EQ(hub.current()->generation, 2u);
  EXPECT_EQ(hub.swap_count(), 1u);
  EXPECT_EQ(hub.current()->engine.answer("lookup 10.0.0.1 f"),
            answer_for(300, "lookup 10.0.0.1 f"));

  // An old pin stays fully answerable after the swap retired its
  // generation from the hub.
  const std::shared_ptr<const LoadedSnapshot> old_pin = hub.current();
  publish(path_, data_for(500));
  EXPECT_TRUE(hub.refresh());
  EXPECT_EQ(hub.current()->generation, 3u);
  EXPECT_EQ(old_pin->engine.answer("lookup 10.0.0.1 f"),
            answer_for(300, "lookup 10.0.0.1 f"));

  // A bad publish (truncated snapshot) must degrade to staleness: refresh
  // reports no swap, the failure is counted, generation 3 keeps serving.
  // Renamed into place like a real (buggy) publisher would — an in-place
  // overwrite would corrupt the live mmap, which is exactly what the
  // atomic-rename publish contract rules out.
  {
    const std::string tmp = path_ + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << "MAPITSNP garbage";
    out.close();
    ASSERT_EQ(std::rename(tmp.c_str(), path_.c_str()), 0);
  }
  EXPECT_FALSE(hub.refresh());
  EXPECT_GE(hub.failed_refreshes(), 1u);
  EXPECT_NE(hub.last_error(), "");  // the failure message is preserved
  EXPECT_EQ(hub.current()->generation, 3u);
  EXPECT_EQ(hub.current()->engine.answer("lookup 10.0.0.1 f"),
            answer_for(500, "lookup 10.0.0.1 f"));

  // Recovery: the next good publish swaps in as generation 4. The error
  // message stays (HEALTH consumers see swaps= advance past it).
  publish(path_, data_for(700));
  EXPECT_TRUE(hub.refresh());
  EXPECT_EQ(hub.current()->generation, 4u);
  EXPECT_EQ(hub.swap_count(), 3u);
  EXPECT_NE(hub.last_error(), "");
}

TEST_F(HotSwapTest, HealthReportsVersionGenerationAndSwaps) {
  publish(path_, data_for(100));
  SnapshotHub hub(path_);
  AsyncServer server(hub, ServerOptions{});
  server.start();

  {
    PersistentClient client(server.port());
    const std::string health = client.batch("HEALTH\n", 1);
    EXPECT_EQ(health.rfind("OK crc32=", 0), 0u) << health;
    EXPECT_NE(health.find(" version="), std::string::npos) << health;
    EXPECT_NE(health.find(" generation=1 swaps=0"), std::string::npos)
        << health;
    EXPECT_NE(health.find(" last_swap_error=none"), std::string::npos)
        << health;
  }

  publish(path_, data_for(300));
  ASSERT_TRUE(hub.refresh());
  {
    PersistentClient client(server.port());
    const std::string health = client.batch("HEALTH\n", 1);
    EXPECT_NE(health.find(" generation=2 swaps=1"), std::string::npos)
        << health;
  }

  server.stop();
}

/// Parks the snapshot reader's open inside a refresh() on a latch. A
/// refresh opens the path twice: once to stat its identity, then in
/// SnapshotReader::open. Once armed, the second open parks until released.
class ParkingIo : public fault::Io {
 public:
  void arm() {
    opens_since_arm_.store(0);
    armed_.store(true);
  }

  int open(const char* path, int flags, ::mode_t mode) override {
    if (armed_.load() && opens_since_arm_.fetch_add(1) == 1) {
      armed_.store(false);
      parked_.count_down();
      release_.wait();
    }
    return fault::Io::open(path, flags, mode);
  }

  std::latch parked_{1};
  std::latch release_{1};

 private:
  std::atomic<bool> armed_{false};
  std::atomic<int> opens_since_arm_{0};
};

// The hub opens and validates a republished snapshot outside the lock that
// readers take: while a refresh sits inside the reader's open, current()
// on another thread returns the previous generation at once.
TEST_F(HotSwapTest, ReadersKeepTheOldGenerationWhileARefreshOpens) {
  publish(path_, data_for(100));
  ParkingIo io;
  SnapshotHub hub(path_, io);
  publish(path_, data_for(300));

  io.arm();
  std::future<bool> refreshed =
      std::async(std::launch::async, [&] { return hub.refresh(); });
  io.parked_.wait();

  std::future<std::uint64_t> pinned = std::async(
      std::launch::async, [&] { return hub.current()->generation; });
  const bool answered =
      pinned.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(answered) << "current() blocked behind a refresh's open";
  io.release_.count_down();  // never leave the refresh parked
  EXPECT_EQ(pinned.get(), 1u);

  EXPECT_TRUE(refreshed.get());
  EXPECT_EQ(hub.current()->generation, 2u);
  EXPECT_EQ(hub.current()->engine.answer("lookup 10.0.0.1 f"),
            answer_for(300, "lookup 10.0.0.1 f"));
}

// The soak: four clients hold their connections open while the snapshot
// republishes repeatedly. Every two-query batch must answer from exactly
// one generation, and no connection may drop. TSan builds run this test —
// the pin handoff (shared_ptr swap under the hub mutex vs. concurrent
// reads on the server thread) is exactly what it checks.
TEST_F(HotSwapTest, ClientsSurviveRepeatedRepublishWithOneGenerationPerBatch) {
  const std::vector<std::uint32_t> asns = {100, 300};
  publish(path_, data_for(asns[0]));
  SnapshotHub hub(path_);
  AsyncServer server(hub, ServerOptions{});
  server.start();

  const std::string q1 = "lookup 10.0.0.1 f";
  const std::string q2 = "lookup 10.0.0.2 f";
  // The batch answers each generation can produce: both lines from the
  // same content. A torn pair would mean two generations served one batch.
  std::vector<std::string> consistent;
  for (const std::uint32_t asn : asns) {
    consistent.push_back(answer_for(asn, q1) + "\n" + answer_for(asn, q2) +
                         "\n");
  }

  std::atomic<bool> done{false};
  std::atomic<int> batches{0};
  std::atomic<int> violations{0};
  std::atomic<int> drops{0};
  const auto client_loop = [&](std::uint16_t port) {
    PersistentClient client(port);
    while (!done.load()) {
      const std::string response = client.batch(q1 + "\n" + q2 + "\n", 2);
      if (response.empty()) {
        ++drops;  // connection lost mid-soak: the swap broke it
        return;
      }
      ++batches;
      if (response != consistent[0] && response != consistent[1]) {
        ++violations;
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) clients.emplace_back(client_loop, server.port());

  // Republish + refresh continuously; alternate content so every swap is
  // observable in the answers.
  int swaps = 0;
  for (std::size_t i = 1; i <= 20; ++i) {
    publish(path_, data_for(asns[i % 2]));
    if (hub.refresh()) ++swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  done.store(true);
  for (std::thread& thread : clients) thread.join();
  server.stop();

  EXPECT_EQ(swaps, 20);
  EXPECT_EQ(hub.swap_count(), 20u);
  EXPECT_EQ(drops.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(batches.load(), 20);
}

}  // namespace
}  // namespace mapit::query
